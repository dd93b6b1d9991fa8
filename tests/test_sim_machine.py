"""The machine: window loop, accounting invariants, migration costs."""

import numpy as np
import pytest

from repro.mem.page import Tier, UNALLOCATED
from repro.obs import Observability
from repro.sim.config import MachineConfig, MigrationCost, parse_ratio, PAPER_RATIOS
from repro.sim.machine import Machine
from repro.sim.migration import MigrationEngine
from repro.sim.policy_api import Decision, NoTierPolicy, SlowOnlyPolicy, TieringPolicy
from repro.mem.tiered import TieredMemory

from conftest import TinyWorkload, assert_placement_consistent
from oracles import move


class TestRatioParsing:
    def test_known_ratios(self):
        assert parse_ratio("1:1") == pytest.approx(0.5)
        assert parse_ratio("8:1") == pytest.approx(8 / 9)
        assert parse_ratio("1:8") == pytest.approx(1 / 9)

    def test_all_paper_ratios_parse(self):
        for ratio in PAPER_RATIOS:
            assert 0.0 < parse_ratio(ratio) < 1.0

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_ratio("1-1")
        with pytest.raises(ValueError):
            parse_ratio("0:1")

    def test_rejects_non_finite(self):
        # Regression: float("nan") > 0 is False but "nan:1" previously
        # slipped past the positivity check via NaN comparison rules.
        for bad in ("nan:1", "1:nan", "inf:1", "1:inf", "-inf:2"):
            with pytest.raises(ValueError):
                parse_ratio(bad)


class TestMachineConfig:
    def test_fast_capacity(self):
        cfg = MachineConfig()
        assert cfg.tier_capacities(900, "1:2")[0] == 300

    def test_with_override(self):
        cfg = MachineConfig().with_(thp=True, pebs_rate=800)
        assert cfg.thp and cfg.pebs_rate == 800
        assert MachineConfig().thp is False

    def test_migration_cycles(self):
        cfg = MachineConfig(migration=MigrationCost(page_fixed_us=1.0, page_copy_us=1.0))
        # 2 us per page at 2.2 GHz = 4400 cycles.
        assert cfg.migration_cycles(pages_4k=1) == pytest.approx(4400.0)

    def test_huge_page_migration_amortises(self):
        cfg = MachineConfig()
        loose = cfg.migration_cycles(pages_4k=512)
        huge = cfg.migration_cycles(pages_4k=0, huge_pages=1)
        assert huge < loose / 3  # 2MB moves are far cheaper per byte


class TestMachineRun:
    def test_run_completes_workload(self, config):
        workload = TinyWorkload()
        result = Machine(workload, NoTierPolicy(), config=config).run()
        assert workload.done
        assert result.windows == workload.total_misses // workload.misses_per_window
        assert result.runtime_cycles > 0

    def test_preallocation_covers_footprint(self, config):
        workload = TinyWorkload()
        machine = Machine(workload, NoTierPolicy(), config=config, ratio="1:1")
        assert (machine.memory.placement != UNALLOCATED).all()
        assert_placement_consistent(machine.memory)

    def test_unplaced_page_rejected_at_construction(self, config):
        # The window loop allocates nothing: a page the allocation order
        # leaves out would reach the share split without a tier.
        class PartialOrder(TinyWorkload):
            def allocation_order(self):
                return np.arange(3, self.footprint_pages, dtype=np.int64)

        with pytest.raises(ValueError, match=r"'tiny' leaves 3 of its 512 pages unplaced"):
            Machine(PartialOrder(), NoTierPolicy(), config=config, ratio="1:4")

    def test_allocation_order_respected(self, config):
        workload = TinyWorkload()
        machine = Machine(workload, NoTierPolicy(), config=config, ratio="1:1")
        half = workload.footprint_pages // 2
        # TinyWorkload allocates the stream half first; at 1:1 it fills
        # the fast tier, stranding the chase half on slow.
        assert (machine.memory.placement[half:] == int(Tier.FAST)).all()
        assert (machine.memory.placement[:half] == int(Tier.SLOW)).all()

    def test_slow_only_policy_places_everything_slow(self, config):
        workload = TinyWorkload()
        machine = Machine(
            workload, SlowOnlyPolicy(), config=config, fast_capacity_override=0
        )
        assert (machine.memory.placement == int(Tier.SLOW)).all()

    def test_deterministic_given_seed(self, config):
        r1 = Machine(TinyWorkload(), NoTierPolicy(), config=config, seed=5).run()
        r2 = Machine(TinyWorkload(), NoTierPolicy(), config=config, seed=5).run()
        assert r1.runtime_cycles == pytest.approx(r2.runtime_cycles)
        assert r1.total_misses == pytest.approx(r2.total_misses)

    def test_trace_collects_window_records(self, config):
        result = Machine(
            TinyWorkload(), NoTierPolicy(), config=config, obs=Observability()
        ).run(max_windows=5)
        assert result.trace is not None and len(result.trace) == 5
        rec = result.trace[0]
        assert rec.duration_cycles > 0
        assert rec.slow_misses + rec.fast_misses > 0

    def test_no_trace_by_default(self, config):
        result = Machine(TinyWorkload(), NoTierPolicy(), config=config).run(max_windows=3)
        assert result.trace is None

    def test_misses_accounted(self, config):
        workload = TinyWorkload()
        result = Machine(workload, NoTierPolicy(), config=config).run()
        assert result.total_misses == pytest.approx(workload.total_misses, rel=0.05)


class _PromoteEverything(TieringPolicy):
    """Degenerate policy used to test cost accounting."""

    name = "promote-all"
    synchronous_migration = True
    needs_pebs = False

    def observe(self, obs):
        return Decision(promote=obs.touched_slow, demote_lru=obs.touched_slow.size,
                        demote_victim_mode="fifo")


class TestMigrationAccounting:
    def test_sync_migration_cost_lands_in_runtime(self, config):
        workload = TinyWorkload()
        quiet = Machine(TinyWorkload(), NoTierPolicy(), config=config, ratio="1:1").run()
        churny = Machine(workload, _PromoteEverything(), config=config, ratio="1:1").run()
        assert churny.promoted > 0
        assert churny.migration_cost_cycles > 0
        assert churny.runtime_cycles > quiet.runtime_cycles

    def test_promotion_and_demotion_counts_match_engine(self, config):
        workload = TinyWorkload()
        machine = Machine(workload, _PromoteEverything(), config=config, ratio="1:1")
        result = machine.run(max_windows=10)
        assert result.promoted == machine.engine.total_promoted
        assert result.demoted == machine.engine.total_demoted

    def test_placement_consistent_after_churny_run(self, config):
        machine = Machine(TinyWorkload(), _PromoteEverything(), config=config, ratio="1:2")
        machine.run(max_windows=15)
        assert_placement_consistent(machine.memory)


class TestMigrationEngineThp:
    def _engine(self, thp):
        memory = TieredMemory(2048, [1024, 2048])
        memory.allocate_first_touch(np.arange(2048))
        return MigrationEngine(memory, MachineConfig(thp=thp)), memory

    def test_thp_expands_to_whole_huge_page(self):
        engine, memory = self._engine(thp=True)
        move(memory, np.arange(0, 512), Tier.SLOW, Tier.FAST)  # free half the fast tier
        outcome = engine.apply_window(Decision(promote=np.array([1030])))
        # Page 1030 lives in huge page 2, so all of pages 1024..1535
        # (slow-resident, and fitting the freed room) move together.
        assert outcome.promoted == 512
        np.testing.assert_array_equal(outcome.promoted_pages, np.arange(1024, 1536))
        assert (memory.placement[1024:1536] == int(Tier.FAST)).all()

    def test_thp_cost_cheaper_than_page_wise(self):
        engine_thp, mem_thp = self._engine(thp=True)
        engine_4k, mem_4k = self._engine(thp=False)
        # Demote one full fast-resident huge page (pages 512..1023) each way.
        thp_out = engine_thp.apply_window(Decision(demote=np.array([600])))
        pagewise = engine_4k.apply_window(Decision(demote=np.arange(512, 1024)))
        assert thp_out.demoted == pagewise.demoted == 512
        assert thp_out.cost_cycles < pagewise.cost_cycles / 3

    def test_4k_mode_moves_only_selected(self):
        engine, memory = self._engine(thp=False)
        move(memory, np.arange(0, 4), Tier.SLOW, Tier.FAST)
        outcome = engine.apply_window(Decision(promote=np.array([1030, 1031])))
        assert outcome.promoted == 2
        assert memory.placement[1032] == int(Tier.SLOW)
