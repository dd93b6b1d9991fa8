"""Baseline tiering systems: construction and characteristic behaviours."""

import numpy as np
import pytest

from repro.baselines import ALL_POLICIES, make_policy
from repro.baselines.alto import AltoPolicy
from repro.baselines.colloid import ColloidPolicy
from repro.baselines.memtis import MemtisPolicy
from repro.baselines.nbt import NbtPolicy
from repro.baselines.nomad import NomadPolicy
from repro.baselines.soar import SoarPolicy
from repro.baselines.tpp import TppPolicy
from repro.mem.page import Tier
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.sim.machine import Machine
from repro.workloads import make_workload
from repro.workloads.tracestore import TraceStore

from conftest import TinyWorkload
from oracles import replay


@pytest.fixture(scope="module")
def tiny_results(config=None):
    """One run of every policy on the tiny workload at 1:1."""
    clear_baseline_cache()
    cfg = MachineConfig()
    results = {}
    base = ideal_baseline(TinyWorkload(), config=cfg)
    for name in ALL_POLICIES:
        results[name] = run_policy(TinyWorkload(), make_policy(name), ratio="1:1", config=cfg)
    return base, results


class TestRegistry:
    def test_all_policies_construct(self):
        for name in ALL_POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("FancyLRU")


class TestEveryPolicyRuns:
    def test_all_complete_and_report(self, tiny_results):
        base, results = tiny_results
        for name, result in results.items():
            assert result.runtime_cycles > 0, name
            assert result.windows > 0, name

    def test_tiering_beats_notier_for_top_systems(self, tiny_results):
        base, results = tiny_results
        notier = results["NoTier"].slowdown(base)
        for name in ("PACT", "Colloid", "Soar"):
            assert results[name].slowdown(base) < notier, name

    def test_memtis_has_no_signal_on_uniform_hotness(self, tiny_results):
        # Tiny's regions have identical access frequency: a hotness
        # histogram cannot separate them, so Memtis stays near NoTier.
        base, results = tiny_results
        assert results["Memtis"].slowdown(base) == pytest.approx(
            results["NoTier"].slowdown(base), abs=0.05
        )

    def test_pact_is_best_online_system(self, tiny_results):
        base, results = tiny_results
        pact = results["PACT"].slowdown(base)
        for name in ("Colloid", "Alto", "NBT", "TPP", "Memtis", "Nomad"):
            assert pact <= results[name].slowdown(base) * 1.05, name

    def test_tpp_migrates_orders_of_magnitude_more(self, tiny_results):
        _, results = tiny_results
        assert results["TPP"].promoted > 5 * max(results["PACT"].promoted, 1)

    def test_nomad_worst_tier(self, tiny_results):
        base, results = tiny_results
        assert results["Nomad"].slowdown(base) > results["NoTier"].slowdown(base)

    def test_notier_and_soar_never_migrate(self, tiny_results):
        _, results = tiny_results
        assert results["NoTier"].promoted == 0
        assert results["Soar"].promoted == 0


class TestTpp:
    def test_promotes_touched_slow_pages(self, config):
        machine = Machine(TinyWorkload(), TppPolicy(), config=config, ratio="1:1")
        machine.run(max_windows=3)
        assert machine.engine.total_promoted > 0

    def test_hint_fault_overhead_positive(self):
        policy = TppPolicy()
        class _Obs:
            touched_slow = np.arange(100)
            touched_fast = np.arange(50)
        assert policy.window_overhead_cycles(_Obs()) > 0


class TestNbt:
    def test_two_touch_filter(self, config):
        machine = Machine(TinyWorkload(), NbtPolicy(scan_fraction=1.0), config=config, ratio="1:1")
        machine.step()
        first_window = machine.engine.total_promoted
        machine.step()
        # Nothing can be promoted in window 0 (no prior fault history).
        assert first_window == 0
        assert machine.engine.total_promoted > 0


class TestColloidAlto:
    def test_colloid_promotes_under_latency_imbalance(self, config):
        machine = Machine(TinyWorkload(), ColloidPolicy(), config=config, ratio="1:1")
        machine.run(max_windows=10)
        assert machine.engine.total_promoted > 0

    def test_alto_throttles_promotions_under_high_mlp(self, config):
        # A stream-only workload (very high MLP) should see Alto promote
        # far less than Colloid.
        stream = TinyWorkload(chase_mlp=16.0, stream_mlp=16.0)
        colloid = Machine(TinyWorkload(chase_mlp=16.0, stream_mlp=16.0),
                          ColloidPolicy(), config=config, ratio="1:1").run()
        alto = Machine(stream, AltoPolicy(), config=config, ratio="1:1").run()
        assert alto.promoted < colloid.promoted


class TestMemtis:
    def test_thp_mode_decides_per_huge_page(self):
        cfg = MachineConfig(thp=True)
        workload = TinyWorkload(footprint_pages=2048)
        machine = Machine(workload, MemtisPolicy(), config=cfg, ratio="1:1")
        machine.run(max_windows=10)
        fast = machine.memory.pages_in_tier(Tier.FAST)
        # Placement moves in 512-page units: each huge page is either
        # fully fast or fully slow (footprint is huge-page aligned).
        huge = fast >> 9
        counts = np.bincount(huge, minlength=4)
        assert all(c in (0, 512) for c in counts)

    def test_budget_limits_per_window_migration(self, config):
        workload = TinyWorkload()
        machine = Machine(
            workload, MemtisPolicy(budget_fraction=0.01), config=config, ratio="1:1",
            obs=Observability(),
        )
        result = machine.run(max_windows=10)
        budget = int(machine.memory.capacity[Tier.FAST] * 0.01) + 1
        for rec in result.trace:
            assert rec.promoted <= budget


class TestNomad:
    def test_costlier_migration(self):
        assert NomadPolicy.migration_cost_multiplier > 1.0

    def test_reserves_fast_capacity(self, config):
        workload = TinyWorkload()
        machine = Machine(workload, NomadPolicy(), config=config, ratio="1:1")
        plain = Machine(TinyWorkload(), TppPolicy(), config=config, ratio="1:1")
        assert (
            machine.memory.capacity[Tier.FAST] < plain.memory.capacity[Tier.FAST]
        )


class TestSoar:
    def test_offline_profile_scores_objects(self, config):
        workload = TinyWorkload()
        policy = SoarPolicy(profile_windows=10)
        Machine(workload, policy, config=config, ratio="1:1")
        profile = policy._profile
        assert profile is not None
        # The chase region must profile as more critical per page.
        assert profile["chase"] > profile["stream"]

    def test_placement_plan_honours_profile(self, config):
        workload = TinyWorkload()
        policy = SoarPolicy(profile={"chase": 100.0, "stream": 1.0})
        machine = Machine(workload, policy, config=config, ratio="1:1")
        half = workload.footprint_pages // 2
        assert (machine.memory.placement[:half] == int(Tier.FAST)).all()

    def test_oversized_object_split_head_first(self, config):
        workload = TinyWorkload()
        policy = SoarPolicy(profile={"chase": 100.0, "stream": 1.0})
        machine = Machine(workload, policy, config=config, ratio="1:3")
        # Fast tier (25%) cannot hold the chase object (50%): its head
        # is placed, the tail spills.
        fast = machine.memory.pages_in_tier(Tier.FAST)
        assert fast.max() < workload.footprint_pages // 2

    def test_profiler_builds_no_touched_sets(self, monkeypatch):
        # The offline profiler reads only PEBS records and the lower-tier
        # counters, so its machine must skip the per-window touched-page
        # set once the footprint is allocated.
        received = []
        observe = Machine._observe

        def spy(self, pebs_batch, touched, duration):
            if self.policy.name == "soar-profiler":
                received.append(touched is not None)
            return observe(self, pebs_batch, touched, duration)

        monkeypatch.setattr(Machine, "_observe", spy)
        workload = replay(TraceStore(), make_workload("gups", total_misses=2_000_000))
        run_policy(workload, make_policy("Soar"), ratio="1:4", config=MachineConfig())
        assert received and not any(received)

    def test_measured_run_starts_fresh_after_profiling(self, config):
        workload = TinyWorkload()
        policy = SoarPolicy(profile_windows=5)
        machine = Machine(workload, policy, config=config, ratio="1:1")
        assert not workload.done
        result = machine.run()
        assert workload.done
        assert result.windows == workload.total_misses // workload.misses_per_window
