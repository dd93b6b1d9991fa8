"""Window sources: every source must run a window bit-identically.

Each :class:`~repro.sim.machine.Machine` takes its windows from one
:mod:`repro.hw.drawplan` source, chosen at attach: the whole-run static
split or the live split, hinted by the trace under replay.  Every
window is solved live, whatever its source.  These tests assert that
the static split equals the per-window reference split, that attach
picks the expected source, that a static replay solves every window,
and that full machine runs on each source equal the same workload run
live.
"""

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.hw import drawplan
from repro.hw.chmu import ChmuSampler
from repro.hw.drawplan import DynamicSource, StaticSource
from repro.hw.stall import StallModel
from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream

from oracles import (
    assert_same_shares,
    batch_columns,
    make_batch,
    reference_split,
    window_groups,
)


def recorded(total_misses=600_000, seed=7, name="gups"):
    return record_stream(
        make_workload(name, total_misses=total_misses, seed=seed), max_windows=512
    )


def static_placement_for(data, num_tiers=2, seed=0):
    """A frozen pseudo-random placement covering every recorded page."""
    footprint = int(np.asarray(data.columns["pages"]).max()) + 1
    return np.random.default_rng(seed).integers(
        0, num_tiers, size=footprint, dtype=np.int64
    )


class TestStaticSplit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_live_split_on_every_window(self, seed):
        data = recorded(total_misses=400_000, seed=seed)
        placement = static_placement_for(data, seed=seed)
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        assert len(batches) == data.num_windows
        model = StallModel([DRAM_SPEC, CXL_SPEC])
        replay = ReplayWorkload(data)
        for w in range(data.num_windows):
            traffic = replay.next_window()
            if not traffic.num_groups:
                assert batches[w] is None
                continue
            plan = batch_columns(batches[w])
            assert_same_shares(plan, batch_columns(model.split_groups(traffic, placement)))
            reference = reference_split(window_groups(traffic), placement)
            assert_same_shares(plan, batch_columns(make_batch(reference)))

    def test_empty_window_entries_are_none(self):
        data = recorded(total_misses=200_000)
        placement = static_placement_for(data)
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        wgp = np.asarray(data.columns["window_group_ptr"])
        for w in range(data.num_windows):
            assert (batches[w] is None) == (wgp[w + 1] == wgp[w])


class TestSamplerPlans:
    def test_chmu_plan_matches_live_epochs(self):
        # A static CHMU run samples the replayed trace's entries (memmap
        # slices) under its frozen placement; every epoch it drains must
        # equal the one drained from the live workload's windows.
        data = recorded(total_misses=400_000, seed=13)
        placement = static_placement_for(data, seed=13)
        footprint = placement.size
        replay = ReplayWorkload(data)
        live_workload = make_workload("gups", total_misses=400_000, seed=13)
        planned = ChmuSampler(footprint_pages=footprint, epoch_windows=2)
        live = ChmuSampler(footprint_pages=footprint, epoch_windows=2)
        drained = 0
        for _ in range(data.num_windows):
            replayed, traffic = replay.next_window(), live_workload.next_window()
            if not traffic.num_groups:
                assert not replayed.num_groups
                continue
            pages, live_pages = replayed.pages, traffic.pages
            got = planned.sample(pages, replayed.counts, placement[pages])
            want = live.sample(live_pages, traffic.counts, placement[live_pages])
            np.testing.assert_array_equal(got.pages, want.pages)
            np.testing.assert_array_equal(got.counts, want.counts)
            assert got.overhead_cycles == want.overhead_cycles
            drained += got.total_records > 0
        assert drained > 0


class StaticChmuPolicy(NoTierPolicy):
    """Static policy observed through the CHMU sampler."""

    name = "StaticChmu"
    needs_pebs = True
    access_sampler = "chmu"


def run_once(policy, workload, ratio="1:2", seed=0):
    machine = Machine(
        workload=workload,
        policy=policy,
        config=MachineConfig(),
        ratio=ratio,
        seed=seed,
    )
    return machine.run(), machine


class TestMachineBitIdentity:
    @pytest.mark.parametrize(
        "policy_name", ["NoTier", "CXL", "PACT", "Memtis", "Soar"]
    )
    def test_plan_on_off_and_live_agree(self, policy_name):
        # Replayed: the static or trace-hinted source.  Live: the
        # unhinted dynamic source.
        data = recorded(total_misses=500_000, seed=3)
        live_result, bare = run_once(
            make_policy(policy_name),
            make_workload("gups", total_misses=500_000, seed=3),
        )
        planned, machine = run_once(make_policy(policy_name), ReplayWorkload(data))
        assert isinstance(bare._source, DynamicSource) and not bare._source
        assert planned.runtime_cycles == live_result.runtime_cycles
        assert planned.promoted == live_result.promoted
        static = getattr(machine.policy, "static_placement", False)
        assert isinstance(machine._source, StaticSource if static else DynamicSource)
        assert machine._source

    def test_chmu_policy_engages_sample_plan(self):
        # A static CHMU policy engages the static source, its CHMU
        # sampling its tier's entries window by window; the run equals
        # the same workload run live.
        data = recorded(total_misses=400_000, seed=9)
        planned, machine = run_once(StaticChmuPolicy(), ReplayWorkload(data))
        assert isinstance(machine._source, StaticSource)
        live, _ = run_once(
            StaticChmuPolicy(), make_workload("gups", total_misses=400_000, seed=9)
        )
        assert planned.runtime_cycles == live.runtime_cycles


class TestLiveSolve:
    def test_static_replay_solves_every_window_live(self, monkeypatch):
        # A static replay's windows come pre-split, but each one is
        # solved in the loop: one solve per window that carried traffic.
        data = recorded(total_misses=300_000)
        calls = []
        live_solve = StallModel.solve

        def counting_solve(self, *args, **kwargs):
            calls.append(1)
            return live_solve(self, *args, **kwargs)

        monkeypatch.setattr(StallModel, "solve", counting_solve)
        result, machine = run_once(make_policy("NoTier"), ReplayWorkload(data))
        assert isinstance(machine._source, StaticSource)
        assert result.windows > 0
        assert len(calls) == result.windows - result.empty_windows


class TestTouchSkip:
    """Page activity feeds only reclaim, which a static run never issues,
    so static runs skip the per-window touch."""

    def test_static_no_activity_policy_skips_touch(self):
        data = recorded(total_misses=300_000)
        result, machine = run_once(make_policy("NoTier"), ReplayWorkload(data))
        assert not machine.memory.activity.any()
        assert result.runtime_cycles > 0.0

    @pytest.mark.parametrize("policy_name", ["CXL", "Soar"])
    def test_every_static_policy_skips_touch(self, policy_name):
        data = recorded(total_misses=300_000)
        result, machine = run_once(make_policy(policy_name), ReplayWorkload(data))
        assert machine.policy.static_placement
        assert not machine.memory.activity.any()
        assert result.runtime_cycles > 0.0

    def test_dynamic_policy_keeps_touch(self):
        data = recorded(total_misses=300_000)
        _, machine = run_once(make_policy("PACT"), ReplayWorkload(data))
        assert float(machine.memory.activity.sum()) > 0.0


class TestAttachGating:
    def test_live_workload_gets_no_plans(self):
        _, machine = run_once(
            make_policy("NoTier"), make_workload("gups", total_misses=200_000)
        )
        assert isinstance(machine._source, DynamicSource)
        assert machine._source.meta is None and not machine._source

    def test_dynamic_policy_gets_entry_meta_only(self):
        data = recorded(total_misses=200_000)
        machine = Machine(
            workload=ReplayWorkload(data),
            policy=make_policy("PACT"),
            config=MachineConfig(),
            ratio="1:2",
            seed=0,
        )
        assert isinstance(machine._source, DynamicSource)
        assert machine._source.meta is drawplan.entry_meta_for(data, machine.num_tiers)

    def test_static_migration_guard_trips(self):
        data = recorded(total_misses=200_000)

        from repro.sim.policy_api import Decision

        class LyingPolicy(NoTierPolicy):
            name = "Lying"
            static_placement = True

            def observe(self, obs):  # noqa: ARG002
                # First-touch pages land in the fast tier; demoting them
                # is a real migration a static policy must never issue.
                return Decision(demote=np.arange(4, dtype=np.int64))

        with pytest.raises(RuntimeError, match="static_placement"):
            run_once(LyingPolicy(), ReplayWorkload(data))
