"""Whole-run plans: plan-fed paths must be bit-identical to live.

Every optimisation in :mod:`repro.hw.drawplan` claims *exact* result
preservation -- the same float summation order, the same share rows.
These tests assert that claim directly: the whole-run static split
against the per-window splitter, the CHMU sample plan and the solve
plan against live sampling and solving, and finally full machine runs
with plans on, plans off, and no replay at all.
"""

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.hw import drawplan
from repro.hw.chmu import ChmuSampler
from repro.hw.stall import StallModel
from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream


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


def assert_batches_equal(plan_batch, live_batch):
    assert plan_batch.n == live_batch.n
    np.testing.assert_array_equal(plan_batch.group_index, live_batch.group_index)
    np.testing.assert_array_equal(plan_batch.tier_codes, live_batch.tier_codes)
    np.testing.assert_array_equal(plan_batch.mlp, live_batch.mlp)
    np.testing.assert_array_equal(plan_batch.load_fraction, live_batch.load_fraction)
    np.testing.assert_array_equal(plan_batch.misses, live_batch.misses)
    assert plan_batch.labels == live_batch.labels
    for i in range(plan_batch.n):
        np.testing.assert_array_equal(plan_batch.pages_of(i), live_batch.pages_of(i))
        np.testing.assert_array_equal(plan_batch.counts_of(i), live_batch.counts_of(i))


class TestStaticSplit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_live_split_on_every_window(self, seed):
        data = recorded(total_misses=400_000, seed=seed)
        placement = static_placement_for(data, seed=seed)
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        assert len(batches) == data.num_windows
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        replay = ReplayWorkload(data)
        for w in range(data.num_windows):
            traffic = replay.next_window()
            if not traffic.groups:
                assert batches[w] is None
                continue
            live = model.split_groups(traffic.groups, placement)
            assert_batches_equal(batches[w], live)

    def test_empty_window_entries_are_none(self):
        data = recorded(total_misses=200_000)
        placement = static_placement_for(data)
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        wgp = np.asarray(data.columns["window_group_ptr"])
        for w in range(data.num_windows):
            assert (batches[w] is None) == (wgp[w + 1] == wgp[w])


class TestSamplerPlans:
    def test_chmu_plan_matches_live_epochs(self):
        data = recorded(total_misses=400_000, seed=13)
        placement = static_placement_for(data, seed=13)
        footprint = placement.size
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        plan_sampler = ChmuSampler(footprint_pages=footprint, epoch_windows=2)
        plan = drawplan.plan_chmu_batches(plan_sampler, batches)
        live = ChmuSampler(footprint_pages=footprint, epoch_windows=2)
        for w, batch in enumerate(batches):
            if batch is None:
                continue
            live_batch = live.sample(batch)
            planned = plan.batch_for(w)
            np.testing.assert_array_equal(planned.pages, live_batch.pages)
            np.testing.assert_array_equal(planned.counts, live_batch.counts)


class StaticChmuPolicy(NoTierPolicy):
    """Static policy observed through the CHMU sampler (plan coverage)."""

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
    def test_plan_on_off_and_live_agree(self, policy_name, monkeypatch):
        data = recorded(total_misses=500_000, seed=3)
        live_result, _ = run_once(
            make_policy(policy_name),
            make_workload("gups", total_misses=500_000, seed=3),
        )
        planned, machine = run_once(make_policy(policy_name), ReplayWorkload(data))
        monkeypatch.setenv(drawplan.ENV_DISABLE, "1")
        unplanned, bare = run_once(make_policy(policy_name), ReplayWorkload(data))
        assert bare._split_plan is None and bare._pebs_plan is None
        assert planned.runtime_cycles == unplanned.runtime_cycles
        assert planned.runtime_cycles == live_result.runtime_cycles
        if getattr(machine.policy, "static_placement", False):
            assert machine._split_plan is not None

    def test_chmu_policy_engages_sample_plan(self, monkeypatch):
        data = recorded(total_misses=400_000, seed=9)
        planned, machine = run_once(StaticChmuPolicy(), ReplayWorkload(data))
        assert machine._pebs_plan is not None
        monkeypatch.setenv(drawplan.ENV_DISABLE, "1")
        unplanned, _ = run_once(StaticChmuPolicy(), ReplayWorkload(data))
        assert planned.runtime_cycles == unplanned.runtime_cycles


class TestSolvePlan:
    def test_plan_outcomes_match_live_solves(self):
        data = recorded(total_misses=400_000, seed=17)
        placement = static_placement_for(data, seed=17)
        batches = drawplan.build_static_batches(data, placement, num_tiers=2)
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        plan = drawplan.plan_window_solves(
            model, batches, data.columns["window_compute"]
        )
        compute = np.asarray(data.columns["window_compute"])
        live_model = StallModel(DRAM_SPEC, CXL_SPEC)
        for w, batch in enumerate(batches):
            if batch is None:
                continue
            live = live_model.solve(batch, float(compute[w]))
            planned = plan.outcome_for(w)
            assert planned.duration_cycles == live.duration_cycles
            assert planned.compute_cycles == live.compute_cycles
            for tier in planned.tier_loads:
                assert (
                    planned.tier_loads[tier].stall_cycles
                    == live.tier_loads[tier].stall_cycles
                )

    def test_static_no_pebs_replay_engages_solve_plan(self):
        data = recorded(total_misses=300_000)
        _, machine = run_once(make_policy("NoTier"), ReplayWorkload(data))
        assert machine._solve_plan is not None

    def test_observability_keeps_live_solves(self):
        data = recorded(total_misses=300_000)
        machine = Machine(
            workload=ReplayWorkload(data),
            policy=make_policy("NoTier"),
            config=MachineConfig(),
            ratio="1:2",
            seed=0,
            trace=True,
        )
        assert machine._solve_plan is None

    def test_pebs_policy_keeps_live_solves(self):
        data = recorded(total_misses=300_000)
        _, machine = run_once(StaticChmuPolicy(), ReplayWorkload(data))
        assert machine._solve_plan is None


class TestTouchSkip:
    def test_static_no_activity_policy_skips_touch(self):
        data = recorded(total_misses=300_000)
        result, machine = run_once(make_policy("NoTier"), ReplayWorkload(data))
        assert machine._skip_touch
        # Nothing reads the activity state, and indeed none accrued.
        assert float(machine.memory.activity.sum()) == 0.0
        assert result.runtime_cycles > 0.0

    def test_dynamic_policy_keeps_touch(self):
        data = recorded(total_misses=300_000)
        _, machine = run_once(make_policy("PACT"), ReplayWorkload(data))
        assert not machine._skip_touch
        assert float(machine.memory.activity.sum()) > 0.0


class TestAttachGating:
    def test_live_workload_gets_no_plans(self):
        _, machine = run_once(
            make_policy("NoTier"), make_workload("gups", total_misses=200_000)
        )
        assert machine._split_plan is None
        assert machine._pebs_plan is None

    def test_looping_replay_gets_no_plans(self):
        data = recorded(total_misses=200_000)
        _, machine = run_once(make_policy("NoTier"), ReplayWorkload(data, loop=True))
        assert machine._split_plan is None

    def test_dynamic_policy_gets_entry_meta_only(self):
        data = recorded(total_misses=200_000)
        machine = Machine(
            workload=ReplayWorkload(data),
            policy=make_policy("PACT"),
            config=MachineConfig(),
            ratio="1:2",
            seed=0,
        )
        assert machine._split_plan is None and machine._pebs_plan is None
        assert machine._entry_meta is not None

    def test_env_switch_disables_everything(self, monkeypatch):
        monkeypatch.setenv(drawplan.ENV_DISABLE, "1")
        data = recorded(total_misses=200_000)
        for name in ("NoTier", "PACT"):
            _, machine = run_once(make_policy(name), ReplayWorkload(data))
            assert machine._split_plan is None and machine._entry_meta is None

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
