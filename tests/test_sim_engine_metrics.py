"""Runner helpers, baseline caching, and the slowdown metric."""

import pytest

from repro.exp.service import RequestExecutionError
from repro.exp.spec import RunRequest, WorkloadSpec
from repro.mem.page import Tier
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.engine import (
    clear_baseline_cache,
    ideal_baseline,
    run_policy,
    slow_only_run,
)
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult, improvement, result_to_dict
from repro.sim.policy_api import NoTierPolicy, SlowOnlyPolicy
from repro.workloads import make_workload
from repro.workloads.gups import DEFAULT_PHASE_WINDOWS, Gups
from repro.workloads.mlc import MlcContender

from conftest import TinyWorkload


def make_result(runtime, promoted=0):
    return RunResult(
        workload="w",
        policy="p",
        ratio="1:1",
        runtime_cycles=runtime,
        windows=10,
        promoted=promoted,
        demoted=promoted,
        migration_cost_cycles=0.0,
        total_stall_cycles=0.0,
        total_misses=0.0,
        tier_misses={},
    )


class TestMetrics:
    def test_slowdown(self):
        assert make_result(150.0).slowdown(make_result(100.0)) == pytest.approx(0.5)

    def test_slowdown_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            make_result(100.0).slowdown(make_result(0.0))

    def test_improvement_from_slowdowns(self):
        # Self at 20% slowdown vs other at 50%: (1.5/1.2) - 1 = 25%.
        assert improvement(0.2, 0.5) == pytest.approx(0.25)

    def test_improvement_negative_when_worse(self):
        assert improvement(0.5, 0.2) < 0

    def test_runtime_ms(self):
        assert make_result(2.2e6).runtime_ms == pytest.approx(1.0)


class TestRunner:
    def test_ideal_baseline_has_no_slow_traffic(self, config):
        clear_baseline_cache()
        workload = TinyWorkload()
        base = ideal_baseline(workload, config=config)
        assert base.tier_misses[Tier.SLOW] == 0.0
        assert base.tier_misses[Tier.FAST] > 0.0

    def test_slow_only_run_slower_than_ideal(self, config):
        clear_baseline_cache()
        workload = TinyWorkload()
        base = ideal_baseline(workload, config=config)
        slow = slow_only_run(workload, config=config)
        assert slow.slowdown(base) > 0.1

    def test_baseline_cached(self, config):
        clear_baseline_cache()
        workload = TinyWorkload()
        a = ideal_baseline(workload, config=config)
        b = ideal_baseline(workload, config=config)
        assert a is b

    def test_cache_key_distinguishes_configs(self, config):
        clear_baseline_cache()
        workload = TinyWorkload()
        a = ideal_baseline(workload, config=config)
        b = ideal_baseline(workload, config=config.with_(counter_noise=0.02))
        assert a is not b

    def test_run_policy_end_to_end(self, config):
        clear_baseline_cache()
        workload = TinyWorkload()
        base = ideal_baseline(workload, config=config)
        result = run_policy(workload, NoTierPolicy(), ratio="1:1", config=config)
        assert 0.0 < result.slowdown(base) < 2.0
        assert result.policy == "NoTier"
        assert result.ratio == "1:1"


def _gups():
    return make_workload("gups", total_misses=1_000_000)


#: name -> (workload factory, config, contender)
REFERENCE_CASES = {
    "tiny": (TinyWorkload, MachineConfig(), None),
    "gups": (_gups, MachineConfig(), None),
    "gups-mlc": (_gups, MachineConfig(), MlcContender(threads=4, tier=Tier.SLOW)),
    "gups-3tier": (_gups, MachineConfig(topology=make_topology("dram-cxlz-nvme")), None),
}


class TestReferenceRuns:
    """The reference helpers are one-request runs through the campaign
    driver: they replay, and still equal a hand-built live machine."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize(
        "helper, policy, ideal",
        [(ideal_baseline, NoTierPolicy, True), (slow_only_run, SlowOnlyPolicy, False)],
    )
    def test_helper_equals_live_machine(self, case, helper, policy, ideal):
        build, config, contender = REFERENCE_CASES[case]
        got = helper(build(), config=config, contender=contender, use_cache=False)
        workload = build()
        live = Machine(
            workload, policy(), config=config, contender=contender,
            fast_capacity_override=workload.footprint_pages if ideal else 0,
        ).run()
        assert result_to_dict(got) == result_to_dict(live)

    def test_workload_knobs_are_part_of_the_identity(self, config, isolated_stores):
        # Two Gups that differ only in phase_windows run different streams,
        # so neither may be served the other's recording or result.
        for phase_windows in (1, 100):
            got = ideal_baseline(
                Gups(phase_windows=phase_windows, total_misses=2_000_000),
                config=config, use_cache=False,
            )
            workload = Gups(phase_windows=phase_windows, total_misses=2_000_000)
            live = Machine(
                workload, NoTierPolicy(), config=config,
                fast_capacity_override=workload.footprint_pages,
            ).run()
            assert result_to_dict(got) == result_to_dict(live)

    def test_knobs_at_their_defaults_keep_the_key(self):
        def key(**kwargs):
            return RunRequest.ideal(WorkloadSpec.registry("gups", **kwargs)).key

        assert key(phase_windows=DEFAULT_PHASE_WINDOWS) == key()
        assert key(phase_windows=1) != key()
        # Every knob is keyed, defaults included.
        assert TinyWorkload(chase_mlp=16.0).knobs() == {"chase_mlp": 16.0, "stream_mlp": 16.0}
        assert TinyWorkload().knobs() == {"chase_mlp": 2.0, "stream_mlp": 16.0}

    def test_clear_drops_recordings(self, config, isolated_stores):
        _, trace_store = isolated_stores
        ideal_baseline(TinyWorkload(), config=config)
        assert trace_store.records == 1
        clear_baseline_cache()
        ideal_baseline(TinyWorkload(), config=config)
        assert trace_store.records == 2

    def test_failure_names_the_request(self, config):
        # The machine has tiers 0..1: a tier-5 contender fails to build.
        with pytest.raises(RequestExecutionError) as excinfo:
            ideal_baseline(
                TinyWorkload(), config=config,
                contender=MlcContender(threads=2, tier=5), use_cache=False,
            )
        message = str(excinfo.value)
        assert "request tiny/ideal@1:1 seed=0 failed" in message
        assert "ValueError: contender pinned to tier 5" in message
