"""Multi-run lockstep simulation and run-axis request grouping.

The multi-run path is purely an execution strategy: R seeds/ratios of
one (workload, policy) stepped in lockstep with batched stall solves
must be **bit-identical** to running each machine alone, and the
grouping in the experiment layer must be invisible to callers -- same
results, same cache entries, same failure isolation.
"""

from __future__ import annotations

import pytest

from repro.baselines import make_policy
from repro.exp import runner
from repro.exp.cache import (
    ResultStore,
    reset_default_store,
    result_to_dict,
    set_default_store,
)
from repro.exp.runner import (
    execute_request,
    execute_request_group,
    group_requests,
    run_requests,
)
from repro.exp.service import CampaignDriver
from repro.exp.spec import ExperimentSpec, PolicySpec, RunRequest, WorkloadSpec
from repro.hw.drawplan import StaticSource
from repro.hw.stall import StallModel
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.runbatch import MultiMachine
from repro.workloads import make_workload, tracestore
from repro.workloads.tracestore import ReplayWorkload, record_stream

from conftest import TinyWorkload

SEEDS = (0, 1, 2)
RATIOS = ("1:2", "1:4")


def tiny_factory():
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000)


def tiny_spec() -> WorkloadSpec:
    return WorkloadSpec.from_factory(tiny_factory, label="tiny")


def multi_grid(policies=("PACT", "NoTier")) -> ExperimentSpec:
    return ExperimentSpec(
        workloads=[tiny_spec()],
        policies=[PolicySpec(p) for p in policies],
        ratios=RATIOS,
        seeds=SEEDS,
    )


@pytest.fixture
def isolated_stores():
    store = set_default_store(ResultStore())
    trace_store = tracestore.set_default_trace_store(tracestore.TraceStore())
    yield store, trace_store
    reset_default_store()
    tracestore.reset_default_trace_store()


def build_machine(data, policy_name, ratio, seed):
    return Machine(
        workload=ReplayWorkload(data),
        policy=make_policy(policy_name),
        config=MachineConfig(),
        ratio=ratio,
        seed=seed,
    )


#: Traces the lockstep test replays: gups (3 windows) and bc-kron at
#: 6M misses (24 windows), each as ``make_workload`` keyword arguments.
LOCKSTEP_TRACES = {
    "gups": {"total_misses": 600_000, "seed": 4},
    "bc-kron": {"total_misses": 6_000_000},
}


class TestMultiMachine:
    @pytest.mark.parametrize(
        "workload,policy_name",
        [
            pytest.param(w, p, id=p if w == "gups" else f"{w}-{p}")
            for w in LOCKSTEP_TRACES
            for p in ("PACT", "Memtis", "NoTier")
        ],
    )
    def test_lockstep_matches_serial_bit_exactly(self, workload, policy_name):
        # Lockstep replay == serial replay == serial live generation,
        # member by member.
        params = LOCKSTEP_TRACES[workload]
        data = record_stream(make_workload(workload, **params), max_windows=512)
        grid = [(s, r) for s in SEEDS for r in RATIOS]
        serial = [build_machine(data, policy_name, r, s).run() for s, r in grid]
        multi = MultiMachine(
            [build_machine(data, policy_name, r, s) for s, r in grid]
        ).run()
        live = [
            Machine(
                workload=make_workload(workload, **params),
                policy=make_policy(policy_name),
                config=MachineConfig(),
                ratio=r,
                seed=s,
            ).run()
            for s, r in grid
        ]
        assert len(multi) == len(serial) == len(live)
        for lock, solo, gen in zip(multi, serial, live):
            assert result_to_dict(lock) == result_to_dict(solo) == result_to_dict(gen)

    def test_every_member_joins_the_batched_solve(self, monkeypatch):
        # Static (NoTier: pre-split windows) and dynamic (PACT) members
        # alike solve each window in the group's one solve_many call.
        data = record_stream(
            make_workload("gups", total_misses=600_000, seed=4), max_windows=512
        )
        grid = [("NoTier", s, r) for s in SEEDS for r in RATIOS] + [
            ("PACT", s, "1:4") for s in SEEDS[:2]
        ]
        serial = [build_machine(data, p, r, s).run() for p, s, r in grid]
        machines = [build_machine(data, p, r, s) for p, s, r in grid]
        assert [isinstance(m._source, StaticSource) for m in machines] == [
            p == "NoTier" for p, _, _ in grid
        ]
        batch_sizes = []
        solve_many = StallModel.solve_many

        def spy(model, batches, *args):
            batch_sizes.append(len(batches))
            return solve_many(model, batches, *args)

        monkeypatch.setattr(StallModel, "solve_many", spy)
        multi = MultiMachine(machines).run()
        assert batch_sizes and set(batch_sizes) == {len(grid)}
        for lock, solo in zip(multi, serial):
            assert result_to_dict(lock) == result_to_dict(solo)

    def test_rejects_live_workloads(self):
        machines = [
            Machine(
                workload=make_workload("gups", total_misses=200_000),
                policy=make_policy("NoTier"),
                config=MachineConfig(),
                ratio="1:2",
                seed=s,
            )
            for s in (0, 1)
        ]
        with pytest.raises(ValueError, match="replay"):
            MultiMachine(machines)

    def test_rejects_mismatched_traces(self):
        data_a = record_stream(
            make_workload("gups", total_misses=200_000, seed=0), max_windows=512
        )
        data_b = record_stream(
            make_workload("gups", total_misses=200_000, seed=1), max_windows=512
        )
        with pytest.raises(ValueError, match="same recorded trace"):
            MultiMachine(
                [
                    build_machine(data_a, "NoTier", "1:2", 0),
                    build_machine(data_b, "NoTier", "1:2", 0),
                ]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiMachine([])


class TestGrouping:
    def test_seed_ratio_grid_collapses_per_policy(self, isolated_stores):
        requests = [r for r in multi_grid().expand() if r.kind == "policy"]
        units = group_requests(requests)
        groups = [u for u in units if isinstance(u, list)]
        assert len(groups) == 2  # one per policy
        for group in groups:
            assert len(group) == len(SEEDS) * len(RATIOS)
            assert len({r.policy.name for r in group}) == 1
        # Member order within each group follows request order.
        flat = [r.key for g in groups for r in g]
        in_order = [r.key for r in requests if r.key in set(flat)]
        assert sorted(flat) == sorted(in_order)

    def test_units_follow_the_stream_they_replay(self, isolated_stores):
        # A grid over two workloads lists both workloads' reference runs
        # first; the units keep each stream's runs together, streams and
        # units within a stream in order of first appearance.
        other = WorkloadSpec.from_factory(
            lambda: TinyWorkload(total_misses=90_000, misses_per_window=30_000), label="other"
        )
        spec = ExperimentSpec(
            workloads=[tiny_spec(), other],
            policies=[PolicySpec("PACT"), PolicySpec("NoTier")],
            ratios=RATIOS,
            seeds=SEEDS,
        )
        requests = spec.expand()
        units = group_requests(requests)
        firsts = [u[0] if isinstance(u, list) else u for u in units]
        labels = [r.workload.display for r in firsts]
        assert labels == sorted(labels, key=["tiny", "other"].index)
        for label in ("tiny", "other"):
            mine = [r.key for r in requests if r.workload.display == label]
            got = [r.key for r in firsts if r.workload.display == label]
            assert got == [k for k in mine if k in set(got)]
        assert sorted(r.key for r in requests) == sorted(
            r.key for u in units for r in (u if isinstance(u, list) else [u])
        )

    def test_trace_and_obs_requests_stay_single(self, isolated_stores):
        base = dict(workload=tiny_spec(), policy=PolicySpec("PACT"))
        requests = [
            RunRequest(ratio=r, seed=s, trace=True, **base)
            for s in (0, 1)
            for r in RATIOS
        ]
        assert all(not isinstance(u, list) for u in group_requests(requests))

    def test_different_policies_never_share_a_group(self, isolated_stores):
        requests = [r for r in multi_grid().expand() if r.kind == "policy"]
        for unit in group_requests(requests):
            if isinstance(unit, list):
                assert len({r.policy.name for r in unit}) == 1


class TestRunRequestsFanout:
    def test_grouped_and_serial_results_identical(self, isolated_stores, monkeypatch):
        spec = multi_grid()
        grouped = run_requests(spec.expand(), use_cache=False)

        # The driver resolves the grouper through the runner module at
        # call time: one-request units run every member on its own.
        seen = []

        def singles(requests):
            seen.extend(requests)
            return list(requests)

        monkeypatch.setattr(runner, "group_requests", singles)
        serial = run_requests(spec.expand(), use_cache=False)
        assert seen, "the driver did not group through runner.group_requests"
        for req in spec.expand():
            assert result_to_dict(grouped[req]) == result_to_dict(serial[req]), (
                req.display
            )

    def test_every_member_lands_in_cache(self, isolated_stores):
        store, _ = isolated_stores
        spec = multi_grid(policies=("PACT",))
        run_requests(spec.expand())
        for req in spec.expand():
            assert store.get(req.key) is not None

    def test_parallel_grouped_matches_serial(self, isolated_stores):
        spec = multi_grid(policies=("PACT",))
        jobs2 = run_requests(spec.expand(), jobs=2, use_cache=False)
        jobs1 = run_requests(spec.expand(), jobs=1, use_cache=False)
        for req in spec.expand():
            assert result_to_dict(jobs2[req]) == result_to_dict(jobs1[req])

    def test_group_falls_back_to_serial_when_lockstep_rejects(
        self, isolated_stores, monkeypatch
    ):
        spec = multi_grid(policies=("PACT",))
        requests = [r for r in spec.expand() if r.kind == "policy"]

        def rejecting_init(self, machines):
            raise ValueError("injected lockstep rejection")

        monkeypatch.setattr(MultiMachine, "__init__", rejecting_init)
        fellback = execute_request_group(requests)
        monkeypatch.undo()
        expected = [execute_request(r) for r in requests]
        for got, want in zip(fellback, expected):
            assert result_to_dict(got) == result_to_dict(want)


class TestCampaignMultiRun:
    def test_campaign_groups_match_serial_run_requests(self, isolated_stores):
        spec = multi_grid()
        with CampaignDriver(jobs=1) as driver:
            campaign = driver.run(spec.expand())
        assert campaign.ok
        serial = run_requests(spec.expand(), use_cache=False)
        for req in spec.expand():
            assert result_to_dict(campaign[req]) == result_to_dict(serial[req]), (
                req.display
            )

    def test_pooled_campaign_matches_serial(self, isolated_stores):
        spec = multi_grid(policies=("PACT",))
        with CampaignDriver(jobs=2) as driver:
            campaign = driver.run(spec.expand())
        assert campaign.ok
        serial = run_requests(spec.expand(), use_cache=False)
        for req in spec.expand():
            assert result_to_dict(campaign[req]) == result_to_dict(serial[req])

    def test_failed_group_requeues_members_as_singles(
        self, isolated_stores, monkeypatch
    ):
        spec = multi_grid(policies=("PACT",))
        original = runner.execute_request_group
        calls = {"n": 0}

        def failing_once(requests):
            calls["n"] += 1
            raise RuntimeError("injected group failure")

        # The serial path resolves the group executor through the runner
        # module at call time; failing it forces the requeue-as-singles
        # recovery (singles go through execute_request, untouched here).
        monkeypatch.setattr(runner, "execute_request_group", failing_once)
        with CampaignDriver(jobs=1) as driver:
            campaign = driver.run(spec.expand())
        monkeypatch.setattr(runner, "execute_request_group", original)
        # The group failure is never final: members re-ran as singles.
        assert calls["n"] == 1
        assert campaign.ok
        assert campaign.stats.retries >= 1
        assert any(not rec.final for rec in campaign.ledger)
        serial = run_requests(spec.expand(), use_cache=False)
        for req in spec.expand():
            assert result_to_dict(campaign[req]) == result_to_dict(serial[req])
