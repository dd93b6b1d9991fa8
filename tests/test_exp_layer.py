"""The experiment layer: specs, content-addressed caching, fan-out.

Covers the contracts the benches and CLI rely on:

* the same declared grid executed twice performs zero simulations the
  second time, even from a *fresh* store instance reading the same
  SQLite database (the cross-process bench scenario);
* parallel execution is bit-identical to serial execution;
* a failing request costs only itself: the rest of the sweep runs and
  is stored before ``RequestExecutionError`` names it;
* any MachineConfig change invalidates cached entries;
* cache keys cover the window budget and the contender's full parameter
  set (regression: the old engine-local key omitted both);
* engine-level baseline helpers and runner-level requests share cache
  entries.
"""

from __future__ import annotations

import pytest

from repro.exp.cache import (
    ResultStore,
    result_from_dict,
    result_to_dict,
    set_default_store,
    reset_default_store,
)
from repro.exp.runner import run_experiment, run_requests
from repro.exp.service import RequestExecutionError, reset_unpicklable_warnings
from repro.exp.spec import ExperimentSpec, PolicySpec, RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.sim.config import MachineConfig
from repro.sim.engine import ideal_baseline, slow_only_run
from repro.sim.machine import Machine
from repro.workloads.mlc import MlcContender

from conftest import TinyWorkload


def tiny_factory():
    """Module-level (hence picklable) fast workload factory."""
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000)


def tiny_spec() -> WorkloadSpec:
    return WorkloadSpec.from_factory(tiny_factory, label="tiny")


def small_grid(config=None) -> ExperimentSpec:
    return ExperimentSpec(
        workloads=[tiny_spec()],
        policies=[PolicySpec("PACT"), PolicySpec("NoTier")],
        ratios=("1:1", "1:2"),
        config=config,
    )


@pytest.fixture
def count_runs(monkeypatch):
    """Count simulated runs in this process (solo and lockstep)."""
    from repro.sim.runbatch import MultiMachine

    calls = []
    original = Machine.run
    original_multi = MultiMachine.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    def counting_multi_run(self, *args, **kwargs):
        # One lockstep execution simulates every member machine once.
        calls.extend(self.machines)
        return original_multi(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    monkeypatch.setattr(MultiMachine, "run", counting_multi_run)
    return calls


@pytest.fixture
def isolated_store():
    """Memory-only default store, restored afterwards."""
    store = set_default_store(ResultStore())
    yield store
    reset_default_store()


class TestCaching:
    def test_second_run_recomputes_nothing(self, tmp_path, count_runs):
        spec = small_grid()
        try:
            first_store = set_default_store(SqliteResultStore(tmp_path / "cache"))
            first = run_experiment(spec)
            n_unique = len({r.key for r in spec.expand()})
            assert len(count_runs) == n_unique
            assert first_store.puts == n_unique

            # Fresh store over the same directory: what a second bench
            # process sees.  Zero new simulations.
            second_store = set_default_store(SqliteResultStore(tmp_path / "cache"))
            count_runs.clear()
            second = run_experiment(spec)
            assert len(count_runs) == 0
            assert second_store.disk_hits == n_unique
            assert second_store.misses == 0
        finally:
            reset_default_store()

        for req in spec.expand():
            assert result_to_dict(first[req]) == result_to_dict(second[req])

    def test_duplicate_requests_deduped_by_key(self, isolated_store, count_runs):
        # expand() emits baselines once per (workload, seed, contender);
        # duplicates arriving through composed request lists (as the
        # benches build) must still execute exactly once.
        requests = small_grid().expand() + [
            RunRequest.ideal(tiny_spec()),
            RunRequest.slow_only(tiny_spec()),
        ]
        assert len(requests) > len({r.key for r in requests})
        run_requests(requests)
        assert len(count_runs) == len({r.key for r in requests})

    def test_config_change_invalidates(self, isolated_store, count_runs):
        run_experiment(small_grid())
        baseline_calls = len(count_runs)
        count_runs.clear()

        # Identical grid, same store: fully served from memory.
        run_experiment(small_grid())
        assert len(count_runs) == 0

        # Any config delta must recompute everything.
        run_experiment(small_grid(config=MachineConfig().with_(pebs_rate=800)))
        assert len(count_runs) == baseline_calls

    def test_no_cache_bypasses_store(self, isolated_store, count_runs):
        spec = small_grid()
        run_experiment(spec, use_cache=False)
        calls = len(count_runs)
        assert isolated_store.puts == 0
        count_runs.clear()
        run_experiment(spec, use_cache=False)
        assert len(count_runs) == calls

    def test_result_roundtrips_through_json(self, isolated_store):
        req = RunRequest(
            workload=tiny_spec(), policy=PolicySpec("PACT"), ratio="1:2", trace=True
        )
        result = run_requests([req])[req]
        restored = result_from_dict(result_to_dict(result))
        assert result_to_dict(restored) == result_to_dict(result)
        assert restored.trace is not None
        assert len(restored.trace) == len(result.trace)
        assert restored.tier_misses == result.tier_misses


class TestKeyCompleteness:
    def test_max_windows_in_key(self):
        a = RunRequest.ideal(tiny_spec())
        b = RunRequest.ideal(tiny_spec(), max_windows=3)
        assert a.key != b.key

    def test_contender_bandwidth_in_key(self):
        a = RunRequest.ideal(tiny_spec(), contender=MlcContender(threads=2))
        b = RunRequest.ideal(
            tiny_spec(), contender=MlcContender(threads=2, gbps_per_thread=16.0)
        )
        assert a.key != b.key

    def test_trace_kind_ratio_in_key(self):
        base = RunRequest(workload=tiny_spec(), policy=PolicySpec("PACT"))
        traced = RunRequest(workload=tiny_spec(), policy=PolicySpec("PACT"), trace=True)
        other_ratio = RunRequest(
            workload=tiny_spec(), policy=PolicySpec("PACT"), ratio="1:2"
        )
        assert len({base.key, traced.key, other_ratio.key}) == 3
        assert RunRequest.ideal(tiny_spec()).key != RunRequest.slow_only(tiny_spec()).key

    def test_policy_kwargs_in_key(self):
        a = RunRequest(workload=tiny_spec(), policy=PolicySpec("PACT"))
        b = RunRequest(
            workload=tiny_spec(), policy=PolicySpec("PACT", {"period_windows": 5})
        )
        assert a.key != b.key

    def test_baseline_shared_across_ratios_by_design(self):
        # The reference runs override capacity, so ratio must NOT key them.
        a = RunRequest.ideal(tiny_spec())
        b = RunRequest.ideal(tiny_spec())
        b.ratio = "1:8"
        assert a.key == b.key


class TestEngineInterop:
    def test_engine_baseline_serves_runner_request(self, isolated_store, count_runs):
        ideal_baseline(tiny_factory())
        slow_only_run(tiny_factory())
        engine_calls = len(count_runs)
        assert engine_calls == 2
        count_runs.clear()

        exp = run_requests(
            [RunRequest.ideal(tiny_spec()), RunRequest.slow_only(tiny_spec())]
        )
        assert len(count_runs) == 0  # both served from the engine's entries
        assert exp.baseline("tiny").runtime_cycles > 0

    def test_runner_request_serves_engine_baseline(self, isolated_store, count_runs):
        run_requests([RunRequest.ideal(tiny_spec())])
        count_runs.clear()
        ideal_baseline(tiny_factory())
        assert len(count_runs) == 0


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path):
        spec = small_grid()
        try:
            set_default_store(ResultStore())
            serial = run_experiment(spec, jobs=1, use_cache=False)
            set_default_store(ResultStore())
            parallel = run_experiment(spec, jobs=2, use_cache=False)
        finally:
            reset_default_store()
        for req in spec.expand():
            assert result_to_dict(serial[req]) == result_to_dict(parallel[req]), req.display

    def test_parallel_fills_shared_disk_cache(self, tmp_path):
        spec = small_grid()
        try:
            store = set_default_store(SqliteResultStore(tmp_path / "cache"))
            run_experiment(spec, jobs=2)
            n_unique = len({r.key for r in spec.expand()})
            assert store.puts == n_unique
            # A later serial run over the same directory is all hits.
            second = set_default_store(SqliteResultStore(tmp_path / "cache"))
            run_experiment(spec, jobs=1)
            assert second.misses == 0
        finally:
            reset_default_store()


class TestFindSemantics:
    def test_find_raises_on_missing_and_ambiguous(self, isolated_store):
        spec = ExperimentSpec(
            workloads=[tiny_spec()],
            policies=[PolicySpec("NoTier")],
            ratios=("1:1", "1:2"),
        )
        exp = run_experiment(spec)
        with pytest.raises(KeyError):
            exp.find(workload="tiny", policy="PACT", ratio="1:1")
        with pytest.raises(KeyError):
            exp.find(workload="tiny", policy="NoTier")  # two ratios match
        one = exp.find(workload="tiny", policy="NoTier", ratio="1:2")
        assert one.ratio == "1:2"


class DoomedWorkload(TinyWorkload):
    """Builds (so it fingerprints) but fails once simulation starts."""

    def _emit(self, budget, rng):
        raise ValueError("boom in run")


def doomed_factory():
    """Module-level (hence picklable) factory of a failing workload."""
    return DoomedWorkload(total_misses=60_000, misses_per_window=30_000)


def fake_result(**overrides):
    from repro.sim.metrics import RunResult

    base = dict(
        workload="w", policy="p", ratio="1:1", runtime_cycles=10.0, windows=2,
        promoted=1, demoted=0, migration_cost_cycles=1.0, total_stall_cycles=2.0,
        total_misses=100.0, tier_misses={},
    )
    base.update(overrides)
    return RunResult(**base)


class TestCacheFailurePaths:
    """Corrupt, partial, and stale stored rows are misses, not crashes.

    Each bad row is also deleted on detection, so it is parsed once
    rather than on every lookup for the rest of the campaign.
    """

    @staticmethod
    def _store_with_row(tmp_path, key, blob, version=None):
        from repro.exp.cache import CACHE_VERSION

        store = SqliteResultStore(tmp_path)
        store._conn.execute(
            "INSERT INTO results (key, version, fingerprint, result) VALUES (?, ?, ?, ?)",
            (key, CACHE_VERSION if version is None else version, None, blob),
        )
        store._conn.commit()
        return store

    def test_result_missing_keys_is_miss_and_deleted(self, tmp_path):
        import json

        store = self._store_with_row(tmp_path, "deadbeef", json.dumps({"workload": "w"}))
        assert store.get("deadbeef") is None  # a miss, not a KeyError
        assert store.count() == 0

    def test_stale_version_row_is_miss_and_deleted(self, tmp_path):
        import json

        from repro.exp.cache import CACHE_VERSION, result_to_dict

        store = self._store_with_row(
            tmp_path, "cafe", json.dumps(result_to_dict(fake_result())),
            version=CACHE_VERSION - 1,
        )
        assert store.get("cafe") is None
        assert store.count() == 0

    def test_corrupt_json_is_miss_and_deleted(self, tmp_path):
        store = self._store_with_row(tmp_path, "f00d", '{"workload": "w", "pol')  # torn
        assert store.get("f00d") is None
        assert store.count() == 0

    def test_result_of_wrong_shape_is_miss_and_deleted(self, tmp_path):
        store = self._store_with_row(tmp_path, "0ddb", "[1, 2, 3]")
        assert store.get("0ddb") is None
        assert store.count() == 0

    def test_unserialisable_put_surfaces_and_leaves_no_row(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        bad = fake_result(workload_metrics={"x": object()})
        with pytest.raises(TypeError):
            store.put("bad", bad)
        assert store.count() == 0
        # The memory layer still serves it within this process.
        assert store.get("bad") is bad


class TestVanishedTraceFallback:
    """A deleted/unreadable .npt costs one re-record, never a crash."""

    def _request(self):
        return RunRequest(workload=tiny_spec(), policy=PolicySpec("NoTier"))

    def test_deleted_npt_re_records(self, tmp_path):
        import os

        from repro.exp.runner import _prepare_replay, _replay_data
        from repro.workloads import tracestore

        try:
            tracestore.set_default_trace_store(
                tracestore.TraceStore(tmp_path / "traces")
            )
            req = self._request()
            _prepare_replay([req])
            assert req.trace_path is not None
            os.unlink(req.trace_path)
            # A fresh store (cold memory layer, same directory) models a
            # later campaign whose .npt was evicted underneath it.
            fresh = tracestore.set_default_trace_store(
                tracestore.TraceStore(tmp_path / "traces")
            )
            data = _replay_data(req)
            assert data.num_windows > 0
            assert fresh.records == 1
        finally:
            tracestore.reset_default_trace_store()

    def test_read_error_falls_back_to_store(self, tmp_path, monkeypatch):
        from repro.exp.runner import _replay_data
        from repro.workloads import tracestore

        def denied(path):
            raise OSError(13, "Permission denied", str(path))

        monkeypatch.setattr(tracestore, "read_npt", denied)
        try:
            store = tracestore.set_default_trace_store(tracestore.TraceStore())
            req = self._request()
            req.trace_path = str(tmp_path / "unreadable.npt")
            data = _replay_data(req)
            assert data.num_windows > 0
            assert store.records == 1
        finally:
            tracestore.reset_default_trace_store()


class TestWorkerFailureIdentity:
    """A failing request names itself, serial or parallel.

    The doomed workload fails while its stream is recorded, which the
    driver first tries before fan-out: that failure must cost only the
    doomed request, not the campaign.
    """

    def _doomed(self):
        return RunRequest(
            workload=WorkloadSpec.from_factory(doomed_factory, label="doomed"),
            policy=PolicySpec("NoTier"),
        )

    def test_serial_failure_names_request(self, isolated_store):
        with pytest.raises(RequestExecutionError, match="doomed/NoTier"):
            run_requests([self._doomed()], jobs=1)

    def test_pool_failure_names_request(self, isolated_store):
        ok = RunRequest(workload=tiny_spec(), policy=PolicySpec("NoTier"))
        with pytest.raises(RequestExecutionError) as excinfo:
            run_requests([ok, self._doomed()], jobs=2)
        assert "doomed" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)  # original type rides along

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_keeps_every_healthy_result(self, tmp_path, jobs):
        # One doomed request in a sweep: the rest still runs, and is
        # stored before the error names the failure.
        requests = small_grid().expand() + [self._doomed()]
        store = SqliteResultStore(tmp_path)
        with pytest.raises(RequestExecutionError, match="doomed/NoTier") as excinfo:
            run_requests(requests, jobs=jobs, store=store)
        assert "tiny" not in str(excinfo.value)
        fresh = SqliteResultStore(tmp_path)
        healthy = {req.key for req in requests[:-1]}
        assert fresh.count() == len(healthy)
        assert all(fresh.get(key) is not None for key in healthy)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unpicklable_requests_run(self, isolated_store, jobs):
        lam = WorkloadSpec.from_factory(
            lambda: TinyWorkload(total_misses=60_000, misses_per_window=30_000),
            label="lam",
        )
        reqs = [
            RunRequest(workload=lam, policy=PolicySpec("NoTier")),
            RunRequest(workload=lam, policy=PolicySpec("NoTier"), ratio="1:2"),
        ]
        reset_unpicklable_warnings()
        if jobs > 1:
            # The pool cannot ship a lambda: those requests run in-process.
            with pytest.warns(RuntimeWarning, match="lam"):
                result = run_requests(reqs, jobs=jobs)
        else:
            result = run_requests(reqs, jobs=jobs)
        assert all(result[req].runtime_cycles > 0 for req in reqs)
