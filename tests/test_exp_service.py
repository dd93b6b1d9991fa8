"""Campaign service: persistent pool, SQLite store, failure isolation.

The contracts the 10k-run campaign story rests on:

* a campaign through the worker-pool service is bit-identical to serial
  ``run_requests`` on the same request list, and both share one store;
* the SQLite store round-trips results exactly, batches commits,
  commits its last batch at interpreter exit even when nobody closes
  it, and discards stale-version rows;
* a worker exception, crash, or hang loses only the affected request:
  the failure ledger names it, a retry completes it, and every other
  request's result is unaffected;
* zero traffic re-generation: after the driver's warm-up recording,
  neither the parent nor any worker records a stream again.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exp import runner
from repro.exp.cache import (
    CACHE_VERSION,
    ResultStore,
    reset_default_store,
    result_to_dict,
    set_default_store,
)
from repro.exp.runner import run_requests
from repro.exp.service import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    CampaignDriver,
    run_campaign,
)
from repro.exp.spec import ExperimentSpec, PolicySpec, RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.sim.metrics import RunResult
from repro.workloads import tracestore

from conftest import TinyWorkload


def tiny_factory():
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000)


def small_grid() -> ExperimentSpec:
    return ExperimentSpec(
        workloads=[WorkloadSpec.from_factory(tiny_factory, label="tiny")],
        policies=[PolicySpec("PACT"), PolicySpec("NoTier")],
        ratios=("1:1", "1:2"),
    )


def odd_factory():
    """A healthy workload whose parameters differ from ``tiny_factory``'s.

    Requests fingerprint the *built instance*, so identical parameters
    would dedup a faulty request onto the healthy one's cache key.
    """
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000, seed=11)


def misbehave(mode: str, flag_path: str) -> None:
    """Trip a one-shot fault: the first call leaves ``flag_path`` behind
    and fails; later calls (the retries) pass."""
    if os.path.exists(flag_path):
        return
    Path(flag_path).touch()
    if mode == "raise":
        raise ValueError("injected workload failure")
    if mode == "crash":
        os._exit(13)
    if mode == "hang":
        time.sleep(120.0)


@pytest.fixture
def faults(monkeypatch):
    """Arm one-shot faults in ``runner.execute_request``, keyed by label.

    A replayed request never builds its workload where it executes: it
    runs on the stream the driver recorded before fan-out.  So the fault
    sits in the executor itself, which the service looks up on the
    runner module at call time; forked workers inherit the patch.
    ``faults(mode, flag_path, label)`` arms one and returns the spec of
    the workload whose requests trip it.
    """
    armed = {}
    execute = runner.execute_request

    def faulty(request):
        if request.workload.display in armed:
            misbehave(*armed[request.workload.display])
        return execute(request)

    monkeypatch.setattr(runner, "execute_request", faulty)

    def arm(mode: str, flag_path, label: str) -> WorkloadSpec:
        armed[label] = (mode, str(flag_path))
        return WorkloadSpec.from_factory(odd_factory, label=label)

    return arm


@pytest.fixture
def isolated_stores():
    """Memory-only default result + trace stores, restored afterwards."""
    store = set_default_store(ResultStore())
    trace_store = tracestore.set_default_trace_store(tracestore.TraceStore())
    yield store, trace_store
    reset_default_store()
    tracestore.reset_default_trace_store()


def _src_env() -> dict:
    """Environment for a child interpreter that imports this checkout."""
    import repro

    return dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))


def fake_result(**overrides) -> RunResult:
    base = dict(
        workload="w", policy="p", ratio="1:1", runtime_cycles=10.0, windows=2,
        promoted=1, demoted=0, migration_cost_cycles=1.0, total_stall_cycles=2.0,
        total_misses=100.0, tier_misses={},
    )
    base.update(overrides)
    return RunResult(**base)


# ---------------------------------------------------------------------------
# SQLite result store.
# ---------------------------------------------------------------------------


class TestSqliteStore:
    def test_roundtrip_and_batched_commits(self, tmp_path):
        store = SqliteResultStore(tmp_path, batch_size=3)
        for i in range(5):
            store.put(f"k{i}", fake_result(windows=i + 1))
        assert store.commits == 1  # 3 puts flushed, 2 still pending
        store.flush()
        assert store.commits == 2

        fresh = SqliteResultStore(tmp_path)
        got = fresh.get("k4")
        assert got is not None and got.windows == 5
        assert fresh.disk_hits == 1
        assert result_to_dict(got) == result_to_dict(fake_result(windows=5))

    def test_pending_batch_flushed_on_close(self, tmp_path):
        store = SqliteResultStore(tmp_path, batch_size=100)
        store.put("k", fake_result())
        assert store.commits == 0
        store.close()
        assert SqliteResultStore(tmp_path).get("k") is not None

    def test_pending_batch_committed_at_interpreter_exit(self, tmp_path):
        # Stores nobody closes (the bench fixture's, the REPRO_CACHE_DIR
        # default store) must not lose their last batch at exit.
        code = (
            "import sys\n"
            "from repro.exp.store import SqliteResultStore\n"
            "from repro.sim.metrics import RunResult\n"
            "store = SqliteResultStore(sys.argv[1], batch_size=100)\n"
            "store.put('k', RunResult(workload='w', policy='p', ratio='1:1',\n"
            "    runtime_cycles=10.0, windows=2, promoted=1, demoted=0,\n"
            "    migration_cost_cycles=1.0, total_stall_cycles=2.0,\n"
            "    total_misses=100.0, tier_misses={}))\n"
            "assert store.commits == 0\n"
        )
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=_src_env(), check=True, timeout=60
        )
        reopened = SqliteResultStore(tmp_path)
        assert reopened.count() == 1
        assert result_to_dict(reopened.get("k")) == result_to_dict(fake_result())

    def test_stale_version_row_deleted_on_detection(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.put("k", fake_result())
        store.flush()
        store._conn.execute("UPDATE results SET version = ?", (CACHE_VERSION - 1,))
        store._conn.commit()
        store.clear_memory()
        assert store.get("k") is None
        assert store.count() == 0  # deleted, not re-parsed forever

    def test_unserialisable_result_surfaces_and_leaves_no_row(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        with pytest.raises(TypeError):
            store.put("bad", fake_result(workload_metrics={"x": object()}))
        store.flush()
        assert store.count() == 0


# ---------------------------------------------------------------------------
# Campaign driver: equivalence.
# ---------------------------------------------------------------------------


class TestCampaignEquivalence:
    def test_campaign_matches_serial_run_requests(self, tmp_path):
        spec = small_grid()
        try:
            tracestore.set_default_trace_store(tracestore.TraceStore())
            set_default_store(ResultStore())
            serial = run_requests(spec.expand(), jobs=1, use_cache=False)

            tracestore.set_default_trace_store(
                tracestore.TraceStore(tmp_path / "traces")
            )
            sqlite_store = SqliteResultStore(tmp_path / "cache")
            campaign = run_campaign(
                spec.expand(), jobs=2, store=sqlite_store, use_cache=True
            )
        finally:
            reset_default_store()
            tracestore.reset_default_trace_store()

        assert campaign.ok
        for req in spec.expand():
            assert result_to_dict(serial[req]) == result_to_dict(campaign[req]), (
                req.display
            )
        # Zero traffic re-generation after warm-up, on either side of
        # the process boundary.
        assert campaign.stats.re_records == 0

    def test_campaign_serves_run_requests_results(self, tmp_path, isolated_stores):
        # Figures (run_requests) and campaigns share one on-disk store.
        spec = small_grid()
        run_requests(spec.expand(), jobs=1, store=SqliteResultStore(tmp_path / "cache"))

        sqlite_store = SqliteResultStore(tmp_path / "cache")
        campaign = run_campaign(spec.expand(), jobs=2, store=sqlite_store)
        assert campaign.stats.executed == 0
        assert campaign.stats.cache_hits == len({r.key for r in spec.expand()})

    def test_driver_pool_persists_across_runs(self, isolated_stores):
        spec = small_grid()
        with CampaignDriver(jobs=2) as driver:
            first = driver.run(spec.expand())
            pids = [w.process.pid for w in driver.pool.workers]
            second = driver.run(spec.expand())
            assert [w.process.pid for w in driver.pool.workers] == pids
        assert first.ok and second.ok
        assert second.stats.executed == 0  # all cache hits on the rerun

    def test_campaign_gauges_published(self, isolated_stores):
        driver = CampaignDriver(jobs=1)
        result = driver.run(small_grid().expand())
        gauges = driver.registry.gauges()
        assert result.ok
        assert gauges["campaign/completed"] == result.stats.unique_requests
        assert gauges["campaign/queue_depth"] == 0
        assert gauges["campaign/re_records"] == 0
        assert 0.0 <= gauges["campaign/cache_hit_rate"] <= 1.0

    def test_serial_campaign_reports_worker0_utilisation(self, isolated_stores):
        # `repro campaign --jobs 1` averages the */utilisation gauges; with
        # no pool the serial driver must still publish its one worker.
        seen = []
        driver = CampaignDriver(jobs=1, progress=seen.append)
        result = driver.run(small_grid().expand())
        assert result.ok and driver.pool is None
        util = driver.registry.gauges()["campaign/worker0/utilisation"]
        # Simulating is nearly all a serial campaign does.
        assert 0.2 < util <= 1.0
        assert seen[-1]["campaign/worker0/utilisation"] == util


# ---------------------------------------------------------------------------
# Campaign driver: failure isolation.
# ---------------------------------------------------------------------------


class TestFailureIsolation:
    def _grid(self, bad_spec) -> list:
        healthy = ExperimentSpec(
            workloads=[WorkloadSpec.from_factory(tiny_factory, label="tiny")],
            policies=[PolicySpec("NoTier")],
            ratios=("1:1",),
        )
        bad = RunRequest(workload=bad_spec, policy=PolicySpec("NoTier"), ratio="1:1")
        return healthy.expand() + [bad]

    def test_worker_exception_loses_only_that_request(
        self, tmp_path, isolated_stores, faults
    ):
        # retries=0: the single armed attempt is the final one.
        requests = self._grid(faults("raise", tmp_path / "armed.flag", "raisy"))
        campaign = run_campaign(requests, jobs=2, retries=0)
        failed = campaign.failed
        assert len(failed) == 1
        assert failed[0].kind == FAILURE_EXCEPTION
        assert "raisy" in failed[0].display
        assert "injected workload failure" in failed[0].error
        with pytest.raises(KeyError):
            campaign.result(requests[-1])
        # Every healthy request still completed.
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_retry_completes_after_one_shot_exception(
        self, tmp_path, isolated_stores, faults
    ):
        requests = self._grid(faults("raise", tmp_path / "armed.flag", "raisy"))
        campaign = run_campaign(requests, jobs=2, retries=1)
        assert campaign.ok
        assert campaign.stats.retries == 1
        assert len(campaign.ledger) == 1
        assert not campaign.ledger[0].final
        assert campaign[requests[-1]].runtime_cycles > 0

    def test_worker_crash_is_isolated_and_retried(self, tmp_path, isolated_stores, faults):
        requests = self._grid(faults("crash", tmp_path / "crashed.flag", "crashy"))
        campaign = run_campaign(requests, jobs=2, retries=1)
        assert campaign.ok, [rec.describe() for rec in campaign.ledger]
        kinds = [rec.kind for rec in campaign.ledger]
        assert kinds == [FAILURE_CRASH]
        assert "crashy" in campaign.ledger[0].display
        assert campaign.stats.respawns >= 1
        assert campaign[requests[-1]].runtime_cycles > 0
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_respawns_counted_per_run(self, tmp_path, isolated_stores, faults):
        # A clean run after one that respawned a crashed worker reports
        # no respawns of its own, like every other per-run stat.
        requests = self._grid(faults("crash", tmp_path / "crashed.flag", "crashy"))
        with CampaignDriver(jobs=2, retries=1, use_cache=False) as driver:
            first = driver.run(requests)
            second = driver.run(requests[:-1])
        assert first.ok and first.stats.respawns >= 1
        assert second.ok and second.stats.failures == 0
        assert second.stats.executed == len(requests) - 1
        assert second.stats.respawns == 0

    def test_hung_worker_killed_on_timeout(self, tmp_path, isolated_stores, faults):
        requests = self._grid(faults("hang", tmp_path / "hung.flag", "hangy"))
        campaign = run_campaign(requests, jobs=2, retries=0, timeout=2.0)
        failed = campaign.failed
        assert len(failed) == 1
        assert failed[0].kind == FAILURE_TIMEOUT
        assert "hangy" in failed[0].display
        assert campaign.stats.respawns >= 1
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_serial_campaign_honours_retries_and_ledger(
        self, tmp_path, isolated_stores, faults
    ):
        # jobs=1 runs in-process: the first execution attempt fails.
        bad = RunRequest(
            workload=faults("raise", tmp_path / "flaky.flag", "flaky"),
            policy=PolicySpec("NoTier"),
        )
        campaign = run_campaign([bad], jobs=1, retries=1)
        assert campaign.ok
        assert len(campaign.ledger) == 1
        assert campaign.ledger[0].kind == FAILURE_EXCEPTION
        assert "flaky" in campaign.ledger[0].display


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
def test_workers_exit_when_the_driver_is_killed():
    # A campaign killed with SIGKILL closes nothing; its idle workers
    # must still notice and exit instead of waiting forever.
    code = (
        "import time\n"
        "from repro.exp.service import WorkerPool\n"
        "pool = WorkerPool(jobs=2)\n"
        "print(' '.join(str(w.process.pid) for w in pool.workers), flush=True)\n"
        "time.sleep(120)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code], env=_src_env(), stdout=subprocess.PIPE, text=True
    ) as driver:
        workers = [int(pid) for pid in driver.stdout.readline().split()]
        driver.kill()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(map(_running, workers)):
        time.sleep(0.05)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2 and not orphans
