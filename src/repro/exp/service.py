"""Campaign service: the one executor of experiment grids.

Every grid -- a figure bench, ``repro bench|sweep|compare|campaign``,
``analysis.*`` -- runs through :class:`CampaignDriver`;
``run_requests``/``run_experiment`` are the driver with no retries.

* :class:`WorkerPool` spawns workers **once per driver** and feeds
  them one request at a time over per-worker pipes.  Workers replay
  ``.npt`` traces memory-mapped from the shared trace store, so a
  thousand runs over one workload touch one page-cache-warm copy.  With
  ``jobs <= 1`` the driver runs every request in-process instead, under
  the same failure semantics.
* Every request carries per-request failure isolation: a worker
  exception, crash, or hang loses *that request* -- recorded in a
  failure ledger with the request's display identity -- never the
  campaign.  Failed requests are retried (fresh worker, same request)
  up to ``retries`` times.
* Results stream into a :class:`~repro.exp.cache.ResultStore`: the
  in-process layer, or :class:`~repro.exp.store.SqliteResultStore`
  on disk, whose batched commits absorb 100k-run write rates.
* Progress is published into a :class:`~repro.obs.MetricsRegistry`
  (queue depth, in-flight count, per-worker utilisation, cache hit
  rate, trace re-record count) that front ends poll for live display.

Results are bit-identical serial or pooled: each request carries its
own seed and full configuration, and workers run the same
``execute_request`` path as the in-process loop.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.exp import runner
from repro.exp.cache import ResultStore, get_default_store
from repro.exp.runner import ExperimentResult, RequestUnit, _prepare_replay
from repro.exp.spec import ExperimentSpec, RunRequest
from repro.obs import MetricsRegistry
from repro.sim.metrics import RunResult

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Default per-request retry budget (a retry runs on a fresh worker).
DEFAULT_RETRIES = 1

#: Seconds between gauge refreshes / progress callbacks.
DEFAULT_PROGRESS_INTERVAL = 2.0

#: Event-loop poll granularity (seconds).
_TICK = 0.1

#: Seconds an idle worker waits for work before checking for a dead driver.
_ORPHAN_CHECK = 1.0

#: Failure kinds recorded in the ledger.
FAILURE_EXCEPTION = "exception"  # the request raised inside a worker
FAILURE_CRASH = "crash"          # the worker process died mid-request
FAILURE_TIMEOUT = "timeout"      # the request exceeded the deadline


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    if jobs <= 0:  # 0 = "all cores", mirroring make -j conventions
        jobs = os.cpu_count() or 1
    return jobs


class RequestExecutionError(RuntimeError):
    """A request failed for good; the message names which one.

    ``run_requests`` raises it once every other request has finished
    and been stored, so a failure inside a many-thousand-run sweep costs
    that request alone and identifies it.  The message carries the
    original exception's type and text (it may have been raised in a
    worker process).
    """


def _unit_key(unit: RequestUnit) -> str:
    """Hashable identity for one execution unit (attempt accounting)."""
    if isinstance(unit, list):
        return "group:" + unit[0].key
    return unit.key


def _unit_display(unit: RequestUnit) -> str:
    if isinstance(unit, list):
        return f"group[{len(unit)}] {unit[0].display} ..."
    return unit.display


def _execute(unit: RequestUnit):
    """Run one unit: a request's result, or a group's in member order.

    The executors are looked up on :mod:`repro.exp.runner` at call time,
    so anything patched there (tests, the sweep benchmark's tracer) is
    what runs.
    """
    if isinstance(unit, list):
        return runner.execute_request_group(unit)
    return runner.execute_request(unit)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


#: Offender identities already warned about in this process; repeated
#: sweeps over the same lambda-factory workload warn once, not once per
#: request.
_WARNED_UNPICKLABLE: set = set()


def _offender_key(unit: RequestUnit) -> str:
    """Identity of an un-picklable unit's *type* of offence.

    The culprit is almost always the workload factory (a lambda or
    closure), so key on its qualified name: a sweep expanding one
    factory into hundreds of requests is one offence, not hundreds.
    """
    request = unit[0] if isinstance(unit, list) else unit
    factory = request.workload.factory
    if factory is not None:
        return f"factory:{getattr(factory, '__qualname__', repr(factory))}"
    return f"type:{type(request).__qualname__}"


def reset_unpicklable_warnings() -> None:
    """Forget which offenders were warned about (test isolation)."""
    _WARNED_UNPICKLABLE.clear()


def _warn_unpicklable(unit: RequestUnit) -> None:
    key = _offender_key(unit)
    if key not in _WARNED_UNPICKLABLE:
        _WARNED_UNPICKLABLE.add(key)
        warnings.warn(
            f"request {_unit_display(unit)} is not picklable (lambda/closure "
            f"workload factory?); running it in-process",
            RuntimeWarning,
            stacklevel=4,
        )


@dataclass
class FailureRecord:
    """One failure event: which request, which way, which attempt."""

    key: str
    display: str
    kind: str
    error: str
    attempt: int
    final: bool = False

    def describe(self) -> str:
        state = "gave up" if self.final else "will retry"
        return f"[{self.kind}] {self.display} (attempt {self.attempt}, {state}): {self.error}"


@dataclass
class CampaignStats:
    """Execution accounting for one driver run."""

    total_requests: int = 0
    unique_requests: int = 0
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0          # failure events (incl. retried ones)
    failed_requests: int = 0   # requests that exhausted their retries
    retries: int = 0
    respawns: int = 0
    warmup_records: int = 0    # traces recorded while preparing replay
    re_records: int = 0        # traces re-recorded during execution
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class CampaignResult(ExperimentResult):
    """An :class:`ExperimentResult` plus the campaign's failure ledger."""

    def __init__(
        self,
        requests: Sequence[RunRequest],
        results: Dict[str, RunResult],
        ledger: Sequence[FailureRecord],
        stats: CampaignStats,
    ):
        super().__init__(requests, results)
        self.ledger = list(ledger)
        self.stats = stats

    @property
    def failed(self) -> List[FailureRecord]:
        """Final (retry-exhausted) failures only."""
        return [rec for rec in self.ledger if rec.final]

    @property
    def ok(self) -> bool:
        return not self.failed


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


def _worker_main(conn, driver_pid: int) -> None:
    """Long-lived worker loop: recv request, execute, send result.

    The per-result payload carries the worker-local trace-store record
    counter so the driver can prove the zero-re-record property across
    process boundaries (a worker that silently regenerated traffic
    would otherwise be invisible to the parent's counters).
    """
    from repro.workloads.tracestore import get_default_trace_store

    # Fork-inherited stores carry the parent's record counter (e.g. the
    # warm-up recordings); report deltas relative to this worker's start
    # so only traffic *this worker* regenerated counts as a re-record.
    records_base = get_default_trace_store().records

    def records_delta() -> int:
        return get_default_trace_store().records - records_base

    while True:
        try:
            # A driver killed with SIGKILL closes nothing this worker
            # would see: the worker itself, and every sibling forked
            # after it, hold copies of the driver's pipe end.  So an idle
            # worker checks now and then whether it has been orphaned.
            if not conn.poll(_ORPHAN_CHECK):
                if os.getppid() != driver_pid:
                    break
                continue
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task_key, unit = item
        try:
            payload = (task_key, True, _execute(unit), records_delta())
        except BaseException as exc:  # noqa: BLE001 - isolate *any* failure
            payload = (task_key, False, _error_text(exc), records_delta())
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result: report, keep serving
            try:
                conn.send(
                    (task_key, False,
                     f"result not sendable: {_error_text(exc)}",
                     records_delta())
                )
            except Exception:
                break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle: process, pipe, and utilisation accounting."""

    __slots__ = (
        "index", "process", "conn", "task", "busy_since",
        "completed", "busy_seconds", "records_seen",
    )

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.task: Optional[RequestUnit] = None
        self.busy_since = 0.0
        self.completed = 0
        self.busy_seconds = 0.0
        #: Last trace-store record counter this worker reported.
        self.records_seen = 0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def utilisation(self, now: float, since: float) -> float:
        elapsed = max(now - since, 1e-9)
        busy = self.busy_seconds + ((now - self.busy_since) if self.busy else 0.0)
        return min(busy / elapsed, 1.0)


class WorkerPool:
    """A fixed-size pool of persistent request-executing processes.

    Workers are spawned once and survive across requests and across
    driver runs; a crashed or killed worker is respawned transparently.
    The fork start method is preferred so factory-form workload specs
    defined in bench modules unpickle in workers.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, resolve_jobs(jobs))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        #: Respawns and worker-side trace re-records since the driver
        #: last collected them (it does so at the end of every run).
        self.respawns = 0
        self.worker_re_records = 0
        self._next_index = 0
        self.workers: List[_Worker] = [self._spawn() for _ in range(self.jobs)]
        self._closed = False

    def _spawn(self) -> _Worker:
        index = self._next_index
        self._next_index += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, os.getpid()), daemon=True,
            name=f"repro-campaign-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def respawn(self, worker: _Worker) -> _Worker:
        """Replace a dead/hung worker in place with a fresh process."""
        self.kill(worker)
        fresh = self._spawn()
        self.workers[self.workers.index(worker)] = fresh
        self.respawns += 1
        return fresh

    def kill(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def note_records(self, worker: _Worker, reported: int) -> None:
        """Fold a worker's trace-record counter into the pool total."""
        if reported > worker.records_seen:
            self.worker_re_records += reported - worker.records_seen
            worker.records_seen = reported

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Driver side.
# ---------------------------------------------------------------------------


class CampaignDriver:
    """Streams request lists through one persistent worker pool.

    One driver serves a whole campaign: call :meth:`run` (or
    :meth:`run_specs`) as many times as the campaign has phases; the
    pool spins up on first use and is reused until :meth:`close`.  With
    ``jobs <= 1`` no pool is spawned and requests run in-process.

    Failure semantics, per request: an exception, a worker crash, or a
    timeout records a :class:`FailureRecord` and -- while attempts
    remain -- requeues the request (crashes and timeouts get a fresh
    worker; the dead one is respawned).  A request that exhausts
    ``retries`` is a *final* failure: it is absent from the result
    mapping (lookups raise ``KeyError``) and listed in
    ``CampaignResult.failed``.  Nothing a single request does can lose
    any other request's result.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        retries: int = DEFAULT_RETRIES,
        timeout: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[Dict[str, float]], None]] = None,
        progress_interval: float = DEFAULT_PROGRESS_INTERVAL,
    ):
        self.jobs = max(1, resolve_jobs(jobs))
        self.store = store
        self.use_cache = use_cache
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self.progress = progress
        self.progress_interval = progress_interval
        self._pool: Optional[WorkerPool] = None
        self._started = time.monotonic()
        #: Seconds the in-process loop spent executing units: its one
        #: "worker" (``campaign/worker0/utilisation``).
        self._serial_busy = 0.0

    # -- pool lifecycle ------------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        return self._pool

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(jobs=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "CampaignDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- running -------------------------------------------------------------

    def run_specs(self, specs: Sequence[ExperimentSpec]) -> CampaignResult:
        """Expand several grids and stream them through the pool as one."""
        requests: List[RunRequest] = []
        for spec in specs:
            requests.extend(spec.expand())
        return self.run(requests)

    def run(self, requests: Sequence[RunRequest]) -> CampaignResult:
        """Dedup, serve cache hits, execute the misses, store every result."""
        from repro.workloads import tracestore

        t0 = time.monotonic()
        requests = list(requests)
        store = self.store if self.store is not None else get_default_store()
        stats = CampaignStats(total_requests=len(requests))

        # Duplicate requests (shared baselines) collapse onto the first.
        unique: Dict[str, RunRequest] = {}
        for req in requests:
            unique.setdefault(req.key, req)
        stats.unique_requests = len(unique)

        results: Dict[str, RunResult] = {}
        misses: List[RunRequest] = []
        for key, req in unique.items():
            cached = store.get(key) if self.use_cache else None
            if cached is not None:
                results[key] = cached
            else:
                misses.append(req)
        stats.cache_hits = len(unique) - len(misses)

        trace_store = tracestore.get_default_trace_store()
        records_before = trace_store.records
        _prepare_replay(misses)
        stats.warmup_records = trace_store.records - records_before
        records_at_execution = trace_store.records

        ledger: List[FailureRecord] = []
        if misses:
            # Multi-run fast path: seed/ratio siblings collapse into
            # lockstep groups (one simulation each); a failed group is
            # retried as independent single requests, so grouping never
            # costs failure isolation.
            units = runner.group_requests(misses)
            if self.jobs <= 1:
                self._run_serial(units, results, store, ledger, stats)
            else:
                self._run_pooled(units, results, store, ledger, stats)
        store.flush()

        stats.re_records = trace_store.records - records_at_execution
        pool = self._pool
        if pool is not None:
            stats.re_records += pool.worker_re_records
            stats.respawns = pool.respawns
            pool.worker_re_records = pool.respawns = 0
        stats.failures = len(ledger)
        stats.failed_requests = sum(1 for rec in ledger if rec.final)
        stats.elapsed_seconds = time.monotonic() - t0
        self._publish(0, 0, results, stats, force=True)
        return CampaignResult(requests, results, ledger, stats)

    def _fail(self, unit, kind, error, attempts, pending, ledger, stats) -> None:
        """Record one failed attempt; requeue the unit while attempts remain.

        ``attempts`` counts each unit's failed attempts so far in this
        run.  A group failure is never final: its members requeue as
        independent singles with their own attempt budgets.
        """
        ukey = _unit_key(unit)
        attempt = attempts[ukey] = attempts.get(ukey, 0) + 1
        group = isinstance(unit, list)
        final = not group and attempt > self.retries
        ledger.append(
            FailureRecord(
                key=ukey, display=_unit_display(unit), kind=kind,
                error=error, attempt=attempt, final=final,
            )
        )
        if not final:
            stats.retries += 1
            pending.extend(unit if group else [unit])

    # -- in-process path (jobs <= 1) -----------------------------------------

    def _run_serial(self, units, results, store, ledger, stats) -> None:
        pending = deque(units)
        attempts: Dict[str, int] = {}
        while pending:
            unit = pending.popleft()
            t0 = time.monotonic()
            try:
                payload = _execute(unit)
            except Exception as exc:
                self._fail(
                    unit, FAILURE_EXCEPTION, _error_text(exc), attempts, pending, ledger, stats
                )
                continue
            finally:
                self._serial_busy += time.monotonic() - t0
            self._complete_unit(unit, payload, results, store, stats)
            self._publish(len(pending), 0, results, stats)

    # -- pooled path ---------------------------------------------------------

    def _run_pooled(self, units, results, store, ledger, stats) -> None:
        pool = self._ensure_pool()
        pending = deque(units)
        attempts: Dict[str, int] = {}
        in_flight: Dict[int, RequestUnit] = {}  # worker index -> unit

        def fail(unit, kind, error):
            self._fail(unit, kind, error, attempts, pending, ledger, stats)

        def release(worker, now):
            worker.busy_seconds += now - worker.busy_since
            worker.completed += 1
            in_flight.pop(worker.index, None)
            worker.task = None

        def crashed(worker):
            return f"worker died mid-request (exit code {worker.process.exitcode})"

        while pending or in_flight:
            now = time.monotonic()
            # 1. Feed every idle worker.
            for worker in pool.workers:
                if worker.busy or not pending:
                    continue
                unit = pending.popleft()
                try:
                    worker.conn.send((_unit_key(unit), unit))
                except (BrokenPipeError, OSError):
                    # Worker died between requests; replace and requeue
                    # without charging the unit an attempt.
                    pending.appendleft(unit)
                    pool.respawn(worker)
                    continue
                except Exception:
                    # Unpicklable request (lambda factory): it cannot
                    # cross the pipe, so run it here, in-process.
                    _warn_unpicklable(unit)
                    try:
                        payload = _execute(unit)
                    except Exception as exc:
                        fail(unit, FAILURE_EXCEPTION, _error_text(exc))
                    else:
                        self._complete_unit(unit, payload, results, store, stats)
                    continue
                worker.task = unit
                worker.busy_since = now
                in_flight[worker.index] = unit

            # 2. Wait for any busy worker to report.
            conns = [w.conn for w in pool.workers if w.busy]
            ready = _conn_wait(conns, timeout=_TICK) if conns else []
            now = time.monotonic()
            for conn in ready:
                worker = next(w for w in pool.workers if w.conn is conn)
                unit = worker.task
                try:
                    task_key, ok, payload, records = conn.recv()
                except (EOFError, OSError):
                    release(worker, now)
                    pool.respawn(worker)
                    fail(unit, FAILURE_CRASH, crashed(worker))
                    continue
                pool.note_records(worker, records)
                release(worker, now)
                if ok:
                    self._complete_unit(unit, payload, results, store, stats)
                else:
                    fail(unit, FAILURE_EXCEPTION, payload)

            # 3. Liveness + deadline sweep over the still-busy workers.
            for worker in list(pool.workers):
                if not worker.busy:
                    continue
                unit = worker.task
                if not worker.process.is_alive():
                    release(worker, now)
                    pool.respawn(worker)
                    fail(unit, FAILURE_CRASH, crashed(worker))
                elif (
                    self.timeout is not None
                    and now - worker.busy_since > self.timeout
                ):
                    release(worker, now)
                    pool.respawn(worker)
                    fail(unit, FAILURE_TIMEOUT,
                         f"no result within {self.timeout:.1f}s; worker killed")

            self._publish(len(pending), len(in_flight), results, stats)

    # -- bookkeeping ---------------------------------------------------------

    def _complete_unit(self, unit, payload, results, store, stats) -> None:
        """Fan a unit's payload out: every member gets its own entry."""
        members, runs = (unit, payload) if isinstance(unit, list) else ([unit], [payload])
        for req, run in zip(members, runs):
            key = req.key
            results[key] = run
            stats.executed += 1
            if self.use_cache:
                store.put(key, run, fingerprint=req.fingerprint())

    _last_publish = 0.0

    def _publish(self, queue_depth, in_flight, results, stats, force=False) -> None:
        now = time.monotonic()
        if not force and now - self._last_publish < min(self.progress_interval, 0.5):
            return
        self._last_publish = now
        reg = self.registry
        reg.gauge("campaign/queue_depth", queue_depth)
        reg.gauge("campaign/in_flight", in_flight)
        reg.gauge("campaign/completed", len(results))
        reg.gauge("campaign/executed", stats.executed)
        reg.gauge("campaign/retries", stats.retries)
        touched = stats.cache_hits + stats.executed
        reg.gauge(
            "campaign/cache_hit_rate",
            stats.cache_hits / touched if touched else 0.0,
        )
        reg.gauge("campaign/re_records", stats.re_records)
        pool = self._pool
        since = self._started
        if pool is not None:
            for worker in pool.workers:
                reg.gauge(
                    f"campaign/worker{worker.index}/utilisation",
                    worker.utilisation(now, since),
                )
        elif self.jobs <= 1:
            reg.gauge(
                "campaign/worker0/utilisation",
                min(self._serial_busy / max(now - since, 1e-9), 1.0),
            )
        if self.progress is not None and (force or now - self._started > 0):
            self.progress(reg.gauges())


def run_campaign(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = DEFAULT_RETRIES,
    timeout: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[Dict[str, float]], None]] = None,
) -> CampaignResult:
    """One-shot campaign over ``requests`` (pool torn down afterwards)."""
    with CampaignDriver(
        jobs=jobs, store=store, use_cache=use_cache, retries=retries,
        timeout=timeout, registry=registry, progress=progress,
    ) as driver:
        return driver.run(requests)


__all__ = [
    "CampaignDriver",
    "CampaignResult",
    "CampaignStats",
    "DEFAULT_RETRIES",
    "FAILURE_CRASH",
    "FAILURE_EXCEPTION",
    "FAILURE_TIMEOUT",
    "FailureRecord",
    "RequestExecutionError",
    "WorkerPool",
    "resolve_jobs",
    "run_campaign",
]
