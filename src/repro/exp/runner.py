"""Experiment runner: request execution, lockstep grouping, result indexing.

``run_experiment``/``run_requests`` are the entry point every bench,
the CLI, and ``analysis.*`` drive.  They run the grid through
:class:`~repro.exp.service.CampaignDriver` -- the one executor of
experiment grids -- with no retries: expand a spec, drop duplicate
requests (shared baselines collapse here), serve what the
content-addressed store already has, execute the misses (in-process or
across worker processes), store every result, and hand back an
:class:`ExperimentResult` that knows how to look runs up by (workload,
policy, ratio, seed).  This module also holds the executors the driver
calls: :func:`execute_request` and :func:`execute_request_group`.

Every request runs on its workload's recorded traffic stream
(:mod:`repro.workloads.tracestore`): the driver records each distinct
stream once before fan-out (:func:`_prepare_replay`), and replay is
bit-identical to live generation, so results and cache keys are those
of a live run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.exp.cache import ResultStore
from repro.exp.spec import (
    KIND_IDEAL,
    KIND_POLICY,
    KIND_SLOW_ONLY,
    ExperimentSpec,
    RunRequest,
)
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult
from repro.sim.policy_api import NoTierPolicy, SlowOnlyPolicy


def _replay_data(request: RunRequest):
    """The recorded stream a replayed request runs on.

    Prefers the pre-recorded ``trace_path`` the driver attached before
    fan-out (one memory-mapped copy shared across worker processes via
    the page cache); unreadable/corrupt paths fall back to the trace
    store, which re-records.  ``OSError`` covers a ``.npt`` deleted or
    evicted mid-campaign -- without it one vanished file would crash a
    worker instead of costing one re-record.  The live workload is built
    only when the stream has to be recorded.
    """
    from repro.workloads import tracestore

    if request.trace_path:
        try:
            return tracestore.read_npt(request.trace_path)
        except (tracestore.TraceFormatError, OSError):
            pass
    store = tracestore.get_default_trace_store()
    _, data = store.ensure_spec(
        request.workload.descriptor(), request.workload.build, request.max_windows
    )
    return data


def execute_request(request: RunRequest) -> RunResult:
    """Run one request from scratch (no cache involvement).

    The request runs on its recorded stream; bit-identity makes the
    swap from live generation invisible to results and cache keys alike.
    """
    from repro.workloads.tracestore import ReplayWorkload

    workload = ReplayWorkload(_replay_data(request))
    if request.kind == KIND_POLICY:
        policy, ratio, fast_capacity = request.policy.build(), request.ratio, None
    elif request.kind == KIND_IDEAL:
        policy, ratio, fast_capacity = NoTierPolicy(), "1:1", workload.footprint_pages
    else:  # slow-only reference run
        policy, ratio, fast_capacity = SlowOnlyPolicy(), "1:1", 0
    # Requests asking for telemetry get a fresh bundle (with a bounded
    # trace ring when tracing too); otherwise the machine resolves the
    # plain trace flag itself, exactly as before the obs layer.
    machine = Machine(
        workload=workload,
        policy=policy,
        config=request.config if request.config is not None else MachineConfig(),
        ratio=ratio,
        fast_capacity_override=fast_capacity,
        contender=request.contender,
        seed=request.seed,
        trace=request.trace,
        obs=Observability(trace=request.trace) if request.obs else None,
    )
    return machine.run(max_windows=request.max_windows)


#: One unit of execution: a single request, or a group of requests that
#: one :class:`~repro.sim.runbatch.MultiMachine` simulates in lockstep.
RequestUnit = Union[RunRequest, List[RunRequest]]


def execute_request_group(requests: Sequence[RunRequest]) -> List[RunResult]:
    """Run a seed/ratio group of one (workload, policy) in lockstep.

    All requests replay the same recorded trace; one
    :class:`~repro.sim.runbatch.MultiMachine` steps them together and
    fuses their stall solves.  Results are bit-identical to running each
    request through :func:`execute_request`, in request order -- every
    run still lands in the cache under its own key.  Groups the
    lockstep executor rejects fall back to serial execution.
    """
    from repro.sim.runbatch import MultiMachine
    from repro.workloads.tracestore import ReplayWorkload

    requests = list(requests)
    if len(requests) == 1:
        return [execute_request(requests[0])]
    first = requests[0]
    data = _replay_data(first)
    try:
        machines = [
            Machine(
                workload=ReplayWorkload(data),
                policy=req.policy.build(),
                config=req.config if req.config is not None else MachineConfig(),
                ratio=req.ratio,
                contender=req.contender,
                seed=req.seed,
            )
            for req in requests
        ]
        multi = MultiMachine(machines)
    except ValueError:
        return [execute_request(req) for req in requests]
    return multi.run(max_windows=first.max_windows)


def _group_key(request: RunRequest) -> str:
    """Group identity: the request fingerprint with seed and ratio nulled."""
    from repro.exp.cache import content_hash

    fp = request.fingerprint()
    fp["seed"] = None
    fp["ratio"] = None
    return content_hash(fp)


def group_requests(requests: Sequence[RunRequest]) -> List[RequestUnit]:
    """Collapse run-axis-compatible requests into lockstep groups.

    Policy-kind requests that differ only in seed and/or capacity
    ratio share one recorded trace and one machine shape, so they
    become one multi-run unit.  Trace/telemetry requests and reference
    runs stay singles.  Unit order follows first appearance, and member
    order within a group follows request order, so fan-out results map
    back deterministically.
    """
    groups: Dict[object, List[RunRequest]] = {}
    order: List[object] = []
    for i, req in enumerate(requests):
        if req.kind != KIND_POLICY or req.trace or req.obs:
            key: object = ("single", i)
        else:
            key = _group_key(req)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(req)
    units: List[RequestUnit] = []
    for key in order:
        members = groups[key]
        if len(members) >= 2:
            units.append(members)
        else:
            units.append(members[0])
    return units


class ExperimentResult:
    """Executed requests plus lookup helpers keyed on display identities."""

    def __init__(self, requests: Sequence[RunRequest], results: Dict[str, RunResult]):
        self.requests = list(requests)
        self._results = results

    def result(self, request: RunRequest) -> RunResult:
        return self._results[request.key]

    __getitem__ = result

    def find(
        self,
        workload: Optional[str] = None,
        policy: Optional[str] = None,
        ratio: Optional[str] = None,
        seed: Optional[int] = None,
        contender="any",
        kind: str = KIND_POLICY,
    ) -> RunResult:
        """The unique run matching the given display coordinates."""
        matches = []
        for req in self.requests:
            if req.kind != kind:
                continue
            if workload is not None and req.workload.display != workload:
                continue
            if policy is not None and (
                req.kind != KIND_POLICY or req.policy.display != policy
            ):
                continue
            if ratio is not None and kind == KIND_POLICY and req.ratio != ratio:
                continue
            if seed is not None and req.seed != seed:
                continue
            if contender != "any" and req.contender != contender:
                continue
            if req.key not in matches:
                matches.append(req.key)
        if not matches:
            raise KeyError(
                f"no run matches workload={workload!r} policy={policy!r} "
                f"ratio={ratio!r} seed={seed!r} kind={kind!r}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous lookup (workload={workload!r} policy={policy!r} "
                f"ratio={ratio!r} seed={seed!r} kind={kind!r}): "
                f"{len(matches)} distinct runs -- pass more coordinates"
            )
        return self._results[matches[0]]

    def baseline(self, workload: str, seed: int = 0, contender=None) -> RunResult:
        return self.find(workload=workload, seed=seed, contender=contender, kind=KIND_IDEAL)

    def slow_only(self, workload: str, seed: int = 0, contender=None) -> RunResult:
        return self.find(
            workload=workload, seed=seed, contender=contender, kind=KIND_SLOW_ONLY
        )

    def slowdown(
        self,
        workload: str,
        policy: str,
        ratio: str,
        seed: int = 0,
        contender=None,
    ) -> float:
        run = self.find(
            workload=workload, policy=policy, ratio=ratio, seed=seed, contender=contender
        )
        return run.slowdown(self.baseline(workload, seed=seed, contender=contender))

    def promotions(
        self,
        workload: str,
        policy: str,
        ratio: str,
        seed: int = 0,
        contender=None,
    ) -> int:
        return self.find(
            workload=workload, policy=policy, ratio=ratio, seed=seed, contender=contender
        ).promoted

    def slowdown_table(
        self, ratio: str, seed: int = 0, contender=None
    ) -> Dict[str, Dict[str, float]]:
        """workload -> {policy -> slowdown} at one ratio."""
        table: Dict[str, Dict[str, float]] = {}
        for req in self.requests:
            if req.kind != KIND_POLICY or req.ratio != ratio or req.seed != seed:
                continue
            if req.contender != contender:
                continue
            wname = req.workload.display
            base = self.baseline(wname, seed=seed, contender=contender)
            table.setdefault(wname, {})[req.policy.display] = self._results[
                req.key
            ].slowdown(base)
        return table


def _prepare_replay(requests: Sequence[RunRequest]) -> None:
    """Record each distinct traffic stream once, before fan-out.

    A stream is keyed by (workload identity, window budget) -- never by
    policy, ratio, or contender -- so one recording serves every run in
    a sweep that shares the workload.  When the trace store is
    disk-backed the recorded ``.npt`` path is attached to the requests;
    forked workers then memory-map one shared copy instead of each
    regenerating (or unpickling) the traffic.  Memory-only stores still
    help: forked children inherit the parent's recordings copy-on-write.

    A stream whose recording raises is left unattached: each of its
    requests records it again inside its own execution and fails there,
    through the driver's failure ledger and retries, so a broken
    workload costs only its own requests.
    """
    from repro.exp.cache import content_hash
    from repro.workloads import tracestore

    store = tracestore.get_default_trace_store()
    prepared: Dict[tuple, Optional[str]] = {}
    for req in requests:
        ident = (content_hash(req.workload.descriptor()), req.max_windows)
        if ident not in prepared:
            # Spec-level ensure: an already-recorded stream attaches its
            # .npt path without ever building the live workload.
            try:
                _, data = store.ensure_spec(
                    req.workload.descriptor(), req.workload.build, req.max_windows
                )
            except Exception:  # noqa: BLE001 - the request's own run reports it
                prepared[ident] = None
            else:
                prepared[ident] = str(data.path) if data.path is not None else None
        if req.trace_path is None and prepared[ident] is not None:
            req.trace_path = prepared[ident]


def run_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Execute a request list through the campaign driver, no retries.

    A request that fails does not stop the sweep: every other request
    still runs and is stored, and then :class:`RequestExecutionError`
    names the failures.
    """
    from repro.exp.service import CampaignDriver, RequestExecutionError

    with CampaignDriver(jobs=jobs, store=store, use_cache=use_cache, retries=0) as driver:
        result = driver.run(requests)
    if result.failed:
        raise RequestExecutionError(
            "; ".join(f"request {rec.display} failed: {rec.error}" for rec in result.failed)
        )
    return result


def run_experiment(
    spec: ExperimentSpec,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Expand a declared grid and execute it."""
    return run_requests(spec.expand(), jobs=jobs, store=store, use_cache=use_cache)
