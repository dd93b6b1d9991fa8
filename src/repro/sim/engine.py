"""High-level run helpers: one live run, and the two reference runs.

Every figure in the paper reports slowdown relative to an ideal
DRAM-only execution of the same workload (§5.1), with the all-slow-tier
run as the gray 'CXL' line.  :func:`ideal_baseline` and
:func:`slow_only_run` are one-request runs through the experiment
layer's campaign driver (:func:`repro.exp.runner.run_requests`): they
are cached in the shared result store under the same keys as an
experiment's reference requests, and they replay -- the first call
records the workload's stream into the default trace store, where it
stays for the ideal and slow-only runs (and any later request) of the
same workload, ``use_cache=False`` ones included (that flag skips only
the result store).  :func:`clear_baseline_cache` drops the in-process
layers of both stores.  Replay is bit-identical to live generation, so
results are those of a live run.  A failing reference run raises
:class:`~repro.exp.service.RequestExecutionError`, naming the request.

:func:`run_policy` is the uncached live run: it takes a policy
instance and an optional :class:`repro.obs.Observability` bundle (an
experiment request gets a default one with ``trace=True``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult
from repro.sim.policy_api import TieringPolicy
from repro.workloads.base import Workload
from repro.workloads.mlc import MlcContender

#: Default window budget (mirrors :meth:`Machine.run`).
DEFAULT_MAX_WINDOWS = 200_000


def run_policy(
    workload: Workload,
    policy: TieringPolicy,
    ratio: str = "1:1",
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    contender: Optional[MlcContender] = None,
    max_windows: int = DEFAULT_MAX_WINDOWS,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Run one workload under one policy at one fast:slow ratio.

    Pass an :class:`repro.obs.Observability` as ``obs`` to trace the run:
    its result then carries metric telemetry and the bounded window trace.
    """
    machine = Machine(
        workload=workload,
        policy=policy,
        config=config,
        ratio=ratio,
        contender=contender,
        seed=seed,
        obs=obs,
    )
    return machine.run(max_windows=max_windows)


def _reference_run(
    kind: str,
    workload: Workload,
    config: Optional[MachineConfig],
    seed: int,
    contender: Optional[MlcContender],
    use_cache: bool,
    max_windows: int,
) -> RunResult:
    """One reference request (``kind`` "ideal" or "slow_only") through
    the campaign driver.

    ``runner.execute_request`` maps the kind to its policy and fast-tier
    capacity.  ``jobs=1``: a one-request run never spawns a pool (and a
    lambda factory could not cross one).
    """
    # Imported lazily so the sim layer never depends on repro.exp at
    # module-load time (repro.exp builds on the sim layer).
    from repro.exp.runner import run_requests
    from repro.exp.spec import RunRequest, WorkloadSpec

    request = RunRequest(
        workload=WorkloadSpec.from_factory(lambda: workload),
        kind=kind,
        config=config,
        seed=seed,
        contender=contender,
        max_windows=max_windows,
    )
    return run_requests([request], jobs=1, use_cache=use_cache)[request]


def ideal_baseline(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    contender: Optional[MlcContender] = None,
    use_cache: bool = True,
    max_windows: int = DEFAULT_MAX_WINDOWS,
) -> RunResult:
    """All-in-DRAM run of the workload (the slowdown denominator).

    Cached and replayed like any experiment request (module docstring).
    ``use_cache=False`` skips the result store only: the run still
    replays the workload's stream from the default trace store.
    """
    return _reference_run(
        "ideal", workload, config, seed, contender, use_cache, max_windows
    )


def slow_only_run(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    contender: Optional[MlcContender] = None,
    use_cache: bool = True,
    max_windows: int = DEFAULT_MAX_WINDOWS,
) -> RunResult:
    """All-in-slow-tier run (the gray 'CXL' line in the figures).

    Cached and replayed like :func:`ideal_baseline`, with the same
    ``use_cache`` meaning.
    """
    return _reference_run(
        "slow_only", workload, config, seed, contender, use_cache, max_windows
    )


def clear_baseline_cache() -> None:
    """Drop the in-process layers of the shared result and trace stores.

    Disk entries (when a cache directory is configured) survive; delete
    the directory or run with ``REPRO_NO_CACHE=1`` for a cold start.
    """
    from repro.exp.cache import get_default_store
    from repro.workloads.tracestore import get_default_trace_store

    get_default_store().clear_memory()
    get_default_trace_store().clear_memory()
