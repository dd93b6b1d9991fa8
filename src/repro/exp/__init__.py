"""Unified experiment orchestration: specs, caching, sweeps.

The layer every consumer of the simulator goes through.  Every grid
takes one path -- spec -> ``CampaignDriver`` -> result store:

* :mod:`repro.exp.spec` -- declarative grids (``ExperimentSpec``) and
  single runs (``RunRequest``) with content fingerprints,
* :mod:`repro.exp.cache` -- fingerprints, cache keys and the in-process
  result store, shared with the engine's ideal/slow-only baseline
  helpers,
* :mod:`repro.exp.store` -- the on-disk result store: one SQLite
  database per cache directory (batched commits, WAL),
* :mod:`repro.exp.service` -- the campaign driver, the one executor of
  experiment grids: in-process or over a persistent worker pool, with
  per-request failure isolation,
* :mod:`repro.exp.runner` -- ``run_requests``/``run_experiment`` (the
  driver with no retries), the request executors, and indexed results,
* :mod:`repro.exp.report` -- the paper's recurring table shapes.
"""

from repro.exp.cache import (
    CACHE_VERSION,
    ResultStore,
    content_hash,
    get_default_store,
    reset_default_store,
    set_default_store,
    workload_fingerprint,
)
from repro.exp.runner import (
    ExperimentResult,
    execute_request,
    run_experiment,
    run_requests,
)
from repro.exp.service import (
    CampaignDriver,
    CampaignResult,
    FailureRecord,
    RequestExecutionError,
    WorkerPool,
    resolve_jobs,
    run_campaign,
)
from repro.exp.spec import (
    DEFAULT_MAX_WINDOWS,
    ExperimentSpec,
    PolicySpec,
    RunRequest,
    WorkloadSpec,
)
from repro.exp.store import SqliteResultStore

__all__ = [
    "CACHE_VERSION",
    "CampaignDriver",
    "CampaignResult",
    "DEFAULT_MAX_WINDOWS",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureRecord",
    "PolicySpec",
    "RequestExecutionError",
    "ResultStore",
    "RunRequest",
    "SqliteResultStore",
    "WorkerPool",
    "WorkloadSpec",
    "content_hash",
    "execute_request",
    "get_default_store",
    "reset_default_store",
    "resolve_jobs",
    "run_campaign",
    "run_experiment",
    "run_requests",
    "set_default_store",
    "workload_fingerprint",
]
