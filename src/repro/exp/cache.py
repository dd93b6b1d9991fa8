"""Content-addressed result cache for the experiment layer.

Every run is identified by a *fingerprint*: a canonical JSON document
covering everything that determines its outcome -- workload parameters,
the full :class:`MachineConfig`, policy identity and kwargs, seed,
contender bandwidth parameters, the window budget, and whether tracing
was on.  The SHA-256 of that document is the run's content address.

:class:`ResultStore` is the in-process layer: a dict from content
address to result.  Its one on-disk subclass,
:class:`~repro.exp.store.SqliteResultStore`, persists into
``<cache-dir>/results.sqlite`` so baselines computed by one bench
process are reused by the next.  The default store (on disk when
``REPRO_CACHE_DIR`` is set) is shared with :mod:`repro.sim.engine`'s
baseline helpers, so engine-level and runner-level runs share entries.

Bump :data:`CACHE_VERSION` whenever the simulator's behaviour changes in
a result-visible way; stale entries are then ignored (and benches can
always be forced fresh with ``REPRO_NO_CACHE=1`` or by deleting the
cache directory).
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.mem.page import tier_from_label, tier_label
from repro.sim.metrics import RunResult, WindowRecord

#: Schema/behaviour version of cached entries.  v2: simulator loop
#: fixes (empty windows count toward the budget, eviction-bar decay,
#: THP promotion-budget clamp) make results differ from v1 entries.
#: v3: PEBS records come from one keyed geometric-gap draw and counter
#: jitter from keyed substreams, so every stochastic result moved.
CACHE_VERSION = 3

#: Environment variable selecting a disk directory for the default store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk layer entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"


# -- canonical fingerprints ---------------------------------------------------


def canonical(obj: Any) -> Any:
    """A deterministic, JSON-serialisable view of ``obj``.

    Dataclasses are tagged with their class name so two configs of
    different types never alias; enums collapse to ``Class.NAME``.

    A dataclass may name fields in a ``_canonical_omit_none`` class
    attribute: those are dropped from the document while ``None``, so a
    later-added optional field (e.g. ``MachineConfig.topology``) does
    not change the fingerprint of configs that never set it -- existing
    cache keys survive the field's introduction.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {"__class__": type(obj).__qualname__}
        omit_none = getattr(type(obj), "_canonical_omit_none", ())
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None and f.name in omit_none:
                continue
            doc[f.name] = canonical(value)
        return doc
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return canonical(item())
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r}; experiment specs must be "
        "built from plain data (numbers, strings, dataclasses, enums)"
    )


def workload_fingerprint(workload) -> Dict[str, Any]:
    """Identity of a workload *instance* for cache keying.

    Captures the base parameters every :class:`Workload` carries plus,
    recursively, the members of colocated workloads (whose access mix
    differs even at identical aggregate parameters).

    Replaying workloads (:mod:`repro.workloads.tracestore`) carry the
    fingerprint of the *recorded* workload and expose it via
    ``replay_fingerprint``; honouring it here means a replayed run and a
    live run of the same workload share one cache identity -- replay is
    an execution detail, never a result-key input.
    """
    replay_fp = getattr(workload, "replay_fingerprint", None)
    if replay_fp is not None:
        return copy.deepcopy(replay_fp)
    fp: Dict[str, Any] = {
        "class": type(workload).__qualname__,
        "name": workload.name,
        "seed": workload.seed,
        "footprint_pages": workload.footprint_pages,
        "total_misses": workload.total_misses,
        "misses_per_window": workload.misses_per_window,
        "compute_cycles_per_miss": workload.compute_cycles_per_miss,
    }
    members = getattr(workload, "members", None)
    if members:
        fp["members"] = [workload_fingerprint(m) for m in members]
    return fp


def run_fingerprint(
    kind: str,
    workload_fp: Dict[str, Any],
    policy_fp: Optional[Dict[str, Any]],
    ratio: Optional[str],
    seed: int,
    config,
    contender,
    max_windows: int,
    trace: bool,
    obs: bool = False,
) -> Dict[str, Any]:
    """The complete cache key document for one run.

    Unlike the old engine-local key this includes ``max_windows`` and
    the contender's full parameter set (tier and per-thread bandwidth,
    not just its thread count), so differently-configured runs can never
    alias.

    ``obs`` marks runs that carry an observability bundle (their results
    include telemetry).  It is added to the document *only when set*:
    observability-off runs keep exactly the fingerprint they had before
    the observability layer existed.
    """
    doc = {
        "version": CACHE_VERSION,
        "kind": kind,
        "workload": workload_fp,
        "policy": policy_fp,
        "ratio": ratio,
        "seed": seed,
        "config": canonical(config),
        "contender": canonical(contender),
        "max_windows": max_windows,
        "trace": bool(trace),
    }
    if obs:
        doc["obs"] = True
    return doc


def content_hash(fingerprint: Dict[str, Any]) -> str:
    """SHA-256 content address of a fingerprint document."""
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- RunResult <-> JSON -------------------------------------------------------


def _record_to_dict(rec: WindowRecord) -> Dict[str, Any]:
    return dataclasses.asdict(rec)


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "policy": result.policy,
        "ratio": result.ratio,
        "runtime_cycles": result.runtime_cycles,
        "windows": result.windows,
        "promoted": result.promoted,
        "demoted": result.demoted,
        "migration_cost_cycles": result.migration_cost_cycles,
        "total_stall_cycles": result.total_stall_cycles,
        "total_misses": result.total_misses,
        "tier_misses": {tier_label(tier): float(v) for tier, v in result.tier_misses.items()},
        "empty_windows": result.empty_windows,
        "trace": (
            None if result.trace is None else [_record_to_dict(r) for r in result.trace]
        ),
        "workload_metrics": result.workload_metrics,
        "fast_pages": result.fast_pages,
        "metrics_summary": result.metrics_summary,
    }


def result_from_dict(doc: Dict[str, Any]) -> RunResult:
    trace = doc.get("trace")
    return RunResult(
        workload=doc["workload"],
        policy=doc["policy"],
        ratio=doc["ratio"],
        runtime_cycles=doc["runtime_cycles"],
        windows=doc["windows"],
        promoted=doc["promoted"],
        demoted=doc["demoted"],
        migration_cost_cycles=doc["migration_cost_cycles"],
        total_stall_cycles=doc["total_stall_cycles"],
        total_misses=doc["total_misses"],
        tier_misses={tier_from_label(name): v for name, v in doc["tier_misses"].items()},
        empty_windows=doc.get("empty_windows", 0),
        trace=None if trace is None else [WindowRecord(**rec) for rec in trace],
        workload_metrics=doc.get("workload_metrics") or {},
        fast_pages=doc.get("fast_pages"),
        metrics_summary=doc.get("metrics_summary") or {},
    )


# -- the store ----------------------------------------------------------------


class ResultStore:
    """Content-addressed result cache: the in-process layer.

    Subclasses persist by overriding the ``_load``/``_publish`` hooks
    (and ``flush``/``close``); ``get``/``put`` stay the same for all.
    """

    def __init__(self):
        self._memory: Dict[str, RunResult] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.puts = 0

    def get(self, key: str) -> Optional[RunResult]:
        cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        result = self._load(key)
        if result is not None:
            self._memory[key] = result
            self.disk_hits += 1
            return result
        self.misses += 1
        return None

    def _load(self, key: str) -> Optional[RunResult]:
        """Read ``key`` from the persistent layer (None = miss)."""
        return None

    def put(self, key: str, result: RunResult, fingerprint: Optional[dict] = None) -> None:
        self._memory[key] = result
        self.puts += 1
        self._publish(key, result, fingerprint)

    def _publish(
        self, key: str, result: RunResult, fingerprint: Optional[dict]
    ) -> None:
        """Write ``key`` to the persistent layer (no-op in memory)."""

    def flush(self) -> None:
        """Make every put durable (no-op in memory)."""

    def close(self) -> None:
        """Flush and release the persistent layer (no-op in memory)."""

    def clear_memory(self) -> None:
        """Drop the in-process layer (persisted entries survive)."""
        self._memory.clear()

    def clear(self) -> None:
        """Drop every entry, persisted ones included."""
        self.clear_memory()

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
        }

    def summary(self) -> str:
        return self._summary("memory-only")

    def _summary(self, where: str) -> str:
        s = self.stats()
        return (
            f"cache [{where}]: {s['memory_hits']} memory hits, "
            f"{s['disk_hits']} disk hits, {s['misses']} misses, {s['puts']} stored"
        )


# -- default-store plumbing ---------------------------------------------------

_default_store: Optional[ResultStore] = None


def get_default_store() -> ResultStore:
    """The process-wide store used by engine baselines and the runner.

    A :class:`~repro.exp.store.SqliteResultStore` under
    ``REPRO_CACHE_DIR`` when that is set (and ``REPRO_NO_CACHE`` is
    not); the in-process layer otherwise.
    """
    global _default_store
    if _default_store is None:
        directory = None if os.environ.get(NO_CACHE_ENV) else os.environ.get(CACHE_DIR_ENV)
        if directory:
            from repro.exp.store import SqliteResultStore  # builds on this module

            _default_store = SqliteResultStore(directory)
        else:
            _default_store = ResultStore()
    return _default_store


def set_default_store(store: ResultStore) -> ResultStore:
    global _default_store
    _default_store = store
    return store


def reset_default_store() -> None:
    """Forget the configured store; the next use re-reads the environment."""
    global _default_store
    _default_store = None
