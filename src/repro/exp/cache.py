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
``REPRO_CACHE_DIR`` is set) is the campaign driver's, and every cached
run goes through the driver -- :mod:`repro.sim.engine`'s reference
helpers included -- so engine-level and grid-level runs share entries.

Bump :data:`CACHE_VERSION` whenever the simulator's behaviour changes in
a result-visible way; stale entries are then ignored (and benches can
always be forced fresh with ``REPRO_NO_CACHE=1`` or by deleting the
cache directory).
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.sim.metrics import RunResult
# The store's document (and its inverse), re-exported beside the store.
from repro.sim.metrics import result_from_dict as result_from_dict
from repro.sim.metrics import result_to_dict as result_to_dict

#: Schema/behaviour version of cached entries.  v2: simulator loop
#: fixes (empty windows count toward the budget, eviction-bar decay,
#: THP promotion-budget clamp) make results differ from v1 entries.
#: v3: PEBS records come from one keyed geometric-gap draw and counter
#: jitter from keyed substreams, so every stochastic result moved.
#: v4: the machine has one tier description (``MachineConfig.topology``,
#: always in the key), every workload knob is keyed, THP PACT carries
#: its promotion credit across windows, and N-tier cascades protect the
#: window's promotions.
CACHE_VERSION = 4

#: Environment variable selecting a disk directory for the default store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk layer entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"


# -- canonical fingerprints ---------------------------------------------------


def canonical(obj: Any) -> Any:
    """A deterministic, JSON-serialisable view of ``obj``.

    Dataclasses are tagged with their class name and list every field,
    so two configs of different types never alias; enums collapse to
    ``Class.NAME``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {"__class__": type(obj).__qualname__}
        for f in dataclasses.fields(obj):
            doc[f.name] = canonical(getattr(obj, f.name))
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

    Captures the base parameters every :class:`Workload` carries, the
    subclass's own generator parameters (:meth:`Workload.knobs`, defaults
    included), and, recursively, the members of colocated workloads
    (whose access mix differs even at identical aggregate parameters).

    Replaying workloads (:mod:`repro.workloads.tracestore`) expose
    ``replay_fingerprint``: a replay of a complete recording passes the
    *recorded* workload's fingerprint through, so a replayed run and a
    live run of the same workload share one cache identity -- replay is
    an execution detail, never a result-key input.  A truncated
    replay's names what differs, since it runs another stream.
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
    fp["knobs"] = canonical(workload.knobs())
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
) -> Dict[str, Any]:
    """The complete cache key document for one run.

    Unlike the old engine-local key this includes ``max_windows`` and
    the contender's full parameter set (tier and per-thread bandwidth,
    not just its thread count), so differently-configured runs can never
    alias.
    """
    return {
        "version": CACHE_VERSION,
        "kind": kind,
        "workload": workload_fp,
        "policy": policy_fp,
        "ratio": ratio,
        "seed": seed,
        "config": _canonical_config(config),
        "contender": canonical(contender),
        "max_windows": max_windows,
        "trace": bool(trace),
    }


@functools.lru_cache(maxsize=64)
def _canonical_config(config) -> Dict[str, Any]:
    """``canonical(config)``, memoised: a grid's requests share a handful
    of (frozen, hashable) machine configs, and walking one costs more
    than the rest of a request key.  Fingerprints share the returned
    document, so callers must not mutate it."""
    return canonical(config)


def content_hash(fingerprint: Dict[str, Any]) -> str:
    """SHA-256 content address of a fingerprint document."""
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    """The process-wide store the campaign driver uses unless given one.

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
