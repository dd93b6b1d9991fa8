"""Run results, window traces, and the paper's slowdown metric."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.units import cycles_to_ms
from repro.mem.page import tier_from_label, tier_label


@dataclass
class WindowRecord:
    """Per-window trace row (kept only when the run is traced).

    Counts are ints (``Machine._record`` casts them), so a trace
    re-serialises ``5``, never ``5.0``.
    """

    window: int
    duration_cycles: float
    stall_cycles: float
    slow_misses: int
    fast_misses: int
    promoted: int
    demoted: int
    mlp_slow: float
    mlp_fast: float
    fast_resident_fraction: float
    phase: str = ""
    policy_debug: Dict[str, float] = field(default_factory=dict)
    #: Ground-truth stall cycles per traffic-label prefix (the text
    #: before ':' in a group label) -- lets colocation benches attribute
    #: stalls to individual co-running processes.
    label_stalls: Dict[str, float] = field(default_factory=dict)
    #: Observability gauge snapshot for this window (per-tier utilisation
    #: and effective latency, eviction-bar level, solver residual, ...).
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of one full simulation."""

    workload: str
    policy: str
    ratio: str
    runtime_cycles: float
    windows: int
    promoted: int
    demoted: int
    migration_cost_cycles: float
    total_stall_cycles: float
    total_misses: float
    #: LLC misses per tier, keyed by tier code (``Tier.FAST``/``Tier.SLOW``
    #: index it too); a dict because it is the stored document's shape.
    tier_misses: Dict[int, float]
    #: Windows in which the workload emitted no traffic (idle phases).
    #: They count toward ``windows`` and the ``max_windows`` budget.
    empty_windows: int = 0
    trace: Optional[List[WindowRecord]] = None
    #: Workload-reported end-of-run metrics (``Workload.final_metrics``),
    #: e.g. per-member finish windows for colocated workloads.  Must stay
    #: JSON-serialisable so results survive the on-disk experiment cache.
    workload_metrics: Dict[str, Any] = field(default_factory=dict)
    #: Page ids resident in the fast tier when the run ended (recorded
    #: only for traced runs; lets benches inspect final placement even
    #: when the run executed in a worker process or came from cache).
    fast_pages: Optional[List[int]] = None
    #: Run-level observability snapshot (:meth:`Observability.summary`):
    #: deterministic, JSON-serialisable, empty when observability is off.
    #: Travels through the experiment cache and worker processes so
    #: cached and parallel runs carry identical telemetry.
    metrics_summary: Dict[str, float] = field(default_factory=dict)

    @property
    def runtime_ms(self) -> float:
        return cycles_to_ms(self.runtime_cycles)

    def slowdown(self, baseline: "RunResult") -> float:
        """Normalised slowdown vs. an ideal run (0.25 = 25% slower, §5.1)."""
        if baseline.runtime_cycles <= 0:
            raise ValueError("baseline runtime must be positive")
        return self.runtime_cycles / baseline.runtime_cycles - 1.0


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """The one JSON document of a run result.

    The result store persists exactly this, ``write_json`` writes it,
    and cache-equality and digest checks compare it.  Tiers are keyed
    by their stable labels (``FAST``, ``SLOW``, ``TIER2``, ...).
    """
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
            None if result.trace is None else [dataclasses.asdict(r) for r in result.trace]
        ),
        "workload_metrics": result.workload_metrics,
        "fast_pages": result.fast_pages,
        "metrics_summary": result.metrics_summary,
    }


def result_from_dict(doc: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
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


def improvement(slowdown_self: float, slowdown_other: float) -> float:
    """Paper-style improvement: runtime reduction of self vs. other.

    Both arguments are slowdowns relative to the same ideal baseline, so
    runtimes are proportional to (1 + slowdown).
    """
    return (1.0 + slowdown_other) / (1.0 + slowdown_self) - 1.0
