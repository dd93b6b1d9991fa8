"""Span-style wall-clock profiling for the simulator's hot loop.

``with obs.profile("stall_solve"):`` accumulates wall time and call
counts per label, so large sweeps can report where host time actually
goes (solver vs. policy vs. migration) without an external profiler.

Timings are *observability of the simulator process*, not simulated
results: they are intentionally kept out of
:meth:`MetricsRegistry.snapshot` / ``RunResult.metrics_summary`` so the
deterministic-telemetry guarantee (serial == parallel == cached) is
never polluted by wall-clock noise.
"""

from __future__ import annotations

import time
from typing import Dict


class _Span:
    """Context manager timing one labelled region."""

    __slots__ = ("_profiler", "_label", "_start")

    def __init__(self, profiler: "SpanProfiler", label: str) -> None:
        self._profiler = profiler
        self._label = label

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._add(self._label, time.perf_counter() - self._start)


class _NullSpan:
    """Shared do-nothing span for disabled profilers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def null_profile(label: str) -> _NullSpan:  # noqa: ARG001
    """Module-level no-op span factory.

    Components that hold a ``profile`` handle (policies, the migration
    engine) default to this when no observability bundle is attached,
    so their hot paths stay branch-free: ``with self._profile(label):``
    costs one no-op context manager either way.
    """
    return _NULL_SPAN


class SpanProfiler:
    """Accumulates (total seconds, calls) per span label."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def profile(self, label: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, label)

    def _add(self, label: str, seconds: float) -> None:
        self._seconds[label] = self._seconds.get(label, 0.0) + seconds
        self._calls[label] = self._calls.get(label, 0) + 1

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Per-label ``{"seconds": total, "calls": n}``, sorted by label."""
        return {
            label: {"seconds": self._seconds[label], "calls": float(self._calls[label])}
            for label in sorted(self._seconds)
        }
