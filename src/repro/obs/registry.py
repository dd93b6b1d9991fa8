"""Metric primitives: counters, gauges, and summary histograms.

The registry is the single sink every simulator component publishes
into: :class:`~repro.sim.machine.Machine` (window counts, per-tier
utilisation and effective latency), the migration engine (promotion /
demotion / cost counters), the stall solver (fixed-point residual), and
policies (eviction-bar level, top-bin occupancy).  Three metric kinds
cover the paper's introspection needs:

* **counters** accumulate monotonically (``promoted_pages``,
  ``empty_windows``),
* **gauges** hold the latest value (``machine/tier0/util``,
  ``eviction_bar``),
* **histograms** keep count / sum / min / max so distributions
  (window durations) can be summarised without storing every sample.

Everything is plain floats in plain dicts: snapshots are deterministic
(sorted keys), JSON-serialisable, and picklable, so telemetry survives
the experiment layer's on-disk cache and worker-process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class HistogramSummary:
    """Streaming count/sum/min/max summary of one metric's samples."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self, prefix: str) -> Dict[str, float]:
        if self.count == 0:
            return {}
        return {
            f"{prefix}/count": float(self.count),
            f"{prefix}/mean": self.mean,
            f"{prefix}/min": self.minimum,
            f"{prefix}/max": self.maximum,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with deterministic export."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSummary] = {}

    # -- publishing ----------------------------------------------------------

    def count(self, name: str, delta: float = 1.0) -> None:
        """Increment a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + float(delta)

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a summary histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = HistogramSummary()
        hist.add(float(value))

    # -- reading -------------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current gauge values, sorted by name (per-window snapshot)."""
        return {name: self._gauges[name] for name in sorted(self._gauges)}

    def counters(self) -> Dict[str, float]:
        """Current counter values, sorted by name."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    def snapshot(self) -> Dict[str, float]:
        """Flat, sorted view of every metric (the run-level summary).

        Counters appear under their own name, gauges likewise, and each
        histogram expands to ``name/count|mean|min|max``.  Keys are
        sorted so two identical runs serialise identically.
        """
        flat: Dict[str, float] = {}
        flat.update(self._counters)
        flat.update(self._gauges)
        for name, hist in self._histograms.items():
            flat.update(hist.as_dict(name))
        return {name: flat[name] for name in sorted(flat)}
