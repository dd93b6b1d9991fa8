"""repro.obs: window-level observability for the simulator loop.

One :class:`Observability` object travels with one
:class:`~repro.sim.machine.Machine` and bundles the three concerns the
paper's evaluation needs (per-window stall/MLP breakdowns, adaptivity
traces, loop-health counters):

* a :class:`~repro.obs.registry.MetricsRegistry` that the machine, the
  migration engine, the stall solver, and policies publish into,
* a bounded :class:`~repro.obs.recorder.TraceRecorder` ring buffer of
  :class:`~repro.sim.metrics.WindowRecord` rows (written as JSONL/CSV by
  :mod:`repro.sim.traceio`),
* a :class:`~repro.obs.profiler.SpanProfiler` for host wall-clock spans
  around the hot loop.

Guarantees:

* **Zero perturbation** -- publishing reads simulator state, never
  mutates it: a run with observability enabled is bit-identical to the
  same run without it, and cache fingerprints ignore disabled
  observability entirely.
* **Deterministic telemetry** -- ``summary()`` contains only simulated
  quantities with sorted keys, so serial, parallel, and cache-restored
  runs report identical metrics.  Wall-clock spans live separately in
  ``profiler.timings()``.
* **Bounded memory** -- the recorder's ring replaces the old unbounded
  trace list; overflow drops the oldest windows and reports the count.

``NULL_OBS`` is the disabled singleton a machine uses when nothing asks
for telemetry: every publish is a no-op behind a single flag check.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.obs.profiler import SpanProfiler
from repro.obs.recorder import (
    DEFAULT_TRACE_CAPACITY,
    NullRecorder,
    TraceRecorder,
)
from repro.obs.registry import HistogramSummary, MetricsRegistry

__all__ = [
    "Observability",
    "MetricsRegistry",
    "HistogramSummary",
    "TraceRecorder",
    "NullRecorder",
    "SpanProfiler",
    "DEFAULT_TRACE_CAPACITY",
    "NULL_OBS",
]


class Observability:
    """Bundles a registry, a trace recorder, and a span profiler."""

    def __init__(
        self,
        enabled: bool = True,
        trace: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        downsample: int = 1,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.recorder: Union[TraceRecorder, NullRecorder]
        if enabled and trace:
            self.recorder = TraceRecorder(capacity=trace_capacity, downsample=downsample)
        else:
            self.recorder = NullRecorder()
        self.profiler = SpanProfiler(enabled=enabled)

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False, trace=False)

    @property
    def wants_trace(self) -> bool:
        """Whether window records should be built and retained."""
        return self.recorder.keeps_records

    # -- publishing (no-ops when disabled) -----------------------------------

    def count(self, name: str, delta: float = 1.0) -> None:
        if self.enabled:
            self.registry.count(name, delta)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.observe(name, value)

    def profile(self, label: str):
        """Span context manager; a shared no-op span when disabled."""
        return self.profiler.profile(label)

    # -- reading -------------------------------------------------------------

    def window_metrics(self) -> Dict[str, float]:
        """Current gauges (the per-window metric snapshot for traces)."""
        if not self.enabled:
            return {}
        return self.registry.gauges()

    def summary(self) -> Dict[str, float]:
        """Deterministic run-level metric summary (empty when disabled)."""
        if not self.enabled:
            return {}
        return self.registry.snapshot()

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Host wall-clock span totals (never part of ``summary()``)."""
        return self.profiler.timings()


#: Shared disabled instance: all publishes are no-ops, nothing is stored.
NULL_OBS = Observability.disabled()


def resolve(obs: Optional[Observability], trace: bool) -> Observability:
    """The observability a machine should use.

    An explicit ``obs`` wins; otherwise ``trace=True`` gets a fresh
    enabled bundle (metrics + ring-buffer trace) and ``trace=False``
    gets the shared no-op singleton -- the pre-observability fast path.
    """
    if obs is not None:
        return obs
    if trace:
        return Observability()
    return NULL_OBS
