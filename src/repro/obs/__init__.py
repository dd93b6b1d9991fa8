"""repro.obs: window-level observability for the simulator loop.

One :class:`Observability` object travels with one
:class:`~repro.sim.machine.Machine` and bundles the three concerns the
paper's evaluation needs (per-window stall/MLP breakdowns, adaptivity
traces, loop-health counters):

* a :class:`~repro.obs.registry.MetricsRegistry` that the machine, the
  migration engine, the stall solver, and policies publish into,
* a bounded :class:`~repro.obs.recorder.TraceRecorder` ring of
  :class:`~repro.sim.metrics.WindowRecord` rows, which becomes the
  run's ``RunResult.trace`` (written as JSONL/CSV by
  :mod:`repro.sim.traceio`),
* a :class:`~repro.obs.profiler.SpanProfiler` for host wall-clock spans
  around the hot loop.

Telemetry has one mode: a run either carries an enabled bundle, which
records metrics *and* a bounded window trace, or it carries
``NULL_OBS``, the disabled singleton, on which every publish is a
no-op behind a single flag check and nothing is stored.  Experiment
requests opt in with ``RunRequest(trace=True)``.

Guarantees:

* **Zero perturbation** -- publishing reads simulator state, never
  mutates it: a run with observability enabled is bit-identical to the
  same run without it.
* **Deterministic telemetry** -- ``summary()`` contains only simulated
  quantities with sorted keys, so serial, parallel, and cache-restored
  runs report identical metrics.  Wall-clock spans live separately in
  ``profiler.timings()``.
* **Bounded memory** -- the recorder's ring drops the oldest windows on
  overflow and counts them (``recorder.dropped``).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.profiler import SpanProfiler
from repro.obs.recorder import DEFAULT_TRACE_CAPACITY, TraceRecorder
from repro.obs.registry import HistogramSummary, MetricsRegistry

__all__ = [
    "Observability",
    "MetricsRegistry",
    "HistogramSummary",
    "TraceRecorder",
    "SpanProfiler",
    "DEFAULT_TRACE_CAPACITY",
    "NULL_OBS",
]


class Observability:
    """Bundles a registry, a trace recorder, and a span profiler."""

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        downsample: int = 1,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.recorder = TraceRecorder(capacity=trace_capacity, downsample=downsample)
        self.profiler = SpanProfiler(enabled=enabled)

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

    def summary(self) -> Dict[str, float]:
        """Deterministic run-level metric summary (empty when disabled)."""
        if not self.enabled:
            return {}
        return self.registry.snapshot()

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Host wall-clock span totals (never part of ``summary()``)."""
        return self.profiler.timings()


#: The one disabled bundle: all publishes are no-ops, nothing is stored.
NULL_OBS = Observability(enabled=False)
