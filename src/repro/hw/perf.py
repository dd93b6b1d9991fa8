"""Processor-level performance counters (the "perf" view).

This registry exposes exactly the signals a tiering policy can read on
real hardware: cumulative LLC misses per tier, aggregate stall cycles,
elapsed cycles, and per-tier byte traffic (for occupancy-derived latency
signals a la Colloid).  Per-tier counters are lists indexed by tier
code.  Like :mod:`repro.hw.cha`, reads carry small multiplicative
noise -- one keyed (miss, stall) factor pair per tier and window
(:mod:`repro.hw.substream`) -- so estimators downstream are stressed
realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hw.stall import WindowHardware


@dataclass
class PerfSnapshot:
    """Cumulative counter values at one instant, per tier by tier code."""

    cycles: float = 0.0
    llc_misses: List[float] = field(default_factory=list)
    stall_cycles: List[float] = field(default_factory=list)
    bytes: List[float] = field(default_factory=list)
    effective_latency_cycles: List[float] = field(default_factory=list)

    def delta(self, earlier: "PerfSnapshot") -> "PerfDelta":
        return PerfDelta(
            cycles=self.cycles - earlier.cycles,
            llc_misses=[a - b for a, b in zip(self.llc_misses, earlier.llc_misses)],
            stall_cycles=[a - b for a, b in zip(self.stall_cycles, earlier.stall_cycles)],
            bytes=[a - b for a, b in zip(self.bytes, earlier.bytes)],
            effective_latency_cycles=list(self.effective_latency_cycles),
        )


@dataclass
class PerfDelta:
    """Counter deltas over one observation interval, per tier by tier code."""

    cycles: float
    llc_misses: List[float]
    stall_cycles: List[float]
    bytes: List[float]
    #: Last-observed loaded latency per tier (occupancy-derived signal).
    effective_latency_cycles: List[float]

    @property
    def total_llc_misses(self) -> float:
        return sum(self.llc_misses)

    @property
    def total_stall_cycles(self) -> float:
        return sum(self.stall_cycles)


class PerfCounters:
    """Cumulative processor counters, advanced once per window."""

    def __init__(self, num_tiers: int = 2):
        self._cycles = 0.0
        self._llc_misses = [0.0] * num_tiers
        self._stalls = [0.0] * num_tiers
        self._bytes = [0.0] * num_tiers
        self._latency = [0.0] * num_tiers

    def advance(self, outcome: WindowHardware, jitter: Optional[np.ndarray] = None) -> None:
        """Account one solved window into the cumulative counters.

        ``jitter``, when given, supplies the window's ``2 * num_tiers``
        multiplicative noise factors (miss, stall interleaved in tier
        order), drawn by the machine from a keyed substream
        (:class:`repro.hw.substream.KeyedJitter`).
        """
        self._cycles += outcome.duration_cycles
        for tier, load in enumerate(outcome.tier_loads):
            misses = load.misses
            stalls = load.stall_cycles
            if jitter is not None:
                misses *= float(jitter[2 * tier])
                stalls *= float(jitter[2 * tier + 1])
            self._llc_misses[tier] += misses
            self._stalls[tier] += stalls
            self._bytes[tier] += load.bytes
            self._latency[tier] = load.effective_latency_cycles

    def read(self) -> PerfSnapshot:
        return PerfSnapshot(
            cycles=self._cycles,
            llc_misses=list(self._llc_misses),
            stall_cycles=list(self._stalls),
            bytes=list(self._bytes),
            effective_latency_cycles=list(self._latency),
        )
