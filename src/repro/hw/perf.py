"""Processor-level performance counters (the "perf" view).

This registry exposes exactly the signals a tiering policy can read on
real hardware: cumulative LLC misses per tier, aggregate stall cycles,
elapsed cycles, and per-tier byte traffic (for occupancy-derived latency
signals a la Colloid).  Like :mod:`repro.hw.cha`, reads carry small
multiplicative noise -- one keyed (miss, stall) factor pair per tier
and window (:mod:`repro.hw.substream`) -- so estimators downstream are
stressed realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.hw.stall import WindowHardware
from repro.mem.page import Tier, tier_key


@dataclass
class PerfSnapshot:
    """Cumulative counter values at one instant."""

    cycles: float = 0.0
    llc_misses: Dict[Tier, float] = field(default_factory=dict)
    stall_cycles: Dict[Tier, float] = field(default_factory=dict)
    bytes: Dict[Tier, float] = field(default_factory=dict)
    effective_latency_cycles: Dict[Tier, float] = field(default_factory=dict)

    def delta(self, earlier: "PerfSnapshot") -> "PerfDelta":
        return PerfDelta(
            cycles=self.cycles - earlier.cycles,
            llc_misses={t: self.llc_misses[t] - earlier.llc_misses.get(t, 0.0) for t in self.llc_misses},
            stall_cycles={t: self.stall_cycles[t] - earlier.stall_cycles.get(t, 0.0) for t in self.stall_cycles},
            bytes={t: self.bytes[t] - earlier.bytes.get(t, 0.0) for t in self.bytes},
            effective_latency_cycles=dict(self.effective_latency_cycles),
        )


@dataclass
class PerfDelta:
    """Counter deltas over one observation interval."""

    cycles: float
    llc_misses: Dict[Tier, float]
    stall_cycles: Dict[Tier, float]
    bytes: Dict[Tier, float]
    #: Last-observed loaded latency per tier (occupancy-derived signal).
    effective_latency_cycles: Dict[Tier, float]

    @property
    def total_llc_misses(self) -> float:
        return sum(self.llc_misses.values())

    @property
    def total_stall_cycles(self) -> float:
        return sum(self.stall_cycles.values())


class PerfCounters:
    """Cumulative processor counters, advanced once per window."""

    def __init__(self, num_tiers: int = 2):
        self._cycles = 0.0
        tiers = [tier_key(t) for t in range(num_tiers)]
        self._llc_misses = {t: 0.0 for t in tiers}
        self._stalls = {t: 0.0 for t in tiers}
        self._bytes = {t: 0.0 for t in tiers}
        self._latency = {t: 0.0 for t in tiers}

    def advance(self, outcome: WindowHardware, jitter: Optional[np.ndarray] = None) -> None:
        """Account one solved window into the cumulative counters.

        ``jitter``, when given, supplies the window's ``2 * num_tiers``
        multiplicative noise factors (miss, stall interleaved in tier
        order), drawn by the machine from a keyed substream
        (:class:`repro.hw.substream.KeyedJitter`).
        """
        self._cycles += outcome.duration_cycles
        k = 0
        for tier, load in outcome.tier_loads.items():
            misses = load.misses
            stalls = load.stall_cycles
            if jitter is not None:
                misses *= float(jitter[k])
                stalls *= float(jitter[k + 1])
            self._llc_misses[tier] += misses
            self._stalls[tier] += stalls
            self._bytes[tier] += load.bytes
            self._latency[tier] = load.effective_latency_cycles
            k += 2

    def read(self) -> PerfSnapshot:
        return PerfSnapshot(
            cycles=self._cycles,
            llc_misses=dict(self._llc_misses),
            stall_cycles=dict(self._stalls),
            bytes=dict(self._bytes),
            effective_latency_cycles=dict(self._latency),
        )
