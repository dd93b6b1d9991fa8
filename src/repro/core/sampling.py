"""The PAC sampling pipeline (§4.3, Algorithm 1).

Every sampling period (default one 20 ms window) the sampler:

1. reads per-tier MLP from TOR counter deltas: ``MLP = dT1 / dT2``,
2. estimates slow-tier stalls via Equation 1: ``S = k * misses / MLP``,
3. attributes ``S`` across PEBS-sampled pages proportionally to their
   sampled access counts (``S_p = S * A_p / A_t``), or latency-weighted
   when per-record latencies are available (§4.3.7),
4. folds ``S_p`` into the per-page PAC accumulator with optional
   cooling: ``PAC[p] <- alpha * PAC[p] + S_p``.

Periods longer than one window aggregate counter deltas and PEBS
batches before attributing, exactly as a longer perf interval would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.cooling import CoolingConfig
from repro.core.pac import PacModelCoefficients, attribute_stalls
from repro.core.tracker import PacTracker
from repro.sim.policy_api import Observation


@dataclass
class _PeriodAccumulator:
    """Counter deltas and PEBS records gathered within one period."""

    slow_misses: float = 0.0
    tor_occupancy: float = 0.0
    tor_busy: float = 0.0
    slow_bytes: float = 0.0
    cycles: float = 0.0
    pages: Optional[List[np.ndarray]] = None
    counts: Optional[List[np.ndarray]] = None
    latencies: Optional[List[np.ndarray]] = None
    windows: int = 0

    def __post_init__(self) -> None:
        self.pages = []
        self.counts = []
        self.latencies = []


class PacSampler:
    """Algorithm 1 over a stream of window observations."""

    def __init__(
        self,
        tracker: PacTracker,
        coefficients: PacModelCoefficients,
        cooling: Optional[CoolingConfig] = None,
        period_windows: int = 1,
        latency_weighted: bool = False,
        mlp_source: str = "tor",
        slow_latency_ns: float = 190.0,
        freq_ghz: float = 2.2,
    ):
        if period_windows < 1:
            raise ValueError("period must be at least one window")
        if mlp_source not in ("tor", "littles_law"):
            raise ValueError("mlp_source must be 'tor' or 'littles_law'")
        self.tracker = tracker
        self.coefficients = coefficients
        self.cooling = cooling if cooling is not None else CoolingConfig.none()
        self.period_windows = period_windows
        self.latency_weighted = latency_weighted
        #: MLP measurement path: ``"tor"`` uses CHA/TOR occupancy deltas
        #: (Intel); ``"littles_law"`` estimates MLP as latency x
        #: bandwidth / 64B from link-byte counters (the AMD path,
        #: §4.2.2).  The latter overestimates absolute MLP (prefetch
        #: bytes) but tracks its temporal variation, which is what PAC
        #: needs; calibration of ``k`` absorbs the constant factor.
        self.mlp_source = mlp_source
        self.slow_latency_ns = slow_latency_ns
        self.freq_ghz = freq_ghz
        self._acc = _PeriodAccumulator()
        #: Most recent period's estimated slow-tier stalls and MLP.
        self.last_stall_estimate = 0.0
        self.last_mlp = 1.0

    def ingest(self, obs: Observation) -> bool:
        """Fold one window in; True when a full period was attributed."""
        acc = self._acc
        # "Slow" aggregates every tier below tier 0 (one term on the
        # default pair; per-tier adds in nearest-first order beyond).
        for tier in obs.lower_tiers:
            acc.slow_misses += obs.perf.llc_misses[tier]
            acc.tor_occupancy += obs.tor_occupancy_delta[tier]
            acc.tor_busy += obs.tor_busy_delta[tier]
            acc.slow_bytes += obs.perf.bytes[tier]
        acc.cycles += obs.window_cycles
        if obs.pebs.pages.size:
            acc.pages.append(obs.pebs.pages)
            acc.counts.append(obs.pebs.counts)
            if obs.pebs.latencies is not None:
                acc.latencies.append(obs.pebs.latencies)
        acc.windows += 1
        if acc.windows < self.period_windows:
            return False
        self._attribute(acc)
        self._acc = _PeriodAccumulator()
        return True

    # -- Algorithm 1 core -----------------------------------------------------------

    def _attribute(self, acc: _PeriodAccumulator) -> None:
        # Line 1: per-tier MLP from aggregated counter deltas.
        if self.mlp_source == "tor":
            mlp = acc.tor_occupancy / acc.tor_busy if acc.tor_busy > 0 else 1.0
        else:
            from repro.hw.cha import littles_law_mlp

            duration_ns = acc.cycles / self.freq_ghz
            mlp = littles_law_mlp(acc.slow_bytes, self.slow_latency_ns, duration_ns)
        mlp = max(mlp, 1.0)
        # Line 2: Equation-1 slow-tier stall estimate.
        stalls = self.coefficients.tier_stalls(acc.slow_misses, mlp)
        self.last_mlp = mlp
        self.last_stall_estimate = stalls
        if not acc.pages:
            return
        pages, counts, latencies = self._merge(acc)
        # Lines 5-8: proportional (or latency-weighted) attribution.
        weights_latencies = latencies if self.latency_weighted else None
        attributed = attribute_stalls(stalls, counts, weights_latencies)
        self.tracker.update(pages, attributed, counts, alpha=self.cooling.alpha)
        self.cooling.apply_distance_cooling(self.tracker)

    @staticmethod
    def _merge(acc: _PeriodAccumulator):
        """Merge per-window PEBS batches into one page-indexed set.

        Sort-based grouping instead of ``np.unique(return_inverse=True)``
        (hash-dominated at these sizes): a stable argsort groups each
        page's records while preserving their within-page input order,
        so segment reductions see the records in exactly the order the
        scatter-add used to -- integer count sums are order-free anyway,
        and the latency fold (floats) keeps bit-identical rounding.
        """
        pages = np.concatenate(acc.pages)
        counts = np.concatenate(acc.counts)
        order = np.argsort(pages, kind="stable")
        ordered = pages[order]
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        starts = np.flatnonzero(keep)
        uniq = ordered[starts]
        merged = np.add.reduceat(counts[order], starts)
        latencies = None
        if acc.latencies and len(acc.latencies) == len(acc.pages):
            lat = np.concatenate(acc.latencies)
            weighted = np.add.reduceat((lat * counts)[order], starts)
            latencies = weighted / np.maximum(merged, 1)
        return uniq, merged, latencies
