"""Memtis: PEBS-driven hotness classification (Lee et al., SOSP '23).

Memtis samples accesses with PEBS, keeps per-page hotness counters in a
histogram, and classifies the hottest pages -- as many as fit the fast
tier -- as the "hot set"; only hot-classified pages are promoted, under
a migration budget, by a background thread.  Counters are periodically
halved (cooling).  It is THP-aware: in huge-page mode hotness is
aggregated and decided per 2MB region, which is why it becomes the
second-best system under THP in the paper (§5.2, Figure 5).

Histogram maintenance is O(Δ) per window: the set of *active* units
(hotness > 0) is kept as an incrementally merged sorted id list --
units enter it the first window they are sampled and leave it only if
cooling underflows their counter to zero -- so the hot-set threshold is
one gather plus a quantile over the active values instead of a
full-histogram compare-and-compress every window.  The gathered value
array is bit-identical to the boolean-compress it replaces (both are in
ascending unit order over the same set), which the incremental-state
property tests pin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.arrays import merge_sorted_unique, sorted_unique
from repro.common.stats import quantiles_linear
from repro.mem.page import HUGE_SHIFT, Tier
from repro.obs.profiler import null_profile as _null_profile
from repro.sim.policy_api import Decision, Observation, TieringPolicy


class MemtisPolicy(TieringPolicy):
    """Hotness histogram + hot-set threshold + budgeted background moves."""

    name = "Memtis"
    synchronous_migration = False  # kmigrated-style background thread
    needs_pebs = True
    needs_touched_pages = False
    sample_fast_tier = True  # Memtis samples both tiers to split hot/cold

    def __init__(
        self,
        cooling_period_windows: int = 10,
        budget_fraction: float = 0.01,
        hysteresis: float = 1.2,
    ):
        self.cooling_period_windows = cooling_period_windows
        #: Per-window migration budget as a fraction of fast capacity.
        self.budget_fraction = budget_fraction
        #: A slow page must beat the hot-set threshold by this factor
        #: before being promoted (avoids threshold ping-pong).
        self.hysteresis = hysteresis
        self._hotness: Optional[np.ndarray] = None
        self._thp = False
        self._footprint = 0
        #: Sorted unit ids with hotness > 0, maintained incrementally.
        self._active_units = np.empty(0, dtype=np.int64)
        self._profile = _null_profile

    def attach(self, machine) -> None:
        self._thp = machine.config.thp
        self._footprint = machine.workload.footprint_pages
        units = self._footprint >> HUGE_SHIFT if self._thp else self._footprint
        self._hotness = np.zeros(max(units, 1) + 1, dtype=float)
        self._active_units = np.empty(0, dtype=np.int64)
        obs = getattr(machine, "obs", None)
        self._profile = obs.profile if obs is not None else _null_profile

    def _unit_of(self, pages: np.ndarray) -> np.ndarray:
        return pages >> HUGE_SHIFT if self._thp else pages

    def observe(self, obs: Observation) -> Decision:
        pages = obs.pebs.pages
        with self._profile("policy_track"):
            if pages.size:
                units = self._unit_of(pages)
                fresh = units[
                    (self._hotness[units] == 0.0) & (obs.pebs.counts > 0)
                ]
                np.add.at(self._hotness, units, obs.pebs.counts)
                if fresh.size:
                    self._active_units = merge_sorted_unique(
                        self._active_units, sorted_unique(fresh)
                    )
            if obs.window > 0 and obs.window % self.cooling_period_windows == 0:
                self._hotness *= 0.5
                # Halving keeps a positive counter positive until float
                # underflow; prune the (pathologically rare) underflows
                # so the active list stays exactly {u: hotness[u] > 0}.
                if self._active_units.size:
                    alive = self._hotness[self._active_units] > 0.0
                    if not alive.all():
                        self._active_units = self._active_units[alive]
        if pages.size == 0:
            return Decision.none()
        with self._profile("policy_bin"):
            threshold = self._hot_threshold(obs)
        with self._profile("policy_select"):
            in_slow = obs.memory.tier_of(pages) >= 1
            slow_pages = pages[in_slow]
            if slow_pages.size == 0:
                return Decision.none()
            # threshold == 0 means the whole sampled set fits the fast
            # tier: every accessed slow page classifies as hot.
            hot_mask = (
                self._hotness[self._unit_of(slow_pages)] > threshold * self.hysteresis
            )
            candidates = slow_pages[hot_mask]
            if candidates.size == 0:
                return Decision.none()
            budget = max(int(obs.memory.capacity[Tier.FAST] * self.budget_fraction), 1)
            if self._thp:
                # Decisions are per-2MB unit; a unit consumes 512 pages
                # of budget.
                units = sorted_unique(self._unit_of(candidates))
                unit_budget = max(budget >> HUGE_SHIFT, 1)
                if units.size > unit_budget:
                    hot = self._hotness[units]
                    keep = np.argpartition(hot, units.size - unit_budget)[-unit_budget:]
                    units = units[keep]
                candidates = units << HUGE_SHIFT  # engine expands to full 2MB
            elif candidates.size > budget:
                hot = self._hotness[candidates]
                keep = np.argpartition(hot, candidates.size - budget)[-budget:]
                candidates = candidates[keep]
            need = max(candidates.size - obs.memory.free_pages(Tier.FAST), 0)
            if self._thp and need > 0:
                need = max(
                    candidates.size * 512 - obs.memory.free_pages(Tier.FAST), 0
                )
        return Decision(promote=candidates, demote_lru=int(need))

    def _hot_threshold(self, obs: Observation) -> float:
        """Hotness value above which pages would fit the fast tier.

        Memtis picks the histogram threshold so the hot set's size
        matches fast-tier capacity; with dense per-unit counters this is
        a quantile query -- served from the incrementally maintained
        active-unit list (one gather) instead of compressing the whole
        histogram against zero each window.
        """
        active_units = self._active_units
        if active_units.size == 0:
            return 0.0
        capacity_units = obs.memory.capacity[Tier.FAST]
        if self._thp:
            capacity_units >>= HUGE_SHIFT
        if active_units.size <= capacity_units:
            return 0.0
        frac = 1.0 - capacity_units / active_units.size
        active = self._hotness[active_units]
        return float(quantiles_linear(active, np.asarray([frac]))[0])

    def debug_info(self):
        return {"hot_units": float(self._active_units.size)}
