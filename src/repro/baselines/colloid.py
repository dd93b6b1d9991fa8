"""Colloid: latency-balancing tiered memory (Vuppala & Agarwal, SOSP '24).

Colloid's principle is *balance access latency across tiers*: when the
slow tier's loaded latency exceeds the fast tier's, shift traffic toward
the fast tier (promote hot slow pages); when a loaded fast tier becomes
slower than the idle slow tier, back off.  The promotion volume each
interval is proportional to the observed latency imbalance, which makes
Colloid strong on average but migration-hungry: the paper measures
1.2M-9M promotions on bc-kron (2.1-10.4x PACT) and degradation toward
NoTier under heavy fast-tier pressure (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import Tier
from repro.sim.policy_api import Decision, Observation, TieringPolicy


class ColloidPolicy(TieringPolicy):
    """Latency-imbalance-proportional promotion of recently hot pages."""

    name = "Colloid"
    synchronous_migration = True  # built on NUMA hint-fault machinery
    needs_pebs = True
    needs_touched_pages = False

    def __init__(
        self,
        gain: float = 3.0,
        max_batch_fraction: float = 0.12,
        watermark: float = 0.93,
    ):
        #: Promotion volume per unit latency imbalance.
        self.gain = gain
        #: Per-window promotion cap as a fraction of fast capacity.
        self.max_batch_fraction = max_batch_fraction
        self.watermark = watermark

    def _imbalance(self, obs: Observation) -> float:
        """Relative latency gap between tiers, >0 when slow is slower.

        On more than two tiers "slow" is the miss-weighted loaded
        latency of every tier below tier 0.
        """
        fast = obs.perf.effective_latency_cycles[Tier.FAST]
        slow = obs.lower_latency_cycles()
        if fast <= 0.0:
            return 0.0
        return (slow - fast) / fast

    def observe(self, obs: Observation) -> Decision:
        imbalance = self._imbalance(obs)
        slow_misses = obs.lower_misses()
        if imbalance <= 0.0 or slow_misses <= 0.0 or obs.pebs.pages.size == 0:
            return Decision.none()
        # Traffic-proportional control: move enough of the observed hot
        # set to shift the latency balance, capped per interval.
        cap = max(int(obs.memory.capacity[Tier.FAST] * self.max_batch_fraction), 1)
        want = int(min(self.gain * imbalance * obs.pebs.pages.size, cap))
        if want <= 0:
            return Decision.none()
        pages = obs.pebs.pages
        counts = obs.pebs.counts
        in_slow = obs.memory.tier_of(pages) >= 1
        pages, counts = pages[in_slow], counts[in_slow]
        if pages.size == 0:
            return Decision.none()
        if pages.size > want:
            top = np.argpartition(counts, pages.size - want)[-want:]
            pages = pages[top]
        capacity = obs.memory.capacity[Tier.FAST]
        used_after = obs.memory.used[Tier.FAST] + pages.size
        demote_lru = max(int(used_after - self.watermark * capacity), 0)
        return Decision(
            promote=pages,
            demote_lru=demote_lru,
            demote_victim_mode="fifo",
        )
