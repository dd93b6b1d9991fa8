"""PACT's migration policy: eager demotion + adaptive promotion (§4.4).

Algorithm 2, distilled: pages in the highest-priority bin are promoted
as soon as they appear; fast-tier space for them is reclaimed *ahead of
time* by demoting LRU victims, keeping the cumulative demotion count at
least ``m`` ahead of promotions (``m = 0`` balances exactly, larger
``m`` builds headroom for bursty workloads).  Early in execution, while
fast-tier utilisation is dominated by cold first-touch allocations,
this eagerly drains inactive pages; as the fast tier converges to the
critical working set the demotion rate falls toward on-demand behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.page import Tier
from repro.sim.policy_api import Decision, Observation, no_pages


@dataclass
class MigrationPlanner:
    """Eager-demotion bookkeeping around the promotion stream."""

    #: Demotion aggressiveness: extra pages demoted beyond promotions.
    m: int = 0

    promoted_total: int = 0
    demoted_total: int = 0

    #: Pages actually moved per promoted candidate (512 under THP, where
    #: the engine migrates whole 2MB regions).
    unit_pages: int = 1

    def plan(self, candidates: np.ndarray, obs: Observation) -> Decision:
        """Algorithm 2 for one window's candidate set."""
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0 and self.m == 0:
            return Decision.none()

        # Promotions are gated by available space: demote enough LRU
        # victims that the batch fits, plus keep N_demoted >= N_promoted
        # + m for proactive headroom (Algorithm 2, lines 5-6).  All
        # accounting is in the engine's migration unit.
        promote_pages = candidates.size * self.unit_pages
        margin = self.m * self.unit_pages
        free = obs.memory.free_pages(Tier.FAST)
        need_space = max(promote_pages - free, 0)
        need_balance = max(
            self.promoted_total + promote_pages + margin - self.demoted_total, 0
        )
        demote_lru = max(need_space, min(need_balance, promote_pages + margin))
        if self.unit_pages > 1 and demote_lru > 0:
            # Victim selection also expands to whole huge pages; request
            # in whole units so the engine does not over-demote.
            demote_lru = max(demote_lru // self.unit_pages, 1)

        self.promoted_total += int(promote_pages)
        self.demoted_total += int(demote_lru * self.unit_pages)
        # Victims come from the LRU tail (coldest pages first, but with
        # no absolute activity floor): when every fast page is active --
        # e.g. a fast tier full of streamed weights -- eager demotion
        # still reclaims the least-hot pages so critical promotions are
        # never starved.  Thrash is bounded by the promotion cooldown
        # and the swap-profitability bar upstream, not by refusing to
        # demote.
        return Decision(
            promote=candidates,
            demote=no_pages(),
            demote_lru=int(demote_lru),
            demote_victim_mode="lru_tail",
        )
