"""Page migration engine: applies decisions, charges costs, counts moves.

Wraps :class:`repro.mem.tiered.TieredMemory` with the mechanics the
paper's systems share: ``move_pages()`` cost accounting, THP-aware
whole-huge-page moves (§5.2), LRU victim demotion, and cumulative
promotion/demotion counters (the paper's Table 2 metric).

With an N-tier topology the engine routes migrations hop-by-hop:
promotions always target tier 0; demotions follow the topology's
demotion mode -- ``"through"`` moves a victim one tier down (cascading
further demotions when the intermediate tier is full), ``"direct"``
sends it straight to the bottom tier.  Every hop is separately subject
to capacity admission, and its copy traffic is charged to the two
tiers it actually touches.  Both modes reduce to the single fast->slow
hop on the default two-tier pair.

A window's decision is applied by one plan/apply split
(:meth:`MigrationEngine.apply_window`): the plan phase walks reclaim,
explicit demotions, cascades and promotions against a
:class:`~repro.mem.tiered.PlacementOverlay` -- one ``tier_of`` gather
per order batch, victim ranking and capacity clipping against the
*planned* placement -- and resolves the whole window into a single
:class:`MovePlan`; the apply phase commits the plan with one fused
placement scatter (:meth:`~repro.mem.tiered.TieredMemory.apply_moves`)
and then accounts every hop in order.  The property tests compare it
with a per-hop reference that lives in ``tests/``, and the N-tier
golden digests pin its cascades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE
from repro.mem.page import Tier, expand_huge_pages, huge_page_of
from repro.mem.tiered import PlacementOverlay, TieredMemory
from repro.obs.profiler import null_profile as _null_profile
from repro.sim.config import MachineConfig


def _no_pages() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class MigrationOutcome:
    """Result of applying one window's migration orders.

    Page arrays accumulate as parts lists and materialise (once) on
    first read of :attr:`promoted_pages` / :attr:`demoted_pages`:
    merging ``k`` hop outcomes is O(k) appends plus a single
    concatenation, not the O(k^2) repeated ``np.concatenate`` a field
    per merge would cost across multi-hop cascades.
    """

    __slots__ = (
        "promoted",
        "demoted",
        "cost_cycles",
        "bytes_moved",
        "link_bytes",
        "_promoted_parts",
        "_demoted_parts",
    )

    def __init__(
        self,
        promoted: int = 0,
        demoted: int = 0,
        cost_cycles: float = 0.0,
        bytes_moved: float = 0.0,
        promoted_pages: Optional[np.ndarray] = None,
        demoted_pages: Optional[np.ndarray] = None,
        link_bytes: Optional[Dict[int, float]] = None,
    ):
        self.promoted = promoted
        self.demoted = demoted
        self.cost_cycles = cost_cycles
        self.bytes_moved = bytes_moved
        #: Copy traffic per tier index touched (each hop charges half its
        #: bytes to the source tier's link and half to the destination's).
        self.link_bytes: Dict[int, float] = {} if link_bytes is None else link_bytes
        self._promoted_parts: List[np.ndarray] = []
        self._demoted_parts: List[np.ndarray] = []
        if promoted_pages is not None and promoted_pages.size:
            self._promoted_parts.append(promoted_pages)
        if demoted_pages is not None and demoted_pages.size:
            self._demoted_parts.append(demoted_pages)

    @staticmethod
    def _materialise(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return _no_pages()
        if len(parts) > 1:
            # Collapse in place so repeated reads don't re-concatenate.
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    @property
    def promoted_pages(self) -> np.ndarray:
        """Pages promoted this window, in hop order."""
        return self._materialise(self._promoted_parts)

    @property
    def demoted_pages(self) -> np.ndarray:
        """Pages demoted this window, in hop order."""
        return self._materialise(self._demoted_parts)

    def merge(self, other: "MigrationOutcome") -> None:
        self.promoted += other.promoted
        self.demoted += other.demoted
        self.cost_cycles += other.cost_cycles
        self.bytes_moved += other.bytes_moved
        for tier, nbytes in other.link_bytes.items():
            self.link_bytes[tier] = self.link_bytes.get(tier, 0.0) + nbytes
        self._promoted_parts.extend(other._promoted_parts)
        self._demoted_parts.extend(other._demoted_parts)


@dataclass
class MovePlan:
    """One window's migrations resolved into ordered, pre-clipped hops.

    Each hop is ``(pages, src, dst, promoted)`` with the page array
    sorted, deduped, and clipped to what ``dst`` admits at that point
    of the window; hop order is execution order (cascades ahead of the
    hop that triggered them).

    ``program`` is the window's *outcome merge tree*: a nested list
    whose leaves are hop indices and whose inner lists are the
    sub-outcomes (phases, cascade chains) summed before merging upward.
    Replaying it fixes the float association of ``cost_cycles`` -- the
    one outcome field whose per-hop terms are inexact -- where a flat
    left fold over the hops can drift by an ulp on multi-hop windows;
    the N-tier golden digests pin it.
    """

    hops: List[Tuple[np.ndarray, int, int, bool]] = field(default_factory=list)
    #: Nested merge program; ints index :attr:`hops`.
    program: List = field(default_factory=list)

    @property
    def moves(self) -> List[Tuple[np.ndarray, int, int]]:
        """The hops as ``(pages, src, dst)`` for ``apply_moves``."""
        return [(pages, src, dst) for pages, src, dst, _ in self.hops]


class MigrationEngine:
    """Applies promotion/demotion orders against the tiered memory."""

    def __init__(self, memory: TieredMemory, config: MachineConfig, obs=None):
        self.memory = memory
        self.config = config
        self.num_tiers = memory.num_tiers
        #: Demotion routing for multi-hop hierarchies (see module doc).
        self.demotion_mode = config.demotion_mode
        #: Optional :class:`repro.obs.Observability` sink for cumulative
        #: promotion/demotion/cost counters (None = no publishing).
        self._obs = obs
        self._profile = obs.profile if obs is not None else _null_profile
        self.total_promoted = 0
        self.total_demoted = 0
        self.total_cost_cycles = 0.0

    # -- helpers ---------------------------------------------------------------

    def _expand_thp(self, pages: np.ndarray) -> np.ndarray:
        """With THP enabled, widen selections to whole 2MB regions."""
        if not self.config.thp or pages.size == 0:
            return pages
        return expand_huge_pages(huge_page_of(pages), self.memory.footprint_pages)

    def _cost(self, moved: np.ndarray) -> float:
        """Migration cost in cycles for the pages actually moved."""
        if moved.size == 0:
            return 0.0
        if not self.config.thp:
            return self.config.migration_cycles(pages_4k=int(moved.size))
        # Whole huge pages move as single units; stragglers (huge pages
        # clipped by the footprint edge or partially resident) move 4KB-wise.
        huge_ids, counts = np.unique(huge_page_of(moved), return_counts=True)
        whole = int((counts == PAGES_PER_HUGE_PAGE).sum())
        loose = int(counts[counts != PAGES_PER_HUGE_PAGE].sum())
        return self.config.migration_cycles(pages_4k=loose, huge_pages=whole)

    def _demote_dst(self, src: int) -> int:
        """Destination tier for a demotion out of ``src``."""
        bottom = self.num_tiers - 1
        if self.demotion_mode == "direct":
            return bottom
        return min(src + 1, bottom)

    # -- fused window apply ------------------------------------------------------

    def apply_window(self, decision) -> MigrationOutcome:
        """Apply one window's :class:`~repro.sim.policy_api.Decision`, fused.

        Three phases, each under its own profiler span: ``migrate_plan``
        resolves reclaim + demotions + promotions (and any cascades)
        into a :class:`MovePlan` against a placement overlay without
        touching live state; ``migrate_move`` commits the plan with one
        fused scatter; ``migrate_account`` charges costs and counters
        hop by hop in plan order.  Promotions pull from every lower
        tier, nearest first.
        """
        with self._profile("migrate_plan"):
            plan = self.plan_window(decision)
        with self._profile("migrate_move"):
            if plan.hops:
                self.memory.apply_moves(plan.moves)
        with self._profile("migrate_account"):
            outcome = MigrationOutcome()
            for node in plan.program:
                outcome.merge(self._account_node(node, plan))
        return outcome

    def _account_node(self, node, plan: MovePlan) -> MigrationOutcome:
        """Evaluate one node of the plan's merge program (see MovePlan)."""
        if isinstance(node, int):
            pages, src, dst, promoted = plan.hops[node]
            return self._account(pages, promoted=promoted, src=src, dst=dst)
        out = MigrationOutcome()
        for child in node:
            out.merge(self._account_node(child, plan))
        return out

    def plan_window(self, decision) -> MovePlan:
        """Resolve a decision into ordered pre-clipped hops (no mutation).

        The overlay starts as a copy of live placement/occupancy, so
        the first order batch (always the LRU reclaim, which is what
        consults activity state) sees exactly the live state, and every
        later batch sees the placement its predecessors will have
        produced.  A cascade never pushes down a page the window
        promotes (its whole huge page under THP): that page would move
        twice, down and straight back up.
        """
        plan = MovePlan()
        overlay = self.memory.overlay()
        promote = self._expand_thp(np.asarray(decision.promote, dtype=np.int64))
        if decision.demote_lru > 0:
            self._plan_demote_lru(
                overlay,
                plan,
                decision.demote_lru,
                protect=decision.promote,
                victim_mode=decision.demote_victim_mode,
                promote=promote,
            )
        if decision.demote.size:
            plan.program.append(self._plan_demote(overlay, plan, decision.demote, promote))
        if promote.size:
            plan.program.append(self._plan_promote(overlay, plan, promote))
        return plan

    def _plan_demote_lru(
        self,
        overlay: PlacementOverlay,
        plan: MovePlan,
        count: int,
        protect: np.ndarray,
        victim_mode: str,
        promote: np.ndarray,
    ) -> None:
        if victim_mode not in ("cold", "lru_tail", "fifo"):
            raise ValueError(f"unknown victim mode {victim_mode!r}")
        if count <= 0:
            return
        max_activity = None
        if victim_mode == "cold":
            # Reclaim is planned first, against a pristine overlay, so
            # the live mean is the mean of the window's starting state.
            max_activity = (
                self.config.cold_activity_fraction * self.memory.mean_activity(Tier.FAST)
            )
        victims = overlay.lru_victims(
            Tier.FAST,
            count,
            protect=protect,
            max_activity=max_activity,
            fifo=victim_mode == "fifo",
        )
        plan.program.append(self._plan_demote(overlay, plan, victims, promote))

    def _plan_demote(
        self, overlay: PlacementOverlay, plan: MovePlan, pages: np.ndarray, promote: np.ndarray
    ) -> List:
        node: List = []
        pages = self._expand_thp(np.asarray(pages, dtype=np.int64))
        if pages.size == 0:
            return node
        place = overlay.tier_of(pages)
        for src in range(self.num_tiers - 1):
            sub = pages[place == src]
            if sub.size == 0:
                continue
            dst = self._demote_dst(src)
            if dst < self.num_tiers - 1:
                deficit = sub.size - overlay.free_pages(dst)
                if deficit > 0:
                    node.append(self._plan_cascade(overlay, plan, dst, deficit, sub, promote))
            moved = overlay.clip_move(sub, dst, src=src)
            if moved.size:
                plan.hops.append((moved, src, dst, False))
                node.append(len(plan.hops) - 1)
        return node

    def _plan_cascade(
        self,
        overlay: PlacementOverlay,
        plan: MovePlan,
        tier: int,
        count: int,
        incoming: np.ndarray,
        promote: np.ndarray,
    ) -> List:
        """Push ``count`` LRU victims out of an intermediate tier.

        Neither the ``incoming`` pages nor the window's (expanded)
        promotions are victims.  Recursion depth is bounded by the tier
        chain: each level demotes one hop further down, and the bottom
        tier always has room.
        """
        node: List = []
        # lru_victims marks protected pages by scatter: duplicates are fine.
        victims = overlay.lru_victims(tier, count, protect=np.concatenate([incoming, promote]))
        if victims.size == 0:
            return node
        dst = self._demote_dst(tier)
        if dst < self.num_tiers - 1:
            deficit = victims.size - overlay.free_pages(dst)
            if deficit > 0:
                node.append(self._plan_cascade(overlay, plan, dst, deficit, victims, promote))
        moved = overlay.clip_move(victims, dst, src=tier)
        if moved.size:
            plan.hops.append((moved, tier, dst, False))
            node.append(len(plan.hops) - 1)
        return node

    def _plan_promote(
        self, overlay: PlacementOverlay, plan: MovePlan, pages: np.ndarray
    ) -> List:
        """Promotion hops for already THP-expanded ``pages``."""
        node: List = []
        place = overlay.tier_of(pages)
        top = int(Tier.FAST)
        for src in range(1, self.num_tiers):
            sub = pages[place == src]
            if sub.size == 0:
                continue
            moved = overlay.clip_move(sub, top, src=src)
            if moved.size:
                plan.hops.append((moved, src, top, True))
                node.append(len(plan.hops) - 1)
        return node

    def _account(
        self, moved: np.ndarray, promoted: bool, src: int, dst: int
    ) -> MigrationOutcome:
        cost = self._cost(moved)
        count = int(moved.size)
        if promoted:
            self.total_promoted += count
        else:
            self.total_demoted += count
        self.total_cost_cycles += cost
        if self._obs is not None and count:
            self._obs.count("migrate/promoted_pages" if promoted else "migrate/demoted_pages", count)
            self._obs.count("migrate/cost_cycles", cost)
        bytes_moved = float(count) * PAGE_SIZE * 2.0  # read src + write dst
        link_bytes: Dict[int, float] = {}
        if count:
            # Half the copy traffic crosses each endpoint's link; the
            # halves are exact (counts of 4KB pages), so summing them
            # per tier reproduces the historical bytes_moved/2 split.
            link_bytes[int(src)] = bytes_moved / 2.0
            link_bytes[int(dst)] = link_bytes.get(int(dst), 0.0) + bytes_moved / 2.0
        return MigrationOutcome(
            promoted=count if promoted else 0,
            demoted=0 if promoted else count,
            cost_cycles=cost,
            bytes_moved=bytes_moved,
            link_bytes=link_bytes,
            promoted_pages=moved if promoted else _no_pages(),
            demoted_pages=_no_pages() if promoted else moved,
        )
