"""N-tier memory: placement, capacity accounting, and the reclaim LRU state.

``TieredMemory`` models an ordered hierarchy of memory tiers (tier 0 is
the fastest; the paper's testbed is the two-tier DRAM/CXL special
case).  It owns:

* per-page placement (tier index or unallocated),
* per-tier capacity accounting -- including *fractional* page-frame
  accounting for compressed tiers, where a page with compression ratio
  ``r`` consumes ``1/r`` physical frames,
* the two per-page orders of the kernel's (MG)LRU lists that PACT's
  eager demotion and the baselines' watermark reclaim consult: decayed
  access ``activity`` (fed by the access stream) and tier ``arrival``
  order,
* first-touch allocation (fill the preferred tier, then spill down the
  hierarchy), which is also the paper's NoTier baseline.

Migrations are planned on a :class:`PlacementOverlay` (victim ranking,
capacity clipping) and committed by :meth:`TieredMemory.apply_moves`.
Tier accounting is incremental: the mutators (``allocate_first_touch``,
``apply_moves``) maintain per-tier resident counts and frame sums in
O(pages changed), and the derived queries (``pages_in_tier``,
``mean_activity``) are served from generation-stamped caches instead of
rescanning ``placement`` on every call.  The cached answers are
bit-identical to the full scans they replace (same sorted page arrays,
same ``np.mean`` reduction); setting ``REPRO_DEBUG_ACCOUNTING=1``
cross-checks every placement change against a from-scratch scan.

Tiers are named by code (0 the fastest), and per-tier state is a list
indexed by code.  Every operation reduces to the exact pre-tier-graph
arithmetic when two tiers are configured -- the golden digests pin this.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.arrays import sorted_unique
from repro.mem.page import Tier, UNALLOCATED, tier_label

#: Environment switch: cross-check incremental accounting against full
#: placement scans after every mutation (slow; meant for tests).
DEBUG_ACCOUNTING_ENV = "REPRO_DEBUG_ACCOUNTING"

#: Per-window decay of page ``activity`` (applied lazily, on touch).
ACTIVITY_DECAY = 0.7


class CapacityError(ValueError):
    """Raised when tier capacities cannot hold the requested placement."""


class AccountingError(RuntimeError):
    """Incremental tier accounting diverged from a full placement scan."""


class _Occupancy:
    """Placement and per-tier occupancy: the arithmetic the memory and
    its planning overlay share.

    Holders keep ``placement``, ``used`` and ``_frames_used`` and read
    the tiers' ``capacity`` and ``_page_frame_cost`` (None = one frame
    per page; an array models a compressed tier's per-page
    compressibility).
    """

    placement: np.ndarray
    used: List[int]
    _frames_used: List[float]
    capacity: List[int]
    _page_frame_cost: List[Optional[np.ndarray]]

    def tier_of(self, pages: np.ndarray) -> np.ndarray:
        """Placement of each page id (UNALLOCATED for untouched pages)."""
        return self.placement[np.asarray(pages, dtype=np.int64)]

    def free_pages(self, tier: int) -> int:
        """Whole pages the tier can still admit.

        Exact for uncompressed tiers.  For a compressed tier this is a
        conservative lower bound (free frames at one frame per page);
        the mutators admit by exact per-page frame cost instead.
        """
        if self._page_frame_cost[tier] is None:
            return self.capacity[tier] - self.used[tier]
        return int(np.floor(self.capacity[tier] - self._frames_used[tier]))

    def _admit_count(self, tier: int, pages: np.ndarray) -> int:
        """How many of ``pages`` (in order) the tier can still admit."""
        cost = self._page_frame_cost[tier]
        if cost is None:
            return max(min(self.capacity[tier] - self.used[tier], pages.size), 0)
        free = self.capacity[tier] - self._frames_used[tier]
        if free <= 0.0 or pages.size == 0:
            return 0
        cum = np.cumsum(cost[pages])
        return int(np.searchsorted(cum, free, side="right"))

    def _charge_frames(self, tier: int, pages: np.ndarray, sign: float) -> None:
        cost = self._page_frame_cost[tier]
        if cost is not None and pages.size:
            self._frames_used[tier] += sign * float(cost[pages].sum())

    def _shift(self, pages: np.ndarray, src: int, dst: int) -> None:
        """Move the occupancy of ``pages`` from ``src`` to ``dst`` (not
        their placement)."""
        self.used[src] -= pages.size
        self._charge_frames(src, pages, -1.0)
        self.used[dst] += pages.size
        self._charge_frames(dst, pages, +1.0)


class TieredMemory(_Occupancy):
    """Placement state for a footprint of ``footprint_pages`` 4KB pages."""

    def __init__(
        self,
        footprint_pages: int,
        capacities: Sequence[int],
        *,
        page_frame_costs: Optional[Sequence[Optional[np.ndarray]]] = None,
        debug_accounting: Optional[bool] = None,
    ):
        if footprint_pages <= 0:
            raise ValueError("footprint must be positive")
        capacities = [int(c) for c in capacities]
        if len(capacities) < 2:
            raise ValueError("need at least two tiers")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be non-negative")
        # Conservative fit check: a compressed page never grows, so each
        # tier holds at least ``capacity`` pages whatever the ratios.
        if sum(capacities) < footprint_pages:
            raise CapacityError(
                "tier capacities (%s pages) cannot hold footprint (%d pages)"
                % (" + ".join(str(c) for c in capacities), footprint_pages)
            )
        self.footprint_pages = footprint_pages
        self.num_tiers = len(capacities)
        self.capacity = capacities
        if page_frame_costs is None:
            page_frame_costs = [None] * self.num_tiers
        self._page_frame_cost = list(page_frame_costs)
        if len(self._page_frame_cost) != self.num_tiers:
            raise ValueError("need one page-frame cost entry per tier")
        #: Fractional frames used, tracked only for compressed tiers.
        self._frames_used = [0.0] * self.num_tiers
        self.placement = np.full(footprint_pages, UNALLOCATED, dtype=np.int8)
        self.used = [0] * self.num_tiers
        #: Decayed per-page access intensity -- the simulator's stand-in
        #: for the kernel's (MG)LRU generations: pages accessed every
        #: window stay "active", pages that go quiet decay toward zero
        #: and become demotion victims.
        self.activity = np.zeros(footprint_pages, dtype=float)
        self._last_decay_window = 0
        #: Monotonic stamp of when each page last entered its tier --
        #: physical LRU-list position for FIFO-style reclaim.
        self.arrival = np.zeros(footprint_pages, dtype=np.int64)
        self._arrival_counter = 0

        # -- incremental accounting state ---------------------------------
        #: Bumped whenever placement changes (allocation, migration).
        self._placement_gen = 0
        #: Bumped whenever ``activity`` changes (touch and its decay).
        self._activity_gen = 0
        #: tier index -> (placement generation, sorted resident page ids).
        self._resident_cache: Dict[int, Tuple[int, np.ndarray]] = {}
        #: tier index -> ((placement gen, activity gen), mean activity).
        self._mean_cache: Dict[int, Tuple[Tuple[int, int], float]] = {}
        #: Reusable scratch mask for victim protection.
        self._protect_scratch = np.zeros(footprint_pages, dtype=bool)
        if debug_accounting is None:
            debug_accounting = bool(os.environ.get(DEBUG_ACCOUNTING_ENV))
        self.debug_accounting = debug_accounting

    # -- queries ------------------------------------------------------------

    @property
    def tiers(self) -> range:
        """Tier indices, fastest first."""
        return range(self.num_tiers)

    def frames_used(self, tier: int) -> float:
        """Physical frames occupied in ``tier`` (== pages when uncompressed)."""
        if self._page_frame_cost[tier] is None:
            return float(self.used[tier])
        return self._frames_used[tier]

    def occupancy_fraction(self, tier: int) -> float:
        """Fraction of the tier's physical frames in use."""
        cap = self.capacity[tier]
        return self.frames_used(tier) / cap if cap > 0 else 0.0

    def pages_in_tier(self, tier: int) -> np.ndarray:
        """All page ids currently resident in ``tier`` (sorted ascending).

        Served from a generation-stamped cache: the placement array is
        rescanned at most once per placement change, however many times
        queries run within a window.  Treat the returned array as
        read-only -- it is shared between callers until the next
        migration or allocation invalidates it.
        """
        cached = self._resident_cache.get(tier)
        if cached is not None and cached[0] == self._placement_gen:
            return cached[1]
        pages = np.flatnonzero(self.placement == int(tier)).astype(np.int64)
        self._resident_cache[tier] = (self._placement_gen, pages)
        return pages

    def resident_fraction(self, tier: int) -> float:
        """Fraction of the allocated footprint resident in ``tier``."""
        allocated = sum(self.used)
        if allocated == 0:
            return 0.0
        return self.used[tier] / allocated

    def mean_activity(self, tier: int) -> float:
        """Average access intensity of the tier's resident pages.

        Computed over the cached resident array with the same ``np.mean``
        reduction as the original full-scan version (so thresholds built
        from it stay bit-identical), then memoised until either the
        placement or the activity state changes.
        """
        key = (self._placement_gen, self._activity_gen)
        cached = self._mean_cache.get(tier)
        if cached is not None and cached[0] == key:
            return cached[1]
        resident = self.pages_in_tier(tier)
        value = float(self.activity[resident].mean()) if resident.size else 0.0
        self._mean_cache[tier] = (key, value)
        return value

    # -- allocation and access tracking --------------------------------------

    def allocate_first_touch(
        self, pages: np.ndarray, prefer: int = Tier.FAST
    ) -> "tuple[int, int]":
        """Allocate any unallocated pages, filling ``prefer`` first.

        Returns (pages placed in preferred tier, pages spilled to other
        tiers).  This mirrors first-touch NUMA allocation: the preferred
        node absorbs allocations until full, after which pages spill to
        the remaining tiers in hierarchy order.
        """
        pages = np.asarray(pages, dtype=np.int64)
        fresh = pages[self.placement[pages] == UNALLOCATED]
        if fresh.size == 0:
            return (0, 0)
        # Dedupe while preserving the caller's allocation order -- the
        # order decides which pages land in the preferred tier.
        _, first_idx = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first_idx)]
        tier_order = [int(prefer)] + [t for t in self.tiers if t != int(prefer)]
        # Dry pass first: nothing is mutated unless everything fits.
        takes = []
        pos = 0
        for tier in tier_order:
            take = self._admit_count(tier, fresh[pos:]) if pos < fresh.size else 0
            takes.append(take)
            pos += take
        if pos < fresh.size:
            raise CapacityError("no capacity left for first-touch allocation")
        pos = 0
        for tier, take in zip(tier_order, takes):
            if take == 0:
                continue
            chunk = fresh[pos : pos + take]
            self.placement[chunk] = tier
            self.used[tier] += take
            self._charge_frames(tier, chunk, +1.0)
            pos += take
        self._placement_gen += 1
        # Allocation order is LRU-list arrival order.
        self.arrival[fresh] = self._arrival_counter + np.arange(1, fresh.size + 1)
        self._arrival_counter += fresh.size
        if self.debug_accounting:
            self.check_accounting()
        return (int(takes[0]), int(fresh.size - takes[0]))

    def touch(self, pages: np.ndarray, window: int, counts: np.ndarray) -> None:
        """Record ``window``'s accesses: ``counts[i]`` accesses to ``pages[i]``.

        Activity decays lazily, by every window elapsed since the last
        touch, before the window's counts are added.
        """
        pages = np.asarray(pages, dtype=np.int64)
        steps = window - self._last_decay_window
        if steps > 0:
            self.activity *= ACTIVITY_DECAY**steps
            self._last_decay_window = window
        np.add.at(self.activity, pages, np.asarray(counts, dtype=float))
        self._activity_gen += 1

    # -- migration ------------------------------------------------------------

    def apply_moves(self, moves: Sequence[Tuple[np.ndarray, int, int]]) -> None:
        """Apply pre-clipped migration hops with one fused scatter.

        ``moves`` is an ordered sequence of ``(pages, src, dst)`` hops
        in which every page array is sorted, deduped, currently
        resident in ``src``, and already clipped to what ``dst`` can
        admit at that point of the sequence.  The planner's
        :class:`PlacementOverlay` produces such hops by construction.

        The occupancy accounting (compressed-tier frame charges are
        floats) runs per hop in hop order; the placement and arrival
        writes -- pure scatters whose final value per page is the last
        hop touching it, exactly as sequential scatters would leave
        them -- are fused into one concatenated store each.
        """
        live: List[Tuple[np.ndarray, int, int]] = []
        for pages, src, dst in moves:
            if pages.size:
                live.append((pages, int(src), int(dst)))
        if not live:
            return
        arrival_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for pages, src, dst in live:
            self._shift(pages, src, dst)
            self._arrival_counter += 1
            dst_parts.append(np.full(pages.size, dst, dtype=self.placement.dtype))
            arrival_parts.append(
                np.full(pages.size, self._arrival_counter, dtype=self.arrival.dtype)
            )
        if len(live) == 1:
            pages, _, dst = live[0]
            self.placement[pages] = dst
            self.arrival[pages] = self._arrival_counter
        else:
            idx = np.concatenate([pages for pages, _, _ in live])
            self.placement[idx] = np.concatenate(dst_parts)
            self.arrival[idx] = np.concatenate(arrival_parts)
        self._placement_gen += 1
        if self.debug_accounting:
            self.check_accounting()

    def overlay(self) -> "PlacementOverlay":
        """Scratch placement/capacity state for migration *planning*."""
        return PlacementOverlay(self)

    # -- debug cross-checks ----------------------------------------------------

    def check_accounting(self) -> None:
        """Validate the incremental accounting against full scans.

        Recomputes per-tier residency and (for compressed tiers) frame
        sums from the ``placement`` array, and bounds every tier's
        occupancy by its capacity; raises :class:`AccountingError` on
        any divergence.  Runs after every placement change when
        ``debug_accounting`` is set (or the ``REPRO_DEBUG_ACCOUNTING``
        environment variable is non-empty).
        """
        for tier in self.tiers:
            label = tier_label(tier)
            scan = np.flatnonzero(self.placement == int(tier)).astype(np.int64)
            if self.used[tier] != scan.size:
                raise AccountingError(
                    f"used[{label}]={self.used[tier]} but scan finds {scan.size}"
                )
            cached = self._resident_cache.get(tier)
            if cached is not None and cached[0] == self._placement_gen:
                if not np.array_equal(cached[1], scan):
                    raise AccountingError(f"resident cache for {label} is stale")
            cost = self._page_frame_cost[tier]
            if cost is not None:
                true_frames = float(cost[scan].sum())
                if not np.isclose(
                    self._frames_used[tier], true_frames, rtol=1e-9, atol=1e-6
                ):
                    raise AccountingError(
                        f"frames_used[{label}]={self._frames_used[tier]!r} "
                        f"but scan sums to {true_frames!r}"
                    )
            if self.frames_used(tier) > self.capacity[tier] + 1e-6:
                raise AccountingError(
                    f"{label} holds {self.frames_used(tier)!r} frames, "
                    f"over its capacity {self.capacity[tier]}"
                )


class PlacementOverlay(_Occupancy):
    """Scratch placement/capacity state for planning a window's migrations.

    The migration engine plans a whole window's hops against this
    overlay *before* touching the real memory: the overlay copies the
    placement array and the per-tier used/frame counters, ranks victims
    against the planned resident sets (:meth:`lru_victims`), and
    :meth:`clip_move` -- the one implementation of a hop's select/clip
    arithmetic (dedupe, source filter, capacity/frame clipping) --
    mutates only the scratch state.  The hop page arrays it returns are
    ready for :meth:`TieredMemory.apply_moves`'s single fused scatter.

    Capacities, frame costs, activity and arrival order are read
    straight from the underlying memory: none changes while a window's
    migrations are planned, so no copy is needed.
    """

    def __init__(self, memory: TieredMemory):
        self._memory = memory
        self.capacity = memory.capacity
        self._page_frame_cost = memory._page_frame_cost
        self.placement = memory.placement.copy()
        self.used = list(memory.used)
        self._frames_used = list(memory._frames_used)
        #: False until the first planned hop: pristine overlays can keep
        #: serving the memory's cached resident arrays.
        self._mutated = False

    def pages_in_tier(self, tier: int) -> np.ndarray:
        """Sorted resident ids under the planned placement."""
        if not self._mutated:
            return self._memory.pages_in_tier(tier)
        return np.flatnonzero(self.placement == int(tier)).astype(np.int64)

    def lru_victims(
        self,
        tier: int,
        count: int,
        protect: Optional[np.ndarray] = None,
        max_activity: Optional[float] = None,
        fifo: bool = False,
    ) -> np.ndarray:
        """Up to ``count`` reclaim victims planned-resident in ``tier``.

        By default victims are ranked by decayed access intensity
        (coldest first, stable on ties).  ``protect`` pages (e.g.
        just-promoted ones) are excluded.  ``max_activity`` restricts
        eligibility to genuinely inactive pages -- a page accessed every
        window never reaches the kernel's inactive list, so it can never
        be a victim; ``None`` allows any resident page (aggressive
        watermark-style reclaim).  ``fifo`` instead ranks by
        tier-arrival order -- physical LRU-list position, which is what
        simple watermark reclaim actually walks, hot pages included.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        memory = self._memory
        resident = self.pages_in_tier(tier)
        if protect is not None and protect.size:
            # Membership test through a reusable boolean scratch mask:
            # O(resident + protect) instead of np.isin's sort/search.
            protect = np.asarray(protect, dtype=np.int64)
            scratch = memory._protect_scratch
            scratch[protect] = True
            resident = resident[~scratch[resident]]
            scratch[protect] = False
        if max_activity is not None:
            resident = resident[memory.activity[resident] <= max_activity]
        if resident.size == 0:
            return resident
        keys = memory.arrival[resident] if fifo else memory.activity[resident]
        if count >= resident.size:
            return resident[np.argsort(keys, kind="stable")]
        part = np.argpartition(keys, count)[:count]
        return resident[part[np.argsort(keys[part], kind="stable")]]

    def clip_move(self, pages: np.ndarray, dst: int, src: int) -> np.ndarray:
        """Select/clip one migration hop and commit it to the overlay.

        Sorted dedupe, source filter against the planned placement,
        then capacity (or exact per-page frame) clipping against the
        planned occupancy.  Returns the pages the hop moves.
        """
        # Sort-based dedupe: identical array to np.unique, several times
        # faster at migration batch sizes (see repro.common.arrays).
        pages = sorted_unique(np.asarray(pages, dtype=np.int64))
        src, dst = int(src), int(dst)
        movable = pages[self.placement[pages] == src]
        movable = movable[: self._admit_count(dst, movable)]
        if movable.size:
            self._shift(movable, src, dst)
            self.placement[movable] = dst
            self._mutated = True
        return movable
