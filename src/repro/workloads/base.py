"""Workload abstraction and access-pattern building blocks.

A workload is a deterministic generator of per-window memory traffic
(:class:`repro.hw.access.WindowTraffic`).  Each window its ``_emit``
returns a set of access groups -- (pages, per-page LLC-miss counts,
pattern MLP) -- which ``next_window`` packs into the window's flat
entry columns together with the compute cycles interleaved with that
traffic.  Workloads carry a fixed amount of total work (LLC misses)
and report completion, so a simulation's runtime is "wall-clock until
the work is done", exactly the paper's primary metric.

Footprints are scaled down from the paper's 6.6-40 GB RSS to tens of
thousands of 4KB pages so a full run takes seconds; every policy-visible
ratio (fast:slow capacity, working-set skew, migration cost vs. window
length) is preserved.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.access import AccessGroup, WindowTraffic
from repro.mem.page import ObjectRegion

#: Default misses consumed per simulated window.
DEFAULT_MISSES_PER_WINDOW = 250_000

#: MLP of dependent pointer chasing (serialised loads).
POINTER_CHASE_MLP = 2.0

#: MLP of prefetched sequential streaming.
STREAMING_MLP = 16.0


class Workload(abc.ABC):
    """Deterministic phased traffic generator with a finite work budget."""

    #: Constructor parameters that shape the stream beyond the base
    #: fields and the name, each kept in a same-named attribute.
    knob_names: Tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        footprint_pages: int,
        total_misses: int,
        misses_per_window: int = DEFAULT_MISSES_PER_WINDOW,
        compute_cycles_per_miss: float = 40.0,
        seed: int = 1,
        objects: Optional[Sequence[ObjectRegion]] = None,
    ):
        if footprint_pages <= 0:
            raise ValueError("footprint must be positive")
        if total_misses <= 0:
            raise ValueError("total work must be positive")
        if misses_per_window <= 0:
            raise ValueError("window work must be positive")
        self.name = name
        self.footprint_pages = footprint_pages
        self.total_misses = total_misses
        self.misses_per_window = misses_per_window
        self.compute_cycles_per_miss = compute_cycles_per_miss
        self.seed = seed
        self.objects: List[ObjectRegion] = list(objects or [])
        self._rng = np.random.default_rng(seed)
        self._consumed = 0
        self._window = 0

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Rewind to the start of execution with the same random stream."""
        self._rng = np.random.default_rng(self.seed)
        self._consumed = 0
        self._window = 0
        self._on_reset()

    def _on_reset(self) -> None:
        """Subclass hook for phase-state reinitialisation."""

    def final_metrics(self) -> dict:
        """End-of-run metrics attached to :class:`RunResult`.

        Values must be JSON-serialisable: they travel through the
        experiment layer's on-disk cache and across worker processes.
        """
        return {}

    def knobs(self) -> Dict[str, Any]:
        """Every :attr:`knob_names` value, defaults included.

        Part of the workload's cache identity
        (:func:`repro.exp.cache.workload_fingerprint`): instances that
        differ only in a knob run different streams.
        """
        return {name: getattr(self, name) for name in self.knob_names}

    @property
    def window_index(self) -> int:
        return self._window

    @property
    def progress(self) -> float:
        """Fraction of total work consumed so far, in [0, 1]."""
        return min(self._consumed / self.total_misses, 1.0)

    @property
    def done(self) -> bool:
        return self._consumed >= self.total_misses

    # -- traffic generation ----------------------------------------------------

    def next_window(self) -> WindowTraffic:
        """Emit one window of traffic and consume the matching work.

        The groups :meth:`_emit` returns are packed here, once, into the
        window's flat entry columns (:meth:`WindowTraffic.from_groups`).
        """
        budget = min(self.misses_per_window, self.total_misses - self._consumed)
        if budget <= 0:
            return WindowTraffic.from_groups([], 0.0, done=True)
        groups = self._emit(budget, self._rng)
        emitted = sum(g.total_misses for g in groups)
        self._consumed += emitted if emitted > 0 else budget
        self._window += 1
        return WindowTraffic.from_groups(
            groups,
            self._compute_cycles(emitted),
            done=self.done,
            phase=self.phase_name(),
        )

    def _compute_cycles(self, emitted_misses: int) -> float:
        return emitted_misses * self.compute_cycles_per_miss

    def phase_name(self) -> str:
        """Tag of the current execution phase (for traces and benches)."""
        return ""

    @abc.abstractmethod
    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        """Produce the window's access groups, totalling ~``budget`` misses."""

    # -- allocation ---------------------------------------------------------------

    def allocation_order(self) -> np.ndarray:
        """Page ids in the order the application allocated/first-touched them.

        First-touch (NoTier) placement follows this order: early
        allocations land in the fast tier until it fills, later ones
        spill to the slow tier.  Real applications frequently allocate
        their latency-*tolerant* bulk data (graph CSR arrays, model
        weights, value heaps) before their latency-*critical* structures
        (vertex metadata, indexes), which is precisely why first-touch
        performs poorly and tiering pays off (§5.2).  The default is
        page-id order; workloads override to reflect their load phase.

        The order must cover the whole footprint: the machine places
        every page before window 0 and rejects a workload that leaves
        one unplaced.  :meth:`_order_from_regions` appends the pages its
        regions miss.
        """
        return np.arange(self.footprint_pages, dtype=np.int64)

    def _order_from_regions(self, region_names: Sequence[str]) -> np.ndarray:
        """Allocation order visiting the named object regions in sequence,
        then every footprint page they leave out (in page-id order)."""
        by_name = {region.name: region for region in self.objects}
        parts = [by_name[name].pages() for name in region_names]
        order = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if order.size != self.footprint_pages:
            missing = np.setdiff1d(
                np.arange(self.footprint_pages, dtype=np.int64), order, assume_unique=True
            )
            order = np.concatenate([order, missing])
        return order


# ---------------------------------------------------------------------------
# Pattern building blocks.
# ---------------------------------------------------------------------------


def spread_counts(
    rng: np.random.Generator,
    num_pages: int,
    misses: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distribute ``misses`` over ``num_pages`` pages.

    Uniform when ``weights`` is None, else proportional to ``weights``.
    Returns a dense per-page count array of length ``num_pages``.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if misses <= 0:
        return np.zeros(num_pages, dtype=np.int64)
    if weights is None:
        p = np.full(num_pages, 1.0 / num_pages)
    else:
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must have positive mass")
        p = weights / total
    return rng.multinomial(misses, p).astype(np.int64)


def zipf_weights(num_pages: int, alpha: float, shuffle_rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Zipf-like popularity weights ``1 / rank**alpha`` over a page range.

    With ``shuffle_rng``, popularity ranks are scattered across the range
    (real allocators do not lay hot objects out contiguously).
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    ranks = np.arange(1, num_pages + 1, dtype=float)
    weights = ranks**-alpha
    if shuffle_rng is not None:
        shuffle_rng.shuffle(weights)
    return weights


def region_group(
    rng: np.random.Generator,
    region: ObjectRegion,
    misses: int,
    mlp: float,
    weights: Optional[np.ndarray] = None,
    load_fraction: float = 1.0,
    label: str = "",
) -> AccessGroup:
    """An access group spreading ``misses`` over one object region."""
    counts = spread_counts(rng, region.num_pages, misses, weights)
    hit = counts > 0
    return AccessGroup(
        pages=region.pages()[hit],
        counts=counts[hit],
        mlp=mlp,
        load_fraction=load_fraction,
        label=label or region.name,
    )
