"""CHMU: a CXL 3.2 Hotness Monitoring Unit access-sampling backend.

§4.3.5 notes PACT is not bound to PEBS: the CXL Hotness Monitoring Unit
introduced in CXL 3.2 tracks page accesses *inside the memory
controller* and periodically reports a hotlist.  Compared to PEBS:

* counts are exact (the controller sees every access) rather than
  1-in-N sampled,
* there is no per-record CPU processing cost -- readout is one cheap
  epoch-boundary drain of the top-K list,
* reporting is epoch-granular: within an epoch the host learns nothing,
  so reaction latency trades against readout overhead,
* only the device's own tier is visible (the slow tier -- exactly the
  one PACT samples).

The sampler below models a counter array with a bounded hotlist: every
window it accumulates true per-page access counts of the window's trace
entries that sit in its own tier (the device counts exactly the
accesses that land in its memory, as NeoMem's controller-side profiler
does); at each epoch boundary it emits the top-``hotlist_size`` pages
as a :class:`repro.hw.pebs.PebsBatch` with ``rate=1`` (exact counts),
then clears the epoch counters.

The accumulator is *sparse*: the epoch's (pages, counts) entries are
buffered and aggregated at the boundary with one concatenate + stable
sort + ``reduceat`` pass (:func:`aggregate_epoch`).  Integer addition
is associative, so the aggregated sums equal the dense
footprint-array-plus-``np.add.at`` accumulation bit for bit, whatever
order the entries arrive in -- without touching (or scanning with
``flatnonzero``) a footprint-sized array on epochs that visited only a
few pages.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hw.pebs import PebsBatch
from repro.mem.page import Tier

#: Cycles to drain the hotlist at an epoch boundary (MMIO reads).
DEFAULT_READOUT_CYCLES = 20_000.0


class ChmuSampler:
    """Controller-side per-page access counting with epoch hotlists."""

    def __init__(
        self,
        footprint_pages: int,
        hotlist_size: int = 2_048,
        epoch_windows: int = 1,
        readout_cycles: float = DEFAULT_READOUT_CYCLES,
        tier: int = Tier.SLOW,
    ):
        if hotlist_size <= 0:
            raise ValueError("hotlist must hold at least one entry")
        if epoch_windows < 1:
            raise ValueError("epoch must span at least one window")
        self.hotlist_size = hotlist_size
        self.epoch_windows = epoch_windows
        self.readout_cycles = readout_cycles
        self.tier = tier
        self.footprint_pages = footprint_pages
        self._epoch_pages: List[np.ndarray] = []
        self._epoch_counts: List[np.ndarray] = []
        self._window_in_epoch = 0
        self.rate = 1  # exact counts (PebsBatch-compatible attribute)

    def sample(
        self, pages: np.ndarray, counts: np.ndarray, tiers: np.ndarray
    ) -> PebsBatch:
        """Accumulate one window; emit the hotlist at epoch boundaries.

        ``pages``/``counts`` are the window's trace entries and
        ``tiers`` their per-entry placement; only entries resident in
        the device's own tier are counted (a CHMU observes only its own
        memory).
        """
        mine = tiers == int(self.tier)
        if mine.any():
            # Boolean selection copies, so the buffered entries survive
            # the window even when the caller's arrays are scratch; the
            # copies are plain int64 arrays even when replay hands in
            # memmap slices.
            self._epoch_pages.append(np.asarray(pages[mine], dtype=np.int64))
            self._epoch_counts.append(np.asarray(counts[mine], dtype=np.int64))
        self._window_in_epoch += 1
        if self._window_in_epoch < self.epoch_windows:
            return PebsBatch.empty(rate=1)
        self._window_in_epoch = 0
        return self._drain()

    def _drain(self) -> PebsBatch:
        touched, sums = aggregate_epoch(self._epoch_pages, self._epoch_counts)
        self._epoch_pages = []
        self._epoch_counts = []
        return drain_hotlist(touched, sums, self.hotlist_size, self.readout_cycles)


def aggregate_epoch(
    pages_list: Sequence[np.ndarray], counts_list: Sequence[np.ndarray]
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge an epoch's buffered (pages, counts) rows into sorted sums.

    One concatenate + stable argsort + ``unique``/``reduceat`` pass
    produces exactly what the historical dense accumulation emitted:
    ascending touched pages with their positive total counts (pages
    whose counts sum to zero are dropped, as ``flatnonzero`` over the
    dense array dropped them).  Integer addition is associative, so the
    sums are bit-identical regardless of grouping.
    """
    if not pages_list:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    flat_pages = (
        np.concatenate(pages_list) if len(pages_list) > 1 else pages_list[0]
    )
    flat_counts = (
        np.concatenate(counts_list) if len(counts_list) > 1 else counts_list[0]
    )
    sort = np.argsort(flat_pages, kind="stable")
    touched, first = np.unique(flat_pages[sort], return_index=True)
    sums = np.add.reduceat(flat_counts[sort], first)
    live = sums > 0
    return touched[live], sums[live]


def drain_hotlist(
    touched: np.ndarray, counts: np.ndarray, hotlist_size: int, readout_cycles: float
) -> PebsBatch:
    """Emit the top-``hotlist_size`` pages of one epoch's counts.

    ``touched`` must be sorted ascending with ``counts`` aligned (what
    ``flatnonzero`` + a dense-counter gather produces, and what
    :func:`aggregate_epoch` produces from sparse entries), so selection
    -- including ``argpartition``'s tie behaviour, which depends only
    on the input array -- and the final sorted hotlist do not depend on
    how the counts were accumulated.
    """
    if touched.size == 0:
        return PebsBatch.empty(rate=1)
    if touched.size > hotlist_size:
        keep = np.argpartition(counts, touched.size - hotlist_size)[-hotlist_size:]
        touched = touched[keep]
        counts = counts[keep]
    order = np.argsort(touched)
    return PebsBatch(
        pages=touched[order],
        counts=counts[order],
        rate=1,
        overhead_cycles=readout_cycles,
    )
