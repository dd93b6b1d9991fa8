"""PEBS-style sampled page-access observation.

Intel PEBS delivers one record per N hardware events (here: slow-tier
LLC-miss loads, event ``MEM_LOAD_L3_MISS_RETIRE``).  The sampler draws
exactly that: a Bernoulli(1/N) process over the window's miss stream in
trace order, drawn as geometric gaps between sampled misses -- about
misses/N draws per window, however many page entries the window has.
Each sampled miss maps back to its entry by ``searchsorted`` on the
prefix sum of the entry counts, so every entry gets an independent
Binomial(count, 1/N) record count.  With ``loads_only``, a sample of an
entry whose group has load fraction ``lf < 1`` is kept with probability
``lf`` (stores leave no load record): Binomial(count, lf/N) in all.

The draw is keyed by (seed, ``"pebs"``) at the window's counter
(:class:`~repro.common.rngutil.KeyedStream`) and reads only the
window's trace entries.  It therefore depends on (seed, rate,
``loads_only``, window, entries) alone -- never on placement, the
policy, or which runs share a lockstep group -- so policies compared at
one seed see common random numbers.  A replayed run's sampler draws a
window once per stream: the stream's
:class:`~repro.hw.drawplan.StreamMemo` keeps the draw for every later
run with the same key.  The merge applies the policy-dependent part:
it gathers the placement of the sampled entries only, keeps those
resident in a sampled tier, and merges duplicate pages.

The sampler also models the cost of consuming PEBS records (the
dedicated processing thread of §4.6): each record costs a fixed number
of cycles, so denser sampling (a lower ``rate``) buys accuracy with
overhead -- the trade-off probed by the Figure 10a sensitivity study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.common.arrays import run_lengths, run_starts
from repro.common.rngutil import KeyedStream
from repro.hw.stall import ShareBatch

#: Default PEBS sampling rate: one record per 400 qualifying events (§4.3.5).
DEFAULT_PEBS_RATE = 400

#: Cycles to process one PEBS record (copy out, hash-table update).
DEFAULT_CYCLES_PER_RECORD = 150.0


@dataclass
class PebsBatch:
    """Sampled page accesses from one window.

    ``counts[i]`` is the number of PEBS records that hit ``pages[i]``;
    multiply by the sampling rate to estimate true access counts.
    ``latencies``, when present, carries the record-weighted mean
    *exposed* load latency per page -- the per-load latency reporting
    that Sapphire-Rapids-class PEBS/TPEBS adds (§4.3.7), used by the
    latency-weighted attribution extension.
    """

    pages: np.ndarray
    counts: np.ndarray
    rate: int
    overhead_cycles: float
    latencies: Optional[np.ndarray] = None

    @property
    def total_records(self) -> int:
        return int(self.counts.sum())

    def estimated_accesses(self) -> np.ndarray:
        """Per-page access estimates (records * rate)."""
        return self.counts.astype(float) * self.rate

    @staticmethod
    def empty(rate: int) -> "PebsBatch":
        return PebsBatch(
            pages=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            rate=rate,
            overhead_cycles=0.0,
        )


class PebsDraw(NamedTuple):
    """One window's sparse PEBS records, before placement is consulted.

    ``entries`` are the window-local indices (trace order, ascending) of
    the entries with at least one record, ``records`` their record
    counts, and ``group_ptr`` the window's G + 1 group offsets, which
    map an entry to its access group.
    """

    entries: np.ndarray
    records: np.ndarray
    group_ptr: Optional[np.ndarray]


def sampled_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Ascending 0-based positions of the sampled events among ``total``.

    A Bernoulli(``p``) process drawn as geometric gaps: each gap is the
    number of events up to and including the next sample, so the cost
    is one draw per sample (plus a few-sigma margin), not one per event.
    """
    mean = total * p
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 16
    ends = np.cumsum(rng.geometric(p, size=chunk))
    while ends[-1] <= total:
        more = np.cumsum(rng.geometric(p, size=chunk))
        more += ends[-1]
        ends = np.concatenate([ends, more])
    ends = ends[: int(np.searchsorted(ends, total, side="right"))]
    ends -= 1
    return ends


def entries_of(prefix: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The entry owning each event position.

    Entry ``i`` owns positions ``[prefix[i] - count[i], prefix[i])`` of
    the window's event stream, where ``prefix`` is the inclusive prefix
    sum of the counts; zero-count entries own none.
    """
    return np.searchsorted(prefix, positions, side="right")


_NO_ENTRIES = np.empty(0, dtype=np.intp)
_NO_RECORDS = np.empty(0, dtype=np.int64)
_NO_ENTRIES.flags.writeable = False
_NO_RECORDS.flags.writeable = False


class PebsSampler:
    """Keyed 1-in-N sampling of a window's miss stream."""

    __slots__ = (
        "rate",
        "cycles_per_record",
        "loads_only",
        "report_latency",
        "num_tiers",
        "_p",
        "_stream",
        "_memo",
        "_memo_key",
        "_code_mask",
        "_all_codes",
    )

    def __init__(
        self,
        seed: int = 0,
        rate: int = DEFAULT_PEBS_RATE,
        cycles_per_record: float = DEFAULT_CYCLES_PER_RECORD,
        sampled_codes: Sequence[int] = (1,),
        num_tiers: int = 2,
        loads_only: bool = True,
        report_latency: bool = False,
        memo=None,
    ):
        if rate < 1:
            raise ValueError("PEBS rate must be >= 1")
        self.rate = rate
        self.cycles_per_record = cycles_per_record
        self.loads_only = loads_only
        #: Attach per-record exposed-latency reporting (TPEBS-style).
        self.report_latency = report_latency
        self.num_tiers = num_tiers
        self._p = 1.0 / rate
        self._stream = KeyedStream(seed, "pebs")
        #: The replayed stream's StreamMemo (None on live traffic); with
        #: one, every draw must be given that stream's window columns.
        self._memo = memo
        # The memo key is every input of _draw besides the window's
        # columns: a new input to the draw must enter it.
        self._memo_key = ("pebs", seed, rate, loads_only)
        #: Lookup table over tier codes: True where the policy samples.
        mask = np.zeros(num_tiers, dtype=bool)
        mask[[int(c) for c in sampled_codes]] = True
        self._code_mask = mask
        self._all_codes = bool(mask.all())

    def draw(
        self,
        window: int,
        counts: np.ndarray,
        group_ptr: Optional[np.ndarray] = None,
        group_lf: Optional[np.ndarray] = None,
    ) -> PebsDraw:
        """The RNG stage: one window's sampled entries and their records.

        ``counts`` are the window's per-entry miss counts in trace
        order.  ``group_ptr``/``group_lf`` (the window's
        :class:`~repro.hw.access.WindowTraffic` ``group_ptr`` and
        ``load_fraction``) feed the load thin; without them every entry
        counts as all-load.  The load fraction is looked up for the sampled
        entries only.  At rate 1 every miss is a sample, so the entry
        counts pass through without a draw.  A replayed run looks the
        window up in its stream's memo first.
        """
        if self._memo is None:
            entries, records = self._draw(window, counts, group_ptr, group_lf)
        else:
            entries, records = self._memo.recall(
                (self._memo_key, window), self._draw, window, counts, group_ptr, group_lf
            )
        return PebsDraw(entries, records, group_ptr)

    def _draw(self, window, counts, group_ptr, group_lf):
        """``(entries, records)`` of one window, drawn at its counter."""
        prefix = np.cumsum(counts)
        if not prefix.size or prefix[-1] <= 0:
            return _NO_ENTRIES, _NO_RECORDS
        rng = self._stream.at(window)
        if self.rate == 1:
            entries = np.flatnonzero(counts)
            records = np.asarray(counts[entries], dtype=np.int64)
        else:
            positions = sampled_positions(rng, int(prefix[-1]), self._p)
            entries, records = run_lengths(entries_of(prefix, positions))
        if (
            self.loads_only
            and group_lf is not None
            and entries.size
            and group_lf.min() < 1.0
        ):
            lf = group_lf[np.searchsorted(group_ptr, entries, side="right") - 1]
            part = lf < 1.0
            records = records.copy()
            records[part] = rng.binomial(records[part], lf[part])
            kept = records > 0
            entries, records = entries[kept], records[kept]
        return entries, records

    def merge(
        self,
        drawn: PebsDraw,
        pages: np.ndarray,
        placement: np.ndarray,
        shares: Optional[ShareBatch] = None,
    ) -> PebsBatch:
        """The merge stage: placement-filter the draw and merge pages.

        ``pages`` are the window's per-entry pages (aligned with the
        drawn counts) and ``placement`` the page -> tier map before this
        window's migration.  Only sampled entries are gathered.  Records
        of entries resident outside the sampled tiers are dropped, and
        a page that appears in several groups gets one merged count.
        ``shares`` (the solved window) feeds latency reporting: a
        record's exposed latency is its (group, tier) share's unit
        stall cost, and a page reports the record-weighted mean.
        """
        entries, records, group_ptr = drawn
        if not entries.size:
            return PebsBatch.empty(self.rate)
        pg = pages[entries]
        want_latency = self.report_latency and shares is not None
        if want_latency or not self._all_codes:
            tier = placement[pg]
            if not self._all_codes:
                sel = self._code_mask[tier]
                if not sel.all():
                    pg, records, tier = pg[sel], records[sel], tier[sel]
                    entries = entries[sel]
                    if not pg.size:
                        return PebsBatch.empty(self.rate)
        latencies = None
        if want_latency:
            T = self.num_tiers
            lut = np.zeros((int(shares.group_index.max(initial=-1)) + 1) * T)
            lut[shares.group_index * T + shares.tier_codes] = shares.unit_stall_cycles
            groups = np.searchsorted(group_ptr, entries, side="right") - 1
            latencies = lut[groups * T + tier]
        if pg.size > 1 and not bool(np.all(pg[1:] > pg[:-1])):
            # Duplicate or unsorted pages: one stable sort, then sum the
            # runs (record-weighted mean for latencies).
            order = np.argsort(pg, kind="stable")
            pg = pg[order]
            records = records[order]
            starts = run_starts(pg)
            pg = pg[starts]
            if latencies is not None:
                weighted = np.add.reduceat(latencies[order] * records, starts)
            records = np.add.reduceat(records, starts)
            if latencies is not None:
                latencies = weighted / records
        return PebsBatch(
            pages=pg,
            counts=records,
            rate=self.rate,
            overhead_cycles=int(records.sum()) * self.cycles_per_record,
            latencies=latencies,
        )

    def sample(
        self,
        window: int,
        counts: np.ndarray,
        pages: np.ndarray,
        placement: np.ndarray,
        group_ptr: Optional[np.ndarray] = None,
        group_lf: Optional[np.ndarray] = None,
        shares: Optional[ShareBatch] = None,
    ) -> PebsBatch:
        """Draw and merge one window's PEBS records.

        PACT samples only slow-tier loads by default (§4.3.5): sampling
        the fast tier as well would double PEBS overhead for little
        policy value, since demotion candidates come from the LRU lists.
        The machine calls :meth:`draw` and :meth:`merge` separately so
        their wall time lands in separate observability spans.
        """
        drawn = self.draw(window, counts, group_ptr, group_lf)
        return self.merge(drawn, pages, placement, shares=shares)

    # The end-to-end benchmark's tracer still wraps the old keyed-sampler
    # method names; they stay as the same functions until a later
    # benchmark change retargets it.
    window_records = draw
    merge_window = merge
    merge_window_pos = merge
