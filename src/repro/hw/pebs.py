"""PEBS-style sampled page-access observation.

Intel PEBS delivers one record per N hardware events (here: slow-tier
LLC-miss loads, event ``MEM_LOAD_L3_MISS_RETIRE``).  Over a 20 ms window
this is statistically a binomial thinning of each page's true miss
count, which is exactly how the sampler below draws its observations.

The sampler also models the cost of consuming PEBS records (the
dedicated processing thread of §4.6): each record costs a fixed number
of cycles, so denser sampling (a lower ``rate``) buys accuracy with
overhead -- the trade-off probed by the Figure 10a sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.stall import ShareBatch
from repro.mem.page import Tier

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


class PebsSampler:
    """Binomial 1-in-N thinning of per-page miss counts."""

    def __init__(
        self,
        rate: int = DEFAULT_PEBS_RATE,
        cycles_per_record: float = DEFAULT_CYCLES_PER_RECORD,
        rng: Optional[np.random.Generator] = None,
        loads_only: bool = True,
        report_latency: bool = False,
    ):
        if rate < 1:
            raise ValueError("PEBS rate must be >= 1")
        self.rate = rate
        self.cycles_per_record = cycles_per_record
        self.loads_only = loads_only
        #: Attach per-record exposed-latency reporting (TPEBS-style).
        self.report_latency = report_latency
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Stage-1 shortcut (see :meth:`draw`): PCG64's ``advance`` counts
        #: 64-bit outputs, i.e. doubles; other bit generators keep the call.
        bitgen = self._rng.bit_generator
        self._advance = bitgen.advance if isinstance(bitgen, np.random.PCG64) else None

    def draw(
        self, shares: ShareBatch, tiers: "tuple[Tier, ...]" = (Tier.SLOW,)
    ) -> "tuple[list, list, list]":
        """The RNG stage: thinning draws per share, merge inputs out.

        The two binomial draws must stay sequenced per share (the
        record draw thins the load draw's result), so the RNG stream
        -- and thus every sampled record -- matches a per-share loop
        exactly.  The batch is walked by row over its column views.
        ``share_units`` (each share's exposed latency per load =
        effective latency / MLP = unit stall cost) is only collected
        when latency reporting is on -- nothing else reads it.

        Stage-1 identity: ``binomial(n, 1.0)`` returns ``n`` after
        consuming exactly one double per nonzero ``n`` (numpy takes the
        inversion branch with ``q = 0``, whose single uniform always
        lands under ``q**n = 1``).  All-load rows -- nearly every row --
        therefore skip the call and just advance the generator by their
        nonzero-entry count; the stage-2 draw then sees the same counts
        and the same stream position.  ``tests/test_pebs_shortcut.py``
        pins the numpy behaviour this relies on.
        """
        all_pages = []
        all_records = []
        share_units = []
        rng = self._rng
        advance = self._advance
        rate_p = 1.0 / self.rate
        want_units = self.report_latency
        if self.loads_only:
            for pages, counts, load_fraction, unit in _tier_share_rows(shares, tiers):
                # Thin writes out before the 1-in-N event sampling.
                if load_fraction == 1.0 and advance is not None:
                    advance(int(np.count_nonzero(counts)))
                    records = rng.binomial(counts, rate_p)
                else:
                    records = rng.binomial(rng.binomial(counts, load_fraction), rate_p)
                all_pages.append(pages)
                all_records.append(records)
                if want_units:
                    share_units.append(unit)
        else:
            for pages, counts, _load_fraction, unit in _tier_share_rows(shares, tiers):
                all_pages.append(pages)
                all_records.append(rng.binomial(counts, rate_p))
                if want_units:
                    share_units.append(unit)
        return all_pages, all_records, share_units

    def merge(self, drawn: "tuple[list, list, list]") -> PebsBatch:
        """The merge stage: concatenate, drop zero-record entries, and
        merge duplicate pages (record-weighted mean for latencies)."""
        all_pages, all_records, share_units = drawn
        if not all_pages:
            return PebsBatch.empty(self.rate)
        pages = np.concatenate(all_pages) if len(all_pages) > 1 else all_pages[0]
        records = np.concatenate(all_records) if len(all_records) > 1 else all_records[0]
        hit = records > 0
        pages = pages[hit]
        records = records[hit]
        if pages.size == 0:
            return PebsBatch.empty(self.rate)
        if len(all_pages) == 1 and _strictly_increasing(pages):
            # One contributing share with already-unique sorted pages
            # (the common single-group-window case): the merge pass has
            # nothing to merge, so skip np.unique/bincount entirely.
            # The boolean-mask indexing above already produced fresh
            # arrays, so nothing here aliases solver scratch.
            uniq = pages
            merged = records
            latencies = None
            if self.report_latency:
                # One share, one unit latency; the merged-path division
                # (records * unit / records) is reproduced exactly so
                # the emitted floats match bit for bit.
                lat = np.full(uniq.size, share_units[0], dtype=float)
                latencies = (lat * merged) / np.maximum(merged, 1)
        else:
            # The same page can appear in several groups; merge duplicates
            # (record-weighted mean for latencies).  bincount accumulates in
            # input-element order, i.e. bit-identically to a np.add.at loop,
            # and integer-valued float64 sums are exact far beyond any
            # realistic record count.
            uniq, inverse = np.unique(pages, return_inverse=True)
            merged = np.bincount(inverse, weights=records, minlength=uniq.size).astype(np.int64)
            latencies = None
            if self.report_latency:
                sizes = [p.size for p in all_pages]
                lat = np.repeat(np.asarray(share_units, dtype=float), sizes)[hit]
                weighted = np.bincount(inverse, weights=lat * records, minlength=uniq.size)
                latencies = weighted / np.maximum(merged, 1)
        total = int(merged.sum())
        return PebsBatch(
            pages=uniq,
            counts=merged,
            rate=self.rate,
            overhead_cycles=total * self.cycles_per_record,
            latencies=latencies,
        )

    def sample(
        self, shares: ShareBatch, tiers: "tuple[Tier, ...]" = (Tier.SLOW,)
    ) -> PebsBatch:
        """Draw one window's PEBS records from the given tier(s).

        PACT samples only slow-tier loads by default (§4.3.5): sampling
        the fast tier as well would double PEBS overhead for little
        policy value, since demotion candidates come from the LRU lists.
        Split into :meth:`draw` (the sequenced RNG stage) and
        :meth:`merge` so the machine can attribute their wall time to
        separate observability spans.
        """
        return self.merge(self.draw(shares, tiers=tiers))


def _strictly_increasing(pages: np.ndarray) -> bool:
    """True when ``pages`` is sorted ascending with no duplicates."""
    if pages.size <= 1:
        return True
    return bool(np.all(pages[1:] > pages[:-1]))


def _tier_share_rows(batch: ShareBatch, tiers: "tuple[Tier, ...]"):
    """Yield ``(pages, counts, load_fraction, unit_stall_cycles)`` for
    the shares in ``tiers``, in row order, as column views."""
    codes = tuple(int(t) for t in tiers)
    tier_codes = batch.tier_codes
    for i in range(batch.n):
        if int(tier_codes[i]) not in codes:
            continue
        yield (
            batch.pages_of(i),
            batch.counts_of(i),
            float(batch.load_fraction[i]),
            float(batch.unit_stall_cycles[i]),
        )
