"""Ground-truth per-tier stall model with bandwidth contention.

This is the simulator's stand-in for the out-of-order core: it turns the
window's memory traffic into CPU stall cycles.  The model is the same
physics the paper's Equation 1 captures --

    stalls_t = misses_t * effective_latency_t / MLP

-- applied per access group (so each pattern's own MLP amortises its own
latency), with effective latency inflated by bandwidth contention via an
M/M/1-style queueing factor.  The window duration and the contention
level are mutually dependent (utilisation = bytes / (duration * BW)), so
the model solves the fixed point with a few damped iterations.

Two equivalent pipelines solve the window:

* the **columnar** one (:class:`ShareBatch` + :meth:`StallModel.solve`
  on a batch): share attributes live in per-window arrays and every
  fixed-point iteration is a handful of numpy ops.  Per-tier stall
  accumulation uses ``np.bincount`` with float weights, which adds
  partial sums *in input-element order* -- exactly the order the legacy
  loop used -- so the float results are bit-identical;
* the **legacy** object-per-share one (:func:`split_groups_legacy` +
  ``solve`` on a plain share list): the original ordered-accumulation
  loops, kept importable both as the exactness reference for the
  property tests and as the fallback should a scenario's summation
  order ever diverge.

Note the deliberate architecture: policies never see this module's
outputs directly.  They observe only the counters derived from it
(:mod:`repro.hw.cha`, :mod:`repro.hw.perf`) plus PEBS samples, so PACT's
Equation-1 *estimator* is exercised as a genuinely separate code path
that the tests validate against this ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.common.units import CACHE_LINE_SIZE, CPU_FREQ_GHZ, TierSpec, ns_to_cycles
from repro.hw.access import AccessGroup
from repro.mem.page import Tier, tier_key

#: Demand-miss traffic is accompanied by prefetch traffic; this factor
#: scales miss bytes to total bytes on the memory link.
DEFAULT_PREFETCH_TRAFFIC_FACTOR = 0.5

#: Utilisation is capped below 1.0 so the queueing term stays finite
#: even when contender traffic nominally oversubscribes the link.
MAX_UTILISATION = 0.96

#: Gain on the M/M/1 rho/(1-rho) latency inflation term.
QUEUE_GAIN = 0.6

_FIXED_POINT_ITERATIONS = 4

#: Row-count cutoff below which :meth:`StallModel._solve_batch` runs the
#: fixed point as plain Python floats.  At typical dynamic-replay widths
#: (groups x tiers ~ 12 rows) the four iterations cost ~16 small-array
#: numpy dispatches; scalar IEEE doubles do the same ops in the same
#: order (bit-identical) for a fraction of the overhead.
_SCALAR_SOLVE_ROWS = 32


@dataclass
class GroupTierShare:
    """One access group's traffic that landed in one tier."""

    group_index: int
    tier: Tier
    pages: np.ndarray
    counts: np.ndarray
    mlp: float
    load_fraction: float = 1.0
    label: str = ""
    #: Filled in by the solver: stall cycles per miss for this share.
    unit_stall_cycles: float = 0.0

    @property
    def misses(self) -> int:
        return int(self.counts.sum())

    def stall_cycles(self) -> float:
        return self.misses * self.unit_stall_cycles

    def per_page_stalls(self) -> np.ndarray:
        """Ground-truth stall cycles attributed to each page of the share."""
        return self.counts.astype(float) * self.unit_stall_cycles


class ShareBatch:
    """Columnar (structure-of-arrays) view of one window's shares.

    Rows are in the legacy share order -- for each group in traffic
    order, its FAST share (if any) then its SLOW share (if any) -- so
    every consumer that walks rows front to back reproduces the exact
    iteration order (and therefore the exact RNG stream and float
    summation order) of the old ``List[GroupTierShare]`` pipeline.

    Page/count data for all shares lives in two tier-partitioned
    concatenation buffers; ``pages_of``/``counts_of`` carve per-share
    slices out of them as views.  The buffers (and the column arrays)
    are scratch owned by the :class:`StallModel` that built the batch:
    a batch is only valid until the model's next ``split_groups`` call.

    For compatibility with code written against share lists, a batch
    supports ``len``, iteration, and indexing; these lazily materialise
    :class:`GroupTierShare` objects (with *copied* page/count arrays, so
    they survive scratch reuse).
    """

    __slots__ = (
        "n",
        "num_tiers",
        "group_index",
        "tier_codes",
        "tiers",
        "mlp",
        "load_fraction",
        "misses",
        "misses_f",
        "offsets",
        "pages_buf",
        "counts_buf",
        "labels",
        "unit_stall_cycles",
        "stall_scratch",
        "tier_misses",
        "_materialised",
    )

    def __init__(
        self,
        n: int,
        group_index: np.ndarray,
        tier_codes: np.ndarray,
        mlp: np.ndarray,
        load_fraction: np.ndarray,
        misses: np.ndarray,
        offsets: np.ndarray,
        pages_buf: np.ndarray,
        counts_buf: np.ndarray,
        labels: List[str],
        unit_stall_cycles: np.ndarray,
        stall_scratch: np.ndarray,
        num_tiers: int = 2,
        misses_f: Optional[np.ndarray] = None,
        tier_misses: Optional[tuple] = None,
    ):
        self.n = n
        self.num_tiers = num_tiers
        self.group_index = group_index
        self.tier_codes = tier_codes
        #: Per-row tier keys (:class:`Tier` enums for tiers 0/1, plain
        #: ints beyond -- consumers key dicts by tier).
        self.tiers = [tier_key(int(c)) for c in tier_codes]
        self.mlp = mlp
        self.load_fraction = load_fraction
        #: Per-row total miss count (precomputed once per window; the
        #: legacy pipeline re-reduced ``counts.sum()`` many times per
        #: share per window).
        self.misses = misses
        self.misses_f = misses.astype(np.float64) if misses_f is None else misses_f
        #: ``None`` in a misses-only batch (see ``split_groups`` and
        #: :func:`repro.hw.drawplan.build_static_batches`):
        #: ``pages_of``/``counts_of`` then fail loudly rather than
        #: returning wrong slices.
        self.offsets = offsets
        self.pages_buf = pages_buf
        self.counts_buf = counts_buf
        self.labels = labels
        #: Filled by the solver: per-row stall cycles per miss.
        self.unit_stall_cycles = unit_stall_cycles
        #: Solver scratch for per-row stall weights (reused each iteration).
        self.stall_scratch = stall_scratch
        #: Per-tier miss totals, indexed by ``int(tier)``.
        if tier_misses is None:
            tier_misses = tuple(
                int(misses[tier_codes == code].sum()) for code in range(num_tiers)
            )
        self.tier_misses = tier_misses
        self._materialised: Optional[List[GroupTierShare]] = None

    # -- per-row views -------------------------------------------------------

    def pages_of(self, i: int) -> np.ndarray:
        return self.pages_buf[self.offsets[i] : self.offsets[i + 1]]

    def counts_of(self, i: int) -> np.ndarray:
        return self.counts_buf[self.offsets[i] : self.offsets[i + 1]]

    def rows_in_tier(self, tier: Tier) -> List[int]:
        """Row indices of the shares in ``tier``, in row (= legacy) order."""
        code = int(tier)
        return [i for i in range(self.n) if self.tier_codes[i] == code]

    # -- list compatibility --------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.as_shares())

    def __getitem__(self, i: int) -> GroupTierShare:
        return self.as_shares()[i]

    def __eq__(self, other) -> bool:
        # Supports the common "no shares" check (``batch == []``);
        # element-wise list comparison is not meaningful for dataclasses
        # holding arrays, so anything else falls through.
        if isinstance(other, (list, tuple)) and len(other) == 0:
            return self.n == 0
        return NotImplemented

    def __hash__(self):  # pragma: no cover - batches are not dict keys
        return id(self)

    def as_shares(self) -> List[GroupTierShare]:
        """Materialise :class:`GroupTierShare` objects (copied arrays)."""
        if self._materialised is None:
            self._materialised = [
                GroupTierShare(
                    group_index=int(self.group_index[i]),
                    tier=self.tiers[i],
                    pages=self.pages_of(i).copy(),
                    counts=self.counts_of(i).copy(),
                    mlp=float(self.mlp[i]),
                    load_fraction=float(self.load_fraction[i]),
                    label=self.labels[i],
                    unit_stall_cycles=float(self.unit_stall_cycles[i]),
                )
                for i in range(self.n)
            ]
        return self._materialised


@dataclass
class TierLoad:
    """Aggregate per-tier outcome of one window."""

    tier: Tier
    misses: int = 0
    bytes: float = 0.0
    stall_cycles: float = 0.0
    effective_latency_cycles: float = 0.0
    #: Miss-weighted harmonic-mean MLP of the traffic in this tier.
    mlp: float = 1.0
    utilisation: float = 0.0


@dataclass
class WindowHardware:
    """Full ground-truth outcome of one simulated window."""

    shares: Union[ShareBatch, List[GroupTierShare]]
    tier_loads: Dict[Tier, TierLoad]
    compute_cycles: float
    duration_cycles: float

    @property
    def total_stall_cycles(self) -> float:
        return sum(load.stall_cycles for load in self.tier_loads.values())

    def shares_in_tier(self, tier: Tier) -> List[GroupTierShare]:
        return [s for s in self.shares if s.tier == tier]


def split_groups_legacy(
    groups: Sequence[AccessGroup], placement: np.ndarray, num_tiers: int = 2
) -> List[GroupTierShare]:
    """The original object-per-share split (exactness reference).

    Builds one freshly-allocated :class:`GroupTierShare` per (group,
    tier) with boolean-mask copies -- the behaviour the columnar
    ``split_groups`` replaces.  Kept importable for the property tests
    and as the ordered fallback path.
    """
    shares: List[GroupTierShare] = []
    for gi, group in enumerate(groups):
        tiers = placement[group.pages]
        for code in range(num_tiers):
            mask = tiers == code
            if not mask.any():
                continue
            shares.append(
                GroupTierShare(
                    group_index=gi,
                    tier=tier_key(code),
                    pages=group.pages[mask],
                    counts=group.counts[mask],
                    mlp=group.mlp,
                    load_fraction=group.load_fraction,
                    label=group.label,
                )
            )
    return shares


class StallModel:
    """Solves one window's stalls, latency inflation, and duration."""

    def __init__(
        self,
        fast_spec: Union[TierSpec, Sequence[TierSpec]],
        slow_spec: Optional[TierSpec] = None,
        freq_ghz: float = CPU_FREQ_GHZ,
        prefetch_traffic_factor: float = DEFAULT_PREFETCH_TRAFFIC_FACTOR,
        obs=None,
    ):
        # Either the legacy (fast_spec, slow_spec) pair or an ordered
        # spec sequence for an N-tier topology as the first argument.
        if isinstance(fast_spec, (list, tuple)):
            specs = list(fast_spec)
        else:
            specs = [fast_spec, slow_spec]
        #: Per-tier specs, indexed by tier code (Tier enums work too).
        self.spec: List[TierSpec] = specs
        self.num_tiers = len(specs)
        self.freq_ghz = freq_ghz
        self.prefetch_traffic_factor = prefetch_traffic_factor
        #: Optional :class:`repro.obs.Observability` sink for the
        #: fixed-point residual gauge (None = no publishing).
        self._obs = obs
        # -- reusable split/solve scratch (grown on demand, never shrunk) --
        self._page_scratch = np.empty(0, dtype=np.int64)
        self._count_scratch = np.empty(0, dtype=np.int64)
        self._mask_scratch = np.empty(0, dtype=bool)
        self._key_scratch = np.empty(0, dtype=np.intp)
        self._row_capacity = 0
        self._row_cols: Dict[str, np.ndarray] = {}

    # -- share splitting -----------------------------------------------------

    def split_groups(
        self,
        groups: Sequence[AccessGroup],
        placement: np.ndarray,
        pages: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
        tiers: Optional[np.ndarray] = None,
        misses_only: bool = False,
        key_base: Optional[np.ndarray] = None,
        counts_f: Optional[np.ndarray] = None,
        counts_positive: bool = False,
        assume_allocated: bool = False,
    ) -> ShareBatch:
        """Partition each group's traffic by placement, columnar.

        One ``placement`` gather over the window's concatenated pages,
        then a stable partition into the model-owned buffers.  Two
        equivalent strategies, picked by shape: with few (group, tier)
        cells -- the common case, a handful of groups on two tiers --
        a per-cell mask + ``np.compress`` loop is the cheapest stable
        counting sort; with many cells one stable argsort on the packed
        ``group * num_tiers + tier`` key replaces the per-cell passes.
        Both keep entries with equal keys in input order, so each row's
        page and count buffers are byte-identical either way, and rows
        emerge in the legacy share order (per group: FAST then SLOW,
        empty cells skipped).  Entries on UNALLOCATED pages are dropped,
        mirroring the legacy masks that matched no tier.

        ``pages``/``counts`` optionally pass in the already-concatenated
        traffic (the machine builds that concatenation anyway for the
        LRU touch); when omitted it is built here.  ``tiers`` optionally
        passes the per-entry placement gather (``placement[pages]``)
        when the caller already holds it for the same window.  The
        returned batch aliases model scratch and is valid until the
        next call.

        ``misses_only=True`` skips the page/count partition entirely:
        per-row miss totals come from one weighted bincount over the
        packed (group, tier) key, and the returned batch carries
        ``pages_buf=None`` (``pages_of``/``counts_of`` fail loudly).
        Everything the solver, the TOR/perf counters, and the schema-2
        keyed samplers read (row order, misses, mlp, load fractions,
        tier totals) is bit-identical to the partitioned form -- only
        consumers that walk per-share page lists (the schema-1
        PEBS/CHMU samplers, the drawplan builders) need the buffers.

        The remaining keyword hints let a replay driver hand in
        prestaged trace-determined inputs
        (:class:`repro.hw.drawplan.EntryMetaPlan`): ``key_base`` is the
        per-entry ``group * num_tiers`` term of the packed key,
        ``counts_f`` the float64 view of ``counts`` (weighted bincount
        accumulates float64 either way), ``counts_positive`` asserts
        every count is >= 1 (cell presence then follows from the
        weighted bincount, skipping the unweighted one), and
        ``assume_allocated`` asserts no entry sits on an UNALLOCATED
        page (skipping the min scan).  Each hint removes a per-entry
        pass without changing a single output bit.
        """
        n_groups = len(groups)
        if pages is None:
            if n_groups == 0:
                pages = np.empty(0, dtype=np.int64)
                counts = np.empty(0, dtype=np.int64)
            elif n_groups == 1:
                pages, counts = groups[0].pages, groups[0].counts
            else:
                pages = np.concatenate([g.pages for g in groups])
                counts = np.concatenate([g.counts for g in groups])
        total = pages.size
        if not misses_only and self._page_scratch.size < total:
            self._page_scratch = np.empty(total, dtype=np.int64)
            self._count_scratch = np.empty(total, dtype=np.int64)
        if self._mask_scratch.size < total:
            self._mask_scratch = np.empty(total, dtype=bool)
        max_rows = self.num_tiers * n_groups
        if self._row_capacity < max_rows or not self._row_cols:
            self._row_capacity = max(max_rows, 2 * self._row_capacity, 8)
            cap = self._row_capacity
            self._row_cols = {
                "group_index": np.empty(cap, dtype=np.int64),
                "tier_codes": np.empty(cap, dtype=np.intp),
                "mlp": np.empty(cap, dtype=np.float64),
                "load_fraction": np.empty(cap, dtype=np.float64),
                "offsets": np.empty(cap + 1, dtype=np.int64),
                "unit": np.empty(cap, dtype=np.float64),
                "stall_w": np.empty(cap, dtype=np.float64),
            }
        cols = self._row_cols
        tiers_all = placement[pages] if tiers is None else tiers
        num_tiers = self.num_tiers
        if misses_only:
            return self._split_misses_only(
                groups,
                tiers_all,
                counts,
                total,
                n_groups,
                max_rows,
                key_base=key_base,
                counts_f=counts_f,
                counts_positive=counts_positive,
                assume_allocated=assume_allocated,
            )
        if max_rows <= 32:
            labels = []
            row = 0
            off = 0
            cols["offsets"][0] = 0
            start = 0
            for gi, group in enumerate(groups):
                size = group.pages.size
                sub = tiers_all[start : start + size]
                mask = self._mask_scratch[:size]
                for tier_code in range(num_tiers):
                    np.equal(sub, tier_code, out=mask)
                    k = int(np.count_nonzero(mask))
                    if k == 0:
                        continue
                    np.compress(
                        mask,
                        pages[start : start + size],
                        out=self._page_scratch[off : off + k],
                    )
                    np.compress(
                        mask,
                        counts[start : start + size],
                        out=self._count_scratch[off : off + k],
                    )
                    cols["group_index"][row] = gi
                    cols["tier_codes"][row] = tier_code
                    cols["mlp"][row] = group.mlp
                    cols["load_fraction"][row] = group.load_fraction
                    labels.append(group.label)
                    off += k
                    row += 1
                    cols["offsets"][row] = off
                start += size
            offsets = cols["offsets"][: row + 1]
            if row:
                misses = np.add.reduceat(self._count_scratch[:off], offsets[:-1])
            else:
                misses = np.empty(0, dtype=np.int64)
            return ShareBatch(
                n=row,
                group_index=cols["group_index"][:row],
                tier_codes=cols["tier_codes"][:row],
                mlp=cols["mlp"][:row],
                load_fraction=cols["load_fraction"][:row],
                misses=misses,
                offsets=offsets,
                pages_buf=self._page_scratch[:off],
                counts_buf=self._count_scratch[:off],
                labels=labels,
                unit_stall_cycles=cols["unit"][:row],
                stall_scratch=cols["stall_w"][:row],
                num_tiers=num_tiers,
            )
        if n_groups <= 1:
            key = tiers_all
        else:
            # int16 packing keeps numpy's radix path for the stable sort;
            # fall back to int64 for (pathologically) huge group counts.
            key_dtype = np.int16 if n_groups * num_tiers < 32000 else np.int64
            gi_all = np.repeat(
                np.arange(n_groups, dtype=key_dtype),
                [g.pages.size for g in groups],
            )
            key = gi_all * key_dtype(num_tiers)
            np.add(key, tiers_all, out=key, casting="unsafe")
        if total and int(tiers_all.min()) < 0:
            valid = tiers_all >= 0
            pages = pages[valid]
            counts = counts[valid]
            key = key[valid]
            total = pages.size
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        page_buf = self._page_scratch[:total]
        count_buf = self._count_scratch[:total]
        if pages.dtype == np.int64:
            np.take(pages, order, out=page_buf)
        else:
            page_buf[:] = pages[order]
        if counts.dtype == np.int64:
            np.take(counts, order, out=count_buf)
        else:
            count_buf[:] = counts[order]
        labels: List[str]
        if total:
            change = np.empty(total, dtype=bool)
            change[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            row = starts.size
            row_keys = sorted_key[starts].astype(np.int64)
            if n_groups <= 1:
                row_gi = np.zeros(row, dtype=np.int64)
                row_tier = row_keys
            else:
                row_gi = row_keys // num_tiers
                row_tier = row_keys - row_gi * num_tiers
            cols["group_index"][:row] = row_gi
            cols["tier_codes"][:row] = row_tier
            cols["offsets"][:row] = starts
            cols["offsets"][row] = total
            if n_groups == 1:
                cols["mlp"][:row] = groups[0].mlp
                cols["load_fraction"][:row] = groups[0].load_fraction
                labels = [groups[0].label] * row
            else:
                cols["mlp"][:row] = np.array([g.mlp for g in groups])[row_gi]
                cols["load_fraction"][:row] = np.array(
                    [g.load_fraction for g in groups]
                )[row_gi]
                labels = [groups[gi].label for gi in row_gi]
            misses = np.add.reduceat(count_buf, starts)
        else:
            row = 0
            cols["offsets"][0] = 0
            labels = []
            misses = np.empty(0, dtype=np.int64)
        off = total
        offsets = cols["offsets"][: row + 1]
        return ShareBatch(
            n=row,
            group_index=cols["group_index"][:row],
            tier_codes=cols["tier_codes"][:row],
            mlp=cols["mlp"][:row],
            load_fraction=cols["load_fraction"][:row],
            misses=misses,
            offsets=offsets,
            pages_buf=self._page_scratch[:off],
            counts_buf=self._count_scratch[:off],
            labels=labels,
            unit_stall_cycles=cols["unit"][:row],
            stall_scratch=cols["stall_w"][:row],
            num_tiers=self.num_tiers,
        )

    def _split_misses_only(
        self,
        groups: Sequence[AccessGroup],
        tiers_all: np.ndarray,
        counts: np.ndarray,
        total: int,
        n_groups: int,
        max_rows: int,
        key_base: Optional[np.ndarray] = None,
        counts_f: Optional[np.ndarray] = None,
        counts_positive: bool = False,
        assume_allocated: bool = False,
    ) -> ShareBatch:
        """The bincount split: per-(group, tier) totals, no partition.

        Bincounts over the packed ``group * num_tiers + tier`` key --
        one unweighted for cell presence (count-zero entries still
        create shares, exactly like the legacy masks; skipped when the
        caller guarantees every count is positive), one count-weighted
        for per-cell misses -- replace the stable partition entirely.
        Weighted bincount accumulates float64, but the weights are
        integer miss counts well below 2**53, so the cast back to int64
        is exact and every downstream value matches the partitioned
        path bit for bit.
        """
        num_tiers = self.num_tiers
        cols = self._row_cols
        weights = counts if counts_f is None else counts_f
        if not assume_allocated and total and int(tiers_all.min()) < 0:
            # UNALLOCATED (-1) entries would alias the previous group's
            # last tier in the packed key; the legacy masks silently
            # drop them.
            valid = tiers_all >= 0
            tiers_all = tiers_all[valid]
            weights = weights[valid]
            key_base = None
            if n_groups > 1:
                gi_all = np.repeat(
                    np.arange(n_groups, dtype=np.intp),
                    [g.pages.size for g in groups],
                )[valid]
        elif n_groups > 1 and key_base is None:
            gi_all = np.repeat(
                np.arange(n_groups, dtype=np.intp),
                [g.pages.size for g in groups],
            )
        if n_groups <= 1:
            key = tiers_all
        elif key_base is not None:
            if self._key_scratch.size < total:
                self._key_scratch = np.empty(total, dtype=np.intp)
            key = self._key_scratch[:total]
            np.add(key_base, tiers_all, out=key, casting="unsafe")
        else:
            key = gi_all * num_tiers
            np.add(key, tiers_all, out=key, casting="unsafe")
        cell_misses = np.bincount(key, weights=weights, minlength=max_rows)
        if counts_positive:
            # Every entry's count is >= 1, so a cell is present exactly
            # when its miss sum is nonzero (integer-valued floats: a
            # present cell sums to >= 1.0, an absent one to exactly 0.0).
            row_keys = np.flatnonzero(cell_misses)
        else:
            presence = np.bincount(key, minlength=max_rows)
            row_keys = np.flatnonzero(presence)
        row = row_keys.size
        misses_f = cell_misses[row_keys]
        misses = misses_f.astype(np.int64)
        tier_misses = tuple(
            int(cell_misses[code::num_tiers].sum()) for code in range(num_tiers)
        )
        if n_groups <= 1:
            row_gi = np.zeros(row, dtype=np.int64)
            row_tier = row_keys.astype(np.intp)
        else:
            row_gi = row_keys // num_tiers
            row_tier = (row_keys - row_gi * num_tiers).astype(np.intp)
        cols["group_index"][:row] = row_gi
        cols["tier_codes"][:row] = row_tier
        if n_groups == 1:
            cols["mlp"][:row] = groups[0].mlp
            cols["load_fraction"][:row] = groups[0].load_fraction
            labels = [groups[0].label] * row
        elif n_groups:
            cols["mlp"][:row] = np.array([g.mlp for g in groups])[row_gi]
            cols["load_fraction"][:row] = np.array(
                [g.load_fraction for g in groups]
            )[row_gi]
            labels = [groups[gi].label for gi in row_gi]
        else:
            labels = []
        return ShareBatch(
            n=row,
            group_index=cols["group_index"][:row],
            tier_codes=cols["tier_codes"][:row],
            mlp=cols["mlp"][:row],
            load_fraction=cols["load_fraction"][:row],
            misses=misses,
            offsets=None,
            pages_buf=None,
            counts_buf=None,
            labels=labels,
            unit_stall_cycles=cols["unit"][:row],
            stall_scratch=cols["stall_w"][:row],
            num_tiers=num_tiers,
            misses_f=misses_f,
            tier_misses=tier_misses,
        )

    # -- the fixed point -----------------------------------------------------

    def solve(
        self,
        shares: Union[ShareBatch, Sequence[GroupTierShare]],
        compute_cycles: float,
        extra_bytes: Optional[Dict[Tier, float]] = None,
        extra_cycles: float = 0.0,
    ) -> WindowHardware:
        """Fixed-point solve of stalls, contention, and window duration.

        ``extra_bytes`` injects link traffic that produces no CPU stalls
        for the observed application (MLC contenders, migration copies).
        ``extra_cycles`` extends the duration without stalls (sampling /
        migration overheads charged to the window).

        A :class:`ShareBatch` takes the vectorised path; a plain share
        sequence takes the legacy ordered-accumulation loop.  The two
        are bit-identical (the property tests assert it).
        """
        if isinstance(shares, ShareBatch):
            return self._solve_batch(shares, compute_cycles, extra_bytes, extra_cycles)
        return self._solve_shares(shares, compute_cycles, extra_bytes, extra_cycles)

    def _solve_batch(
        self,
        batch: ShareBatch,
        compute_cycles: float,
        extra_bytes: Optional[Dict[Tier, float]],
        extra_cycles: float,
    ) -> WindowHardware:
        """Vectorised fixed point over the batch columns.

        Each iteration: the per-tier latency/utilisation update stays
        the exact scalar code (two tiers), then per-share unit costs and
        the per-tier stall totals are single numpy ops.  ``bincount``
        accumulates float weights in row order -- the same order (and
        thus the same rounding) as the legacy per-share loop.
        """
        extra_bytes = extra_bytes or {}
        loads = {tier_key(t): TierLoad(tier=tier_key(t)) for t in range(self.num_tiers)}
        for tier, load in loads.items():
            load.misses = batch.tier_misses[int(tier)]
            demand_bytes = load.misses * CACHE_LINE_SIZE
            load.bytes = demand_bytes * (1.0 + self.prefetch_traffic_factor)
            load.bytes += float(extra_bytes.get(tier, 0.0))

        if batch.n <= _SCALAR_SOLVE_ROWS:
            return self._solve_batch_scalar(
                batch, loads, compute_cycles, extra_cycles
            )

        codes = batch.tier_codes
        unit = batch.unit_stall_cycles
        weights = batch.stall_scratch
        lat = np.empty(self.num_tiers, dtype=np.float64)

        duration = max(compute_cycles + extra_cycles, 1.0)
        residual = 0.0
        for _ in range(_FIXED_POINT_ITERATIONS):
            for tier, load in loads.items():
                spec = self.spec[tier]
                duration_ns = duration / self.freq_ghz
                supply = spec.bytes_per_ns() * duration_ns
                util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                load.utilisation = util
                inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
                load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, self.freq_ghz) * inflation
                lat[int(tier)] = load.effective_latency_cycles
            np.take(lat, codes, out=unit)
            np.divide(unit, batch.mlp, out=unit)
            np.multiply(batch.misses_f, unit, out=weights)
            tier_stalls = np.bincount(codes, weights=weights, minlength=self.num_tiers)
            # Ordered scalar accumulation: for two tiers this is exactly
            # the historical float(fast) + float(slow) sum.
            total_stalls = 0.0
            for tier, load in loads.items():
                load.stall_cycles = float(tier_stalls[int(tier)])
                total_stalls += load.stall_cycles
            new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
            residual = abs(new_duration - duration) / new_duration
            # Damped update stabilises the few pathological cases where
            # contention and duration oscillate.
            duration = 0.5 * duration + 0.5 * new_duration

        if self._obs is not None:
            # Residual of the last iteration: how far the damped solve
            # still was from its fixed point (loop-health gauge).
            self._obs.gauge("stall/fixed_point_residual", residual)
        np.divide(batch.misses_f, batch.mlp, out=weights)
        inv = np.bincount(codes, weights=weights, minlength=self.num_tiers)
        for tier, load in loads.items():
            total = batch.tier_misses[int(tier)]
            if total == 0:
                load.mlp = 1.0
                continue
            tier_inv = float(inv[int(tier)])
            load.mlp = total / tier_inv if tier_inv > 0 else 1.0
        return WindowHardware(
            shares=batch,
            tier_loads=loads,
            compute_cycles=compute_cycles,
            duration_cycles=duration,
        )

    def _solve_batch_scalar(
        self,
        batch: ShareBatch,
        loads: Dict[Tier, "TierLoad"],
        compute_cycles: float,
        extra_cycles: float,
    ) -> WindowHardware:
        """The fixed point of :meth:`_solve_batch` as plain Python floats.

        Python floats are IEEE doubles, and the per-row accumulation
        below performs ``misses_f[i] * (lat[code] / mlp[i])`` and the
        per-bucket sums in exactly the take/divide/multiply/bincount
        order of the vectorised path, so every result is bit-identical.
        At the handful-of-rows widths dynamic replay produces, skipping
        ~16 small-array numpy dispatches per window is a clear win.
        """
        n = batch.n
        codes_l = batch.tier_codes[:n].tolist()
        mlp_l = batch.mlp[:n].tolist()
        misses_l = batch.misses_f[:n].tolist()
        num_tiers = self.num_tiers
        lat = [0.0] * num_tiers

        duration = max(compute_cycles + extra_cycles, 1.0)
        residual = 0.0
        for _ in range(_FIXED_POINT_ITERATIONS):
            for tier, load in loads.items():
                spec = self.spec[tier]
                duration_ns = duration / self.freq_ghz
                supply = spec.bytes_per_ns() * duration_ns
                util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                load.utilisation = util
                inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
                load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, self.freq_ghz) * inflation
                lat[int(tier)] = load.effective_latency_cycles
            tier_stalls = [0.0] * num_tiers
            for i in range(n):
                c = codes_l[i]
                tier_stalls[c] += misses_l[i] * (lat[c] / mlp_l[i])
            total_stalls = 0.0
            for tier, load in loads.items():
                load.stall_cycles = tier_stalls[int(tier)]
                total_stalls += load.stall_cycles
            new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
            residual = abs(new_duration - duration) / new_duration
            duration = 0.5 * duration + 0.5 * new_duration

        if self._obs is not None:
            self._obs.gauge("stall/fixed_point_residual", residual)
        # Downstream consumers (CHA/PEBS attribution, migration budgets)
        # read the last iteration's per-row unit costs off the batch.
        batch.unit_stall_cycles[:n] = [
            lat[codes_l[i]] / mlp_l[i] for i in range(n)
        ]
        inv = [0.0] * num_tiers
        for i in range(n):
            inv[codes_l[i]] += misses_l[i] / mlp_l[i]
        for tier, load in loads.items():
            total = batch.tier_misses[int(tier)]
            if total == 0:
                load.mlp = 1.0
                continue
            tier_inv = inv[int(tier)]
            load.mlp = total / tier_inv if tier_inv > 0 else 1.0
        return WindowHardware(
            shares=batch,
            tier_loads=loads,
            compute_cycles=compute_cycles,
            duration_cycles=duration,
        )

    def solve_many(
        self,
        batches: Sequence[ShareBatch],
        compute_cycles: Sequence[float],
        extra_bytes_list: Sequence[Optional[Dict[Tier, float]]],
        extra_cycles_list: Sequence[float],
    ) -> List[WindowHardware]:
        """Solve one window for ``R`` independent runs in one batched pass.

        The multi-run driver (:mod:`repro.sim.runbatch`) steps R machines
        over the *same* recorded trace in lockstep; their per-window
        solves are independent, so the per-share numpy work is fused:
        every run's share columns concatenate into flat buffers with
        tier codes offset by ``r * num_tiers``, and each fixed-point
        iteration runs one take/divide/multiply/bincount over all runs
        at once (bincount buckets ``r*T + t`` receive exactly run r's
        rows in row order, so per-bucket float accumulation matches the
        per-run bincount bit for bit).  The per-(run, tier) latency and
        duration updates stay the scalar expressions of
        :meth:`_solve_batch` verbatim, so every returned
        :class:`WindowHardware` is bit-identical to R serial solves.
        """
        R = len(batches)
        T = self.num_tiers
        loads_list: List[Dict[Tier, TierLoad]] = []
        for r in range(R):
            extra = extra_bytes_list[r] or {}
            loads = {tier_key(t): TierLoad(tier=tier_key(t)) for t in range(T)}
            for tier, load in loads.items():
                load.misses = batches[r].tier_misses[int(tier)]
                demand_bytes = load.misses * CACHE_LINE_SIZE
                load.bytes = demand_bytes * (1.0 + self.prefetch_traffic_factor)
                load.bytes += float(extra.get(tier, 0.0))
            loads_list.append(loads)

        sizes = [b.n for b in batches]
        if sum(sizes) <= _SCALAR_SOLVE_ROWS * 4:
            return self._solve_many_scalar(
                batches, loads_list, compute_cycles, extra_cycles_list
            )
        bounds = [0]
        for s in sizes:
            bounds.append(bounds[-1] + s)
        flat_codes = np.concatenate(
            [np.asarray(b.tier_codes, dtype=np.intp) + r * T for r, b in enumerate(batches)]
        )
        flat_mlp = np.concatenate([b.mlp for b in batches])
        flat_misses = np.concatenate([b.misses_f for b in batches])
        flat_unit = np.empty_like(flat_mlp)
        flat_w = np.empty_like(flat_mlp)
        lat = np.empty(R * T, dtype=np.float64)

        base = [compute_cycles[r] + extra_cycles_list[r] for r in range(R)]
        durations = [max(base[r], 1.0) for r in range(R)]
        for _ in range(_FIXED_POINT_ITERATIONS):
            for r in range(R):
                duration = durations[r]
                for tier, load in loads_list[r].items():
                    spec = self.spec[tier]
                    duration_ns = duration / self.freq_ghz
                    supply = spec.bytes_per_ns() * duration_ns
                    util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                    load.utilisation = util
                    inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
                    load.effective_latency_cycles = (
                        ns_to_cycles(spec.latency_ns, self.freq_ghz) * inflation
                    )
                    lat[r * T + int(tier)] = load.effective_latency_cycles
            np.take(lat, flat_codes, out=flat_unit)
            np.divide(flat_unit, flat_mlp, out=flat_unit)
            np.multiply(flat_misses, flat_unit, out=flat_w)
            tier_stalls = np.bincount(flat_codes, weights=flat_w, minlength=R * T)
            for r in range(R):
                total_stalls = 0.0
                for tier, load in loads_list[r].items():
                    load.stall_cycles = float(tier_stalls[r * T + int(tier)])
                    total_stalls += load.stall_cycles
                new_duration = max(base[r] + total_stalls, 1.0)
                durations[r] = 0.5 * durations[r] + 0.5 * new_duration

        # (No fixed-point residual gauge: the multi-run path only runs
        # with observability disabled.)
        np.divide(flat_misses, flat_mlp, out=flat_w)
        inv = np.bincount(flat_codes, weights=flat_w, minlength=R * T)
        results: List[WindowHardware] = []
        for r in range(R):
            batch = batches[r]
            np.copyto(batch.unit_stall_cycles, flat_unit[bounds[r] : bounds[r + 1]])
            loads = loads_list[r]
            for tier, load in loads.items():
                total = batch.tier_misses[int(tier)]
                if total == 0:
                    load.mlp = 1.0
                    continue
                tier_inv = float(inv[r * T + int(tier)])
                load.mlp = total / tier_inv if tier_inv > 0 else 1.0
            results.append(
                WindowHardware(
                    shares=batch,
                    tier_loads=loads,
                    compute_cycles=compute_cycles[r],
                    duration_cycles=durations[r],
                )
            )
        return results

    def _solve_many_scalar(
        self,
        batches: Sequence[ShareBatch],
        loads_list: List[Dict[Tier, "TierLoad"]],
        compute_cycles: Sequence[float],
        extra_cycles_list: Sequence[float],
    ) -> List[WindowHardware]:
        """Scalar fixed point for :meth:`solve_many` at small total widths.

        Runs are independent, so solving each with the Python-float loop
        of :meth:`_solve_batch_scalar` produces exactly the per-run
        values of the flat batched path (whose ``r*T + t`` buckets only
        ever mix rows of the same run) while skipping the per-window
        flat-buffer concatenations and small-array dispatches.
        """
        R = len(batches)
        T = self.num_tiers
        codes_l = [b.tier_codes[: b.n].tolist() for b in batches]
        mlp_l = [b.mlp[: b.n].tolist() for b in batches]
        misses_l = [b.misses_f[: b.n].tolist() for b in batches]
        lat = [[0.0] * T for _ in range(R)]
        base = [compute_cycles[r] + extra_cycles_list[r] for r in range(R)]
        durations = [max(b, 1.0) for b in base]
        for _ in range(_FIXED_POINT_ITERATIONS):
            for r in range(R):
                duration = durations[r]
                latr = lat[r]
                for tier, load in loads_list[r].items():
                    spec = self.spec[tier]
                    duration_ns = duration / self.freq_ghz
                    supply = spec.bytes_per_ns() * duration_ns
                    util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                    load.utilisation = util
                    inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
                    load.effective_latency_cycles = (
                        ns_to_cycles(spec.latency_ns, self.freq_ghz) * inflation
                    )
                    latr[int(tier)] = load.effective_latency_cycles
                tier_stalls = [0.0] * T
                cl = codes_l[r]
                ml = mlp_l[r]
                mf = misses_l[r]
                for i in range(len(cl)):
                    c = cl[i]
                    tier_stalls[c] += mf[i] * (latr[c] / ml[i])
                total_stalls = 0.0
                for tier, load in loads_list[r].items():
                    load.stall_cycles = tier_stalls[int(tier)]
                    total_stalls += load.stall_cycles
                new_duration = max(base[r] + total_stalls, 1.0)
                durations[r] = 0.5 * durations[r] + 0.5 * new_duration
        results: List[WindowHardware] = []
        for r in range(R):
            batch = batches[r]
            latr = lat[r]
            cl = codes_l[r]
            ml = mlp_l[r]
            mf = misses_l[r]
            n = batch.n
            batch.unit_stall_cycles[:n] = [
                latr[cl[i]] / ml[i] for i in range(n)
            ]
            inv = [0.0] * T
            for i in range(n):
                inv[cl[i]] += mf[i] / ml[i]
            loads = loads_list[r]
            for tier, load in loads.items():
                total = batch.tier_misses[int(tier)]
                if total == 0:
                    load.mlp = 1.0
                    continue
                tier_inv = inv[int(tier)]
                load.mlp = total / tier_inv if tier_inv > 0 else 1.0
            results.append(
                WindowHardware(
                    shares=batch,
                    tier_loads=loads,
                    compute_cycles=compute_cycles[r],
                    duration_cycles=durations[r],
                )
            )
        return results

    def _solve_shares(
        self,
        shares: Sequence[GroupTierShare],
        compute_cycles: float,
        extra_bytes: Optional[Dict[Tier, float]],
        extra_cycles: float,
    ) -> WindowHardware:
        """Legacy ordered-accumulation fixed point over share objects."""
        extra_bytes = extra_bytes or {}
        loads = {tier_key(t): TierLoad(tier=tier_key(t)) for t in range(self.num_tiers)}
        by_tier: Dict[Tier, List[GroupTierShare]] = {
            tier_key(t): [] for t in range(self.num_tiers)
        }
        share_misses = [share.misses for share in shares]
        for share, misses in zip(shares, share_misses):
            loads[share.tier].misses += misses
            by_tier[share.tier].append(share)
        for tier, load in loads.items():
            demand_bytes = load.misses * CACHE_LINE_SIZE
            load.bytes = demand_bytes * (1.0 + self.prefetch_traffic_factor)
            load.bytes += float(extra_bytes.get(tier, 0.0))

        # Initial guess: unloaded latency, duration = compute + extra.
        duration = max(compute_cycles + extra_cycles, 1.0)
        residual = 0.0
        for _ in range(_FIXED_POINT_ITERATIONS):
            for tier, load in loads.items():
                spec = self.spec[tier]
                duration_ns = duration / self.freq_ghz
                supply = spec.bytes_per_ns() * duration_ns
                util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                load.utilisation = util
                inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
                load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, self.freq_ghz) * inflation
            for share in shares:
                lat = loads[share.tier].effective_latency_cycles
                share.unit_stall_cycles = lat / share.mlp
            for load in loads.values():
                load.stall_cycles = 0.0
            for share, misses in zip(shares, share_misses):
                loads[share.tier].stall_cycles += misses * share.unit_stall_cycles
            total_stalls = sum(load.stall_cycles for load in loads.values())
            new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
            residual = abs(new_duration - duration) / new_duration
            # Damped update stabilises the few pathological cases where
            # contention and duration oscillate.
            duration = 0.5 * duration + 0.5 * new_duration

        if self._obs is not None:
            # Residual of the last iteration: how far the damped solve
            # still was from its fixed point (loop-health gauge).
            self._obs.gauge("stall/fixed_point_residual", residual)
        for load in loads.values():
            # Shares were bucketed by tier in the first pass above; the
            # old per-tier rescan of the full share list is gone.
            load.mlp = _harmonic_mlp(by_tier[load.tier])
        return WindowHardware(
            shares=list(shares),
            tier_loads=loads,
            compute_cycles=compute_cycles,
            duration_cycles=duration,
        )


def _harmonic_mlp(shares: Sequence[GroupTierShare]) -> float:
    """Miss-weighted harmonic mean MLP (the MLP the TOR actually sees).

    Harmonic because total occupancy-time is sum(misses * lat / mlp):
    the aggregate behaves like one stream whose MLP is the harmonic
    mean weighted by misses.
    """
    total = sum(s.misses for s in shares)
    if total == 0:
        return 1.0
    inv = sum(s.misses / s.mlp for s in shares)
    return total / inv if inv > 0 else 1.0
