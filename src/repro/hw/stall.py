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

Share attributes live in per-window columns (:class:`ShareBatch`)
filled by one split (:meth:`StallModel.split_groups`: a bincount of the
window's misses over the packed (group, tier) key, so a batch carries
per-share totals, never page lists), and one private Python-float
kernel (:meth:`StallModel._fixed_point`) runs the damped fixed point
for R independent windows: ``solve`` is the R = 1 case, ``solve_many``
the lockstep case.  At the handful of rows a window carries, plain
IEEE doubles beat small-array numpy dispatches, and per-tier sums
accumulate in row order, so results do not depend on how windows are
batched.

Note the deliberate architecture: policies never see this module's
outputs directly.  They observe only the counters derived from it
(:mod:`repro.hw.cha`, :mod:`repro.hw.perf`) plus PEBS samples, so PACT's
Equation-1 *estimator* is exercised as a genuinely separate code path
that the tests validate against this ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.units import CACHE_LINE_SIZE, CPU_FREQ_GHZ, TierSpec, ns_to_cycles
from repro.hw.access import WindowTraffic

#: Demand-miss traffic is accompanied by prefetch traffic; this factor
#: scales miss bytes to total bytes on the memory link.
DEFAULT_PREFETCH_TRAFFIC_FACTOR = 0.5

#: Utilisation is capped below 1.0 so the queueing term stays finite
#: even when contender traffic nominally oversubscribes the link.
MAX_UTILISATION = 0.96

#: Gain on the M/M/1 rho/(1-rho) latency inflation term.
QUEUE_GAIN = 0.6

_FIXED_POINT_ITERATIONS = 4


class ShareBatch:
    """Columnar (structure-of-arrays) view of one window's shares.

    A share is one access group's traffic that landed in one tier.  Rows
    come in group traffic order, and within a group in tier order
    (empty cells skipped), so every consumer that walks rows front to
    back sees one fixed iteration order -- and therefore one float
    summation order.  ``tier_codes`` names each row's tier by its code,
    the index of every per-tier list.  A batch carries per-row totals
    only: consumers that need the window's pages (the PEBS merge, the
    CHMU sampler) read the trace entries and their tiers directly.

    The column arrays of a batch from ``split_groups`` are scratch owned
    by the :class:`StallModel` that built it: such a batch is only valid
    until the model's next ``split_groups`` call.
    """

    __slots__ = (
        "n",
        "num_tiers",
        "group_index",
        "tier_codes",
        "mlp",
        "load_fraction",
        "misses",
        "misses_f",
        "labels",
        "unit_stall_cycles",
        "tier_misses",
    )

    def __init__(
        self,
        n: int,
        group_index: np.ndarray,
        tier_codes: np.ndarray,
        mlp: np.ndarray,
        load_fraction: np.ndarray,
        misses: np.ndarray,
        labels: List[str],
        unit_stall_cycles: np.ndarray,
        num_tiers: int = 2,
        misses_f: Optional[np.ndarray] = None,
        tier_misses: Optional[tuple] = None,
    ):
        self.n = n
        self.num_tiers = num_tiers
        self.group_index = group_index
        self.tier_codes = tier_codes
        self.mlp = mlp
        self.load_fraction = load_fraction
        #: Per-row total miss count (precomputed once per window).
        self.misses = misses
        self.misses_f = misses.astype(np.float64) if misses_f is None else misses_f
        self.labels = labels
        #: Filled by the solver: per-row stall cycles per miss.
        self.unit_stall_cycles = unit_stall_cycles
        #: Per-tier miss totals, indexed by tier code.
        if tier_misses is None:
            tier_misses = tuple(
                int(misses[tier_codes == code].sum()) for code in range(num_tiers)
            )
        self.tier_misses = tier_misses


@dataclass
class TierLoad:
    """Aggregate per-tier outcome of one window."""

    #: Tier code (0 = fastest).
    tier: int
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

    shares: ShareBatch
    #: One load per tier, indexed by tier code.
    tier_loads: List[TierLoad]
    compute_cycles: float
    duration_cycles: float

    @property
    def total_stall_cycles(self) -> float:
        return sum(load.stall_cycles for load in self.tier_loads)


class StallModel:
    """Solves one window's stalls, latency inflation, and duration."""

    def __init__(
        self,
        specs: Sequence[TierSpec],
        freq_ghz: float = CPU_FREQ_GHZ,
        prefetch_traffic_factor: float = DEFAULT_PREFETCH_TRAFFIC_FACTOR,
        obs=None,
    ):
        #: Per-tier specs, fastest first, indexed by tier code.
        self.spec: List[TierSpec] = list(specs)
        self.num_tiers = len(self.spec)
        self.freq_ghz = freq_ghz
        self.prefetch_traffic_factor = prefetch_traffic_factor
        #: Optional :class:`repro.obs.Observability` sink for the
        #: fixed-point residual gauge (None = no publishing).
        self._obs = obs
        # -- reusable split/solve scratch (grown on demand, never shrunk) --
        self._key_scratch = np.empty(0, dtype=np.intp)
        self._row_capacity = 0
        self._row_cols: Dict[str, np.ndarray] = {}

    # -- share splitting -----------------------------------------------------

    def split_groups(
        self,
        traffic: WindowTraffic,
        placement: np.ndarray,
        key_base: Optional[np.ndarray] = None,
        counts_f: Optional[np.ndarray] = None,
        counts_positive: bool = False,
    ) -> ShareBatch:
        """Split each group's misses by the tier its pages sit in.

        One ``placement`` gather over the window's entries, then
        bincounts over the packed ``group * num_tiers + tier`` key: one
        unweighted for cell presence (count-zero entries still make a
        share), one count-weighted for per-cell misses.  Rows emerge in
        share order (per group: tier 0 first, empty cells skipped).
        Every page is placed before window 0, so every entry has a
        tier.  Weighted bincount accumulates float64, but the weights
        are integer miss counts well below 2**53, so the cast back to
        int64 is exact.  The returned batch aliases model scratch and is
        valid until the next call.

        The keyword hints let a replayed run hand in prestaged
        trace-determined inputs (:class:`repro.hw.drawplan.EntryMetaPlan`):
        ``key_base`` is the per-entry ``group * num_tiers`` term of the
        packed key, ``counts_f`` the float64 view of the counts
        (weighted bincount accumulates float64 either way), and
        ``counts_positive`` asserts every count is >= 1 (cell presence
        then follows from the weighted bincount, skipping the
        unweighted one).  Each hint removes a per-entry pass without
        changing a single output bit.
        """
        pages = traffic.pages
        n_groups = traffic.num_groups
        total = pages.size
        num_tiers = self.num_tiers
        max_rows = num_tiers * n_groups
        if self._row_capacity < max_rows or not self._row_cols:
            self._row_capacity = max(max_rows, 2 * self._row_capacity, 8)
            cap = self._row_capacity
            self._row_cols = {
                "group_index": np.empty(cap, dtype=np.int64),
                "tier_codes": np.empty(cap, dtype=np.intp),
                "mlp": np.empty(cap, dtype=np.float64),
                "load_fraction": np.empty(cap, dtype=np.float64),
                "unit": np.empty(cap, dtype=np.float64),
            }
        cols = self._row_cols
        tiers_all = placement[pages]
        weights = traffic.counts if counts_f is None else counts_f
        if n_groups <= 1:
            key = tiers_all
        elif key_base is not None:
            if self._key_scratch.size < total:
                self._key_scratch = np.empty(total, dtype=np.intp)
            key = self._key_scratch[:total]
            np.add(key_base, tiers_all, out=key, casting="unsafe")
        else:
            key = np.repeat(
                np.arange(0, max_rows, num_tiers, dtype=np.intp), np.diff(traffic.group_ptr)
            )
            np.add(key, tiers_all, out=key, casting="unsafe")
        if key.size:
            cell_misses = np.bincount(key, weights=weights, minlength=max_rows)
        else:
            # numpy answers an empty weighted bincount with int64.
            cell_misses = np.zeros(max_rows)
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
        row_gi = row_keys // num_tiers
        cols["group_index"][:row] = row_gi
        cols["tier_codes"][:row] = row_keys - row_gi * num_tiers
        cols["mlp"][:row] = traffic.mlp[row_gi]
        cols["load_fraction"][:row] = traffic.load_fraction[row_gi]
        labels = traffic.labels
        return ShareBatch(
            n=row,
            group_index=cols["group_index"][:row],
            tier_codes=cols["tier_codes"][:row],
            mlp=cols["mlp"][:row],
            load_fraction=cols["load_fraction"][:row],
            misses=misses,
            labels=[labels[gi] for gi in row_gi.tolist()],
            unit_stall_cycles=cols["unit"][:row],
            num_tiers=num_tiers,
            misses_f=misses_f,
            tier_misses=tier_misses,
        )

    # -- the fixed point -----------------------------------------------------

    def solve(
        self,
        shares: ShareBatch,
        compute_cycles: float,
        extra_bytes: Optional[Sequence[float]] = None,
        extra_cycles: float = 0.0,
    ) -> WindowHardware:
        """Fixed-point solve of stalls, contention, and window duration.

        ``extra_bytes`` (one entry per tier, None for none) injects link
        traffic that produces no CPU stalls for the observed application
        (MLC contenders, migration copies).
        ``extra_cycles`` extends the duration without stalls (sampling /
        migration overheads charged to the window).
        """
        [outcome], [residual] = self._fixed_point(
            [shares], [compute_cycles], [extra_bytes], [extra_cycles]
        )
        if self._obs is not None:
            # Residual of the last iteration: how far the damped solve
            # still was from its fixed point (loop-health gauge).
            self._obs.gauge("stall/fixed_point_residual", residual)
        return outcome

    def solve_many(
        self,
        batches: Sequence[ShareBatch],
        compute_cycles: Sequence[float],
        extra_bytes_list: Sequence[Optional[Sequence[float]]],
        extra_cycles_list: Sequence[float],
    ) -> List[WindowHardware]:
        """Solve ``R`` independent windows in one call.

        The multi-run driver (:mod:`repro.sim.runbatch`), its one
        caller, steps R machines over one recorded trace in lockstep.
        Each returned :class:`WindowHardware` is bit-identical to a
        ``solve`` call on the same inputs.  No residual gauge is
        published: lockstep runs with observability off.
        """
        return self._fixed_point(
            batches, compute_cycles, extra_bytes_list, extra_cycles_list
        )[0]

    def _fixed_point(
        self,
        batches: Sequence[ShareBatch],
        compute_cycles: Sequence[float],
        extra_bytes_list: Sequence[Optional[Sequence[float]]],
        extra_cycles_list: Sequence[float],
    ) -> "tuple[List[WindowHardware], List[float]]":
        """The damped fixed point of R independent windows, as Python floats.

        Per window: utilisation = bytes / (duration * bandwidth) inflates
        each tier's latency by an M/M/1-style queueing term, per-row unit
        costs are ``latency / mlp``, and the stalls they imply set the
        next duration guess; a damped update stabilises the few
        pathological cases where contention and duration oscillate.
        Per-tier sums accumulate in row order.  The per-row unit costs of
        the last iteration are written back to each batch for the
        downstream consumers (CHA/PEBS attribution, migration budgets).

        Returns the outcomes and each window's last-iteration residual.
        """
        T = self.num_tiers
        freq = self.freq_ghz
        no_extra = [0.0] * T
        bandwidth = [spec.bytes_per_ns() for spec in self.spec]
        unloaded = [ns_to_cycles(spec.latency_ns, freq) for spec in self.spec]
        traffic_factor = 1.0 + self.prefetch_traffic_factor
        outcomes: List[WindowHardware] = []
        residuals: List[float] = []
        for r, batch in enumerate(batches):
            extra_bytes = extra_bytes_list[r] or no_extra
            loads = [TierLoad(tier=t, misses=batch.tier_misses[t]) for t in range(T)]
            for t, load in enumerate(loads):
                load.bytes = load.misses * CACHE_LINE_SIZE * traffic_factor
                load.bytes += float(extra_bytes[t])
            n = batch.n
            codes = batch.tier_codes[:n].tolist()
            mlp = batch.mlp[:n].tolist()
            misses = batch.misses_f[:n].tolist()
            base = compute_cycles[r] + extra_cycles_list[r]
            duration = max(base, 1.0)
            residual = 0.0
            lat = [0.0] * T
            for _ in range(_FIXED_POINT_ITERATIONS):
                duration_ns = duration / freq
                for t, load in enumerate(loads):
                    supply = bandwidth[t] * duration_ns
                    util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
                    load.utilisation = util
                    load.effective_latency_cycles = unloaded[t] * (
                        1.0 + QUEUE_GAIN * util / (1.0 - util)
                    )
                    lat[t] = load.effective_latency_cycles
                stalls = [0.0] * T
                for c, m, p in zip(codes, misses, mlp):
                    stalls[c] += m * (lat[c] / p)
                total_stalls = 0.0
                for t, load in enumerate(loads):
                    load.stall_cycles = stalls[t]
                    total_stalls += stalls[t]
                new_duration = max(base + total_stalls, 1.0)
                residual = abs(new_duration - duration) / new_duration
                duration = 0.5 * duration + 0.5 * new_duration
            batch.unit_stall_cycles[:n] = [lat[c] / p for c, p in zip(codes, mlp)]
            # Miss-weighted harmonic-mean MLP per tier: total occupancy
            # time is sum(misses * lat / mlp), so the aggregate behaves
            # like one stream whose MLP is that harmonic mean.
            inv = [0.0] * T
            for c, m, p in zip(codes, misses, mlp):
                inv[c] += m / p
            for t, load in enumerate(loads):
                if load.misses == 0:
                    load.mlp = 1.0
                else:
                    load.mlp = load.misses / inv[t] if inv[t] > 0 else 1.0
            outcomes.append(
                WindowHardware(
                    shares=batch,
                    tier_loads=loads,
                    compute_cycles=compute_cycles[r],
                    duration_cycles=duration,
                )
            )
            residuals.append(residual)
        return outcomes, residuals
