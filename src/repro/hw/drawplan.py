"""Whole-run plans for replayed traffic streams.

Once a traffic stream is recorded (:mod:`repro.workloads.tracestore`),
every window's entries are known before the run.  Nothing here draws a
random number: every stochastic draw is keyed per window
(:mod:`repro.hw.substream`) and made live in the loop.  What the plans
move out of the loop is the placement-independent, RNG-free work:

* :class:`EntryMetaPlan` holds each window's trace-determined split
  inputs (packed ``group * num_tiers`` key bases, float counts), memoised
  on the trace so that every run replaying it shares one.
* :func:`build_static_batches` pre-splits the *whole run's* recorded
  CSR columns by (window, group, tier) for a *static-placement* policy
  and hands every window a pre-sliced :class:`~repro.hw.stall.ShareBatch`
  view -- rows in share order (per group: tier 0 then tier 1, ...).
  Only the CHMU sampler walks per-share page lists; every other run
  gets *misses-only* batches built from the :class:`EntryMetaPlan`
  instead of a whole-trace argsort.
* :func:`plan_chmu_batches` precomputes each window's CHMU hot list from
  the static split (integer accumulation, order-exact), and
  :func:`plan_window_solves` solves a static no-PEBS run's stall fixed
  points in one batched pass.

The plans engage automatically when a :class:`Machine` is driven by a
non-looping :class:`~repro.workloads.tracestore.ReplayWorkload`; the
static-split, CHMU and solve plans additionally require the policy to
declare :attr:`~repro.sim.policy_api.TieringPolicy.static_placement`.
Set ``REPRO_NO_DRAWPLAN=1`` to force the live per-window paths.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import List, Optional

import numpy as np

from repro.hw.pebs import PebsBatch
from repro.hw.stall import ShareBatch

#: Environment switch: any non-empty value disables all draw plans.
ENV_DISABLE = "REPRO_NO_DRAWPLAN"


def plans_enabled() -> bool:
    return not os.environ.get(ENV_DISABLE, "")


def _empty_share_batch(num_tiers: int) -> ShareBatch:
    return ShareBatch(
        n=0,
        group_index=np.empty(0, dtype=np.int64),
        tier_codes=np.empty(0, dtype=np.intp),
        mlp=np.empty(0, dtype=np.float64),
        load_fraction=np.empty(0, dtype=np.float64),
        misses=np.empty(0, dtype=np.int64),
        offsets=np.zeros(1, dtype=np.int64),
        pages_buf=np.empty(0, dtype=np.int64),
        counts_buf=np.empty(0, dtype=np.int64),
        labels=[],
        unit_stall_cycles=np.empty(0, dtype=np.float64),
        num_tiers=num_tiers,
    )


def build_static_batches(
    data, placement: np.ndarray, num_tiers: int, meta: "Optional[EntryMetaPlan]" = None
) -> List[Optional[ShareBatch]]:
    """Pre-split every recorded window by a *frozen* placement.

    Returns one batch per recorded window (``None`` for windows that
    emitted no groups -- the machine never splits those).  Rows come in
    (group, tier) order, exactly as the per-window split emits them.

    Without ``meta`` the batches are *partitioned*: one stable argsort
    of the whole trace's entries by (group, tier) reproduces, per
    (group, tier), exactly the element order that the per-window mask +
    ``np.compress`` split emits, and segment offsets carve per-window
    views straight out of the two sorted whole-run buffers.  Only the
    CHMU sampler walks those page lists.

    With ``meta`` (the trace's :class:`EntryMetaPlan`) the batches are
    *misses-only*, like the dynamic ``split_groups(misses_only=True)``:
    no argsort and no sorted copies, ``pages_of`` fails loudly, and
    every row column is bit-identical to the partitioned form.  Row
    misses come from one count-weighted bincount over the packed
    ``group * num_tiers + tier`` key; a *uniform* placement (every page
    in one tier: the ideal and slow-only reference runs) needs not even
    that -- each non-empty group is one row carrying the memoised
    per-group miss total, so the plan is O(groups).
    """
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    mlp_col = np.asarray(c["group_mlp"])
    lf_col = np.asarray(c["group_load_fraction"])
    lab_col = np.asarray(c["group_label"])
    num_windows = wgp.size - 1
    num_groups = gpp.size - 1
    T = num_tiers

    pages_s = counts_s = row_offsets = None
    if meta is not None and placement.size and placement.min() == placement.max():
        nonempty = np.flatnonzero(np.diff(gpp))
        rows = nonempty * T + int(placement[0])
        row_misses = meta.group_misses[nonempty]
    else:
        pages = np.asarray(c["pages"])
        key = np.repeat(np.arange(num_groups, dtype=np.intp) * T, np.diff(gpp))
        key += placement[pages]
        if meta is not None:
            cell_misses = np.bincount(key, weights=meta.counts_f, minlength=num_groups * T)
            # A present cell sums to >= 1.0 when every count is >= 1;
            # otherwise count-zero entries still make rows (as the
            # partition does), so presence needs the unweighted count.
            present = cell_misses if meta.counts_positive else np.bincount(key)
            rows = np.flatnonzero(present)
            row_misses = cell_misses[rows].astype(np.int64)
        else:
            counts = np.asarray(c["counts"])
            order = np.argsort(key, kind="stable")
            pages_s = np.ascontiguousarray(pages[order])
            counts_s = np.ascontiguousarray(counts[order])
            sizes = np.bincount(key, minlength=num_groups * T)
            rows = np.flatnonzero(sizes)
            row_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(sizes[rows], dtype=np.int64)]
            )
            if rows.size:
                row_misses = np.add.reduceat(counts_s, row_offsets[:-1])
            else:
                row_misses = np.empty(0, dtype=np.int64)
    row_group = rows // T
    row_tier = (rows % T).astype(np.intp)
    # Rows are group-ascending, groups are window-ascending, so each
    # window's rows are one contiguous range.
    row_window_ptr = np.searchsorted(row_group, wgp)
    group_labels = [data.labels[int(code)] for code in lab_col]
    unit_all = np.empty(rows.size, dtype=np.float64)

    batches: List[Optional[ShareBatch]] = []
    for w in range(num_windows):
        if wgp[w + 1] == wgp[w]:
            batches.append(None)
            continue
        r0, r1 = int(row_window_ptr[w]), int(row_window_ptr[w + 1])
        n = r1 - r0
        if n == 0:
            # Groups recorded, but every one of them was empty.
            batches.append(_empty_share_batch(T))
            continue
        if row_offsets is None:
            offsets = pages_buf = counts_buf = None
        else:
            base = int(row_offsets[r0])
            end = int(row_offsets[r1])
            offsets = row_offsets[r0 : r1 + 1] - base
            pages_buf = pages_s[base:end]
            counts_buf = counts_s[base:end]
        g = row_group[r0:r1]
        batches.append(
            ShareBatch(
                n=n,
                group_index=g - int(wgp[w]),
                tier_codes=row_tier[r0:r1],
                mlp=mlp_col[g],
                load_fraction=lf_col[g],
                misses=row_misses[r0:r1],
                offsets=offsets,
                pages_buf=pages_buf,
                counts_buf=counts_buf,
                labels=[group_labels[int(gi)] for gi in g],
                unit_stall_cycles=unit_all[r0:r1],
                num_tiers=T,
            )
        )
    return batches


class EntryMetaPlan:
    """Trace-determined entry metadata for replay, filled on first use.

    Dynamic policies re-split every window (placement moves), but most
    of the split's per-entry inputs never depend on placement at all:
    the packed ``group * num_tiers`` key base, the float view of the
    miss counts (weighted ``bincount`` wants float64 weights), and
    whether any entry carries a zero count.  :meth:`prestage_split`
    computes them at attach time, so the timed loop keeps only the
    placement-dependent work: one gather, one add, one weighted
    bincount.  Static misses-only splits read the float counts or just
    the per-group miss totals; each field costs one pass over the trace
    when first read, and only the fields a run reads are ever built.
    """

    def __init__(self, data, num_tiers: int):
        c = data.columns
        self._wgp = np.asarray(c["window_group_ptr"])
        self._gpp = np.asarray(c["group_page_ptr"])
        self._counts = np.asarray(c["counts"])
        self.num_tiers = num_tiers
        self.entry_ptr = np.asarray(self._gpp[self._wgp], dtype=np.int64)

    @cached_property
    def key_base(self) -> Optional[np.ndarray]:
        """Flat per-entry window-local ``group_index * num_tiers`` (None
        when no recorded window has more than one group)."""
        wgp, gpp = self._wgp, self._gpp
        groups_per_window = np.diff(wgp)
        if not groups_per_window.size or int(groups_per_window.max()) <= 1:
            return None
        # Window-local group index of every entry, flattened: subtract
        # each window's first global group id, then expand per entry.
        gi_local = np.arange(gpp.size - 1, dtype=np.intp) - np.repeat(
            wgp[:-1].astype(np.intp), groups_per_window
        )
        return np.repeat(gi_local * self.num_tiers, np.diff(gpp))

    @cached_property
    def counts_f(self) -> np.ndarray:
        return self._counts.astype(np.float64)

    @cached_property
    def counts_positive(self) -> bool:
        """True when every recorded count is >= 1 (then cell presence
        follows from the weighted bincount alone)."""
        return bool(self._counts.min() >= 1) if self._counts.size else True

    @cached_property
    def group_misses(self) -> np.ndarray:
        """Per-group (global index) int64 miss totals."""
        gpp = self._gpp
        out = np.zeros(gpp.size - 1, dtype=np.int64)
        nonempty = np.flatnonzero(np.diff(gpp))
        if nonempty.size:
            # Empty groups share the next group's start, so each segment
            # runs from one non-empty start to the next (the last one to
            # the end of the trace).
            out[nonempty] = np.add.reduceat(self._counts, gpp[nonempty], dtype=np.int64)
        return out

    def prestage_split(self) -> None:
        """Fill the dynamic split's inputs now rather than in window 0."""
        _ = (self.key_base, self.counts_f, self.counts_positive)

    def window(self, w: int):
        """``(key_base_slice|None, counts_f_slice)`` for window ``w``."""
        e0 = self.entry_ptr[w]
        e1 = self.entry_ptr[w + 1]
        kb = self.key_base[e0:e1] if self.key_base is not None else None
        return kb, self.counts_f[e0:e1]


def entry_meta_for(data, num_tiers: int) -> EntryMetaPlan:
    """The trace's :class:`EntryMetaPlan`, memoised on the trace data.

    The plan depends only on (trace, ``num_tiers``), so every run that
    replays the trace -- lockstep multi-run members, and the static and
    dynamic runs of one sweep -- shares one.
    """
    cached = getattr(data, "_entry_meta_cache", None)
    if cached is None or cached[0] != num_tiers:
        cached = (num_tiers, EntryMetaPlan(data, num_tiers))
        try:
            data._entry_meta_cache = cached
        except AttributeError:  # pragma: no cover - slotted data
            pass
    return cached[1]


class StaticSplitPlan:
    """Per-window pre-sliced share batches for a frozen placement."""

    __slots__ = ("_batches",)

    def __init__(self, batches: List[Optional[ShareBatch]]):
        self._batches = batches

    def window_batch(self, window: int) -> ShareBatch:
        batch = self._batches[window]
        if batch is None:  # pragma: no cover - machine never splits empty windows
            raise LookupError(f"window {window} recorded no groups")
        return batch

    @property
    def batches(self) -> List[Optional[ShareBatch]]:
        return self._batches


class WindowSamplePlan:
    """Precomputed per-window :class:`PebsBatch` stream."""

    __slots__ = ("_batches",)

    def __init__(self, batches: List[Optional[PebsBatch]]):
        self._batches = batches

    def batch_for(self, window: int) -> PebsBatch:
        batch = self._batches[window]
        if batch is None:  # pragma: no cover - machine never samples empty windows
            raise LookupError(f"window {window} recorded no groups")
        return batch


class WindowSolvePlan:
    """Pre-solved :class:`~repro.hw.stall.WindowHardware` per window."""

    __slots__ = ("_outcomes",)

    def __init__(self, outcomes: List):
        self._outcomes = outcomes

    def outcome_for(self, window: int):
        outcome = self._outcomes[window]
        if outcome is None:  # pragma: no cover - machine never solves empty windows
            raise LookupError(f"window {window} recorded no groups")
        return outcome


def plan_window_solves(model, batches: List[Optional[ShareBatch]], compute_cycles) -> WindowSolvePlan:
    """Solve the whole run's stall fixed points in one batched pass.

    With a static placement, no PEBS overhead, and no MLC contender,
    every window's solve inputs are already final at attach time: the
    pre-split :class:`ShareBatch`, the recorded compute cycles, and
    zero carried-over bytes/cycles (migration copies and sampling drains
    are the only sources of either, and a static no-PEBS run produces
    neither).  The windows are therefore independent fixed points, and
    ``solve_many`` -- whose per-element bit-identity to serial solves
    the multi-run tests pin -- computes them all in one fused pass.
    """
    idx = [w for w, b in enumerate(batches) if b is not None]
    solved = model.solve_many(
        [batches[w] for w in idx],
        [float(compute_cycles[w]) for w in idx],
        [None] * len(idx),
        [0.0] * len(idx),
    )
    outcomes: List = [None] * len(batches)
    for w, outcome in zip(idx, solved):
        outcomes[w] = outcome
    return WindowSolvePlan(outcomes)


def plan_chmu_batches(sampler, batches: List[Optional[ShareBatch]]) -> WindowSamplePlan:
    """Precompute every CHMU epoch drain from the static split.

    CHMU sampling is RNG-free integer accumulation, so epochs can be
    aggregated with one sort + ``reduceat`` over the epoch's slow-tier
    entries instead of per-window ``np.add.at`` into a footprint-sized
    counter array; integer sums are order-exact, and the aggregation
    and drain helpers are the very code the live sampler runs.
    """
    from repro.hw.chmu import aggregate_epoch, drain_hotlist

    code = int(sampler.tier)
    out: List[Optional[PebsBatch]] = []
    epoch_pages: List[np.ndarray] = []
    epoch_counts: List[np.ndarray] = []
    in_epoch = 0
    for batch in batches:
        if batch is None:
            out.append(None)
            continue
        for i in range(batch.n):
            if int(batch.tier_codes[i]) == code and batch.offsets[i + 1] > batch.offsets[i]:
                epoch_pages.append(batch.pages_of(i))
                epoch_counts.append(batch.counts_of(i))
        in_epoch += 1
        if in_epoch < sampler.epoch_windows:
            out.append(PebsBatch.empty(rate=1))
            continue
        in_epoch = 0
        touched, sums = aggregate_epoch(epoch_pages, epoch_counts)
        epoch_pages, epoch_counts = [], []
        out.append(
            drain_hotlist(touched, sums, sampler.hotlist_size, sampler.readout_cycles)
        )
    return WindowSamplePlan(out)


def attach(machine) -> bool:
    """Wire whole-run plans into ``machine`` when replay drives it.

    Called at the end of ``Machine.__init__`` (placement is settled by
    then).  A static placement over a fully preallocated footprint gets
    the static split, plus the CHMU or solve plan where they apply;
    every other replayed run gets the trace's :class:`EntryMetaPlan`.
    Returns True when anything engaged.
    """
    if not plans_enabled():
        return False
    from repro.workloads.tracestore import ReplayWorkload

    workload = machine.workload
    if not isinstance(workload, ReplayWorkload) or workload.loop:
        return False
    data = workload.trace_data
    policy = machine.policy
    if not (policy.static_placement and machine.memory.fully_allocated):
        # Dynamic placement: the split itself stays in the loop, but its
        # trace-determined inputs (key bases, float counts) leave it.
        machine._entry_meta = entry_meta_for(data, machine.num_tiers)
        machine._entry_meta.prestage_split()
        return True
    meta = entry_meta_for(data, machine.num_tiers) if machine._misses_only_split else None
    batches = build_static_batches(
        data, machine.memory.placement, machine.num_tiers, meta=meta
    )
    machine._split_plan = StaticSplitPlan(batches)
    if policy.needs_pebs:
        if machine._chmu:
            machine._pebs_plan = plan_chmu_batches(machine.pebs, batches)
    elif machine.contender is None and not machine.obs.enabled:
        # No PEBS drain, no contender, no per-window observability:
        # every window's solve inputs are final now, so solve the whole
        # run up front (obs-enabled runs keep the live path to preserve
        # per-window accounting gauges).
        machine._solve_plan = plan_window_solves(
            machine.stall_model, batches, data.columns["window_compute"]
        )
    return True


__all__ = [
    "ENV_DISABLE",
    "EntryMetaPlan",
    "StaticSplitPlan",
    "WindowSamplePlan",
    "WindowSolvePlan",
    "attach",
    "build_static_batches",
    "entry_meta_for",
    "plan_chmu_batches",
    "plan_window_solves",
    "plans_enabled",
]
