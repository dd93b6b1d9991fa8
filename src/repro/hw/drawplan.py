"""Whole-run RNG draw plans for replayed traffic streams.

Once a traffic stream is recorded (:mod:`repro.workloads.tracestore`),
every hardware consumer's per-window work is knowable ahead of the run:
the CHA and perf counters draw a fixed number of jitter normals per
share/tier, and -- for *static-placement* policies -- the (group, tier)
share split itself never changes after preallocation.  This module
exploits both:

* :class:`NormalDrawStream` buffers a consumer's normal draws in large
  chunks.  numpy's ``Generator.normal(size=k)`` consumes its bit stream
  exactly like ``k`` sequential scalar calls, and any prefix of a
  vector draw equals the same-length smaller draw, so chunked buffering
  is **bit-identical** to the live per-call draws for any chunk size --
  the stream just pays the C-dispatch cost once per chunk instead of
  once per value.  Each stream owns its generator exclusively; values
  drawn past the run's end are simply never observed.
* :func:`build_static_batches` pre-splits the *whole run's* recorded
  CSR columns by (window, group, tier) in one vectorised pass and hands
  every window a pre-sliced :class:`~repro.hw.stall.ShareBatch` view --
  rows in share order (per group: tier 0 then tier 1, ...),
  so solver, PEBS, CHA, and trace consumers see byte-identical inputs.
  Runs whose consumers read only row columns get *misses-only*
  batches built from the memoised :class:`EntryMetaPlan` instead of a
  whole-trace argsort.
* :func:`plan_pebs_batches` / :func:`plan_chmu_batches` precompute each
  window's sampled :class:`~repro.hw.pebs.PebsBatch` from the static
  split, walking the shares in the same order (and, for PEBS, drawing
  from the same generator in the same sequence) as the live path.

Under RNG schema 2 (:mod:`repro.hw.substream`) the sequenced-stream
constraint disappears entirely: sampler and jitter draws are keyed by
(seed, purpose, window) and cover trace-determined entry sets, so
:func:`_attach_keyed` prestages the *whole run's* PEBS/CHA/perf draw
tensors at attach time for **any** policy, dynamic ones included --
only the per-window placement gather and merge stay in the loop (and
for static placements even those fold into a finished-batch plan).

The plans engage automatically when a :class:`Machine` is driven by a
non-looping :class:`~repro.workloads.tracestore.ReplayWorkload`; the
static-split and sampler plans additionally require the policy to
declare :attr:`~repro.sim.policy_api.TieringPolicy.static_placement`.
Set ``REPRO_NO_DRAWPLAN=1`` to force the live per-window paths.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.hw.pebs import PebsBatch, PebsSampler
from repro.hw.stall import ShareBatch

#: Environment switch: any non-empty value disables all draw plans.
ENV_DISABLE = "REPRO_NO_DRAWPLAN"

#: Default chunk size (draws per refill) for buffered normal streams.
DEFAULT_CHUNK = 8192


def plans_enabled() -> bool:
    return not os.environ.get(ENV_DISABLE, "")


class NormalDrawStream:
    """Chunk-buffered ``exp(Normal(0, scale))`` jitter factors.

    Serves the exact value sequence that repeated scalar (or small
    vector) ``exp(rng.normal(0, scale, ...))`` calls on the same
    generator would produce: the generator's bit stream is consumed
    identically, and ``np.exp`` is elementwise, so chunking changes
    neither the draws nor their rounding.
    """

    __slots__ = ("_rng", "scale", "chunk", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, scale: float, chunk: int = DEFAULT_CHUNK):
        if scale <= 0.0:
            raise ValueError("jitter stream needs a positive noise scale")
        self._rng = rng
        self.scale = scale
        self.chunk = max(int(chunk), 1)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` jitter factors (a read-only-by-convention view)."""
        end = self._pos + n
        if end > self._buf.size:
            self._refill(n)
            end = n
        out = self._buf[self._pos : end]
        self._pos = end
        return out

    def _refill(self, need: int) -> None:
        leftover = self._buf[self._pos :]
        fresh = np.exp(
            self._rng.normal(0.0, self.scale, size=max(self.chunk, need - leftover.size))
        )
        self._buf = np.concatenate([leftover, fresh]) if leftover.size else fresh
        self._pos = 0


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
    schema-1 PEBS/CHMU samplers walk those page lists.

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


class PebsPosPlan:
    """Prestaged nonzero-record positions of a keyed PEBS record plan.

    Keyed PEBS draws records for *every* trace entry, but the merge
    only ever looks at entries whose record count is positive -- a
    trace-determined subset, typically a small fraction of the window.
    Prestaging the positions (plus their pages and records) shrinks the
    per-window merge to a gather + compress over that subset.
    """

    __slots__ = ("_ptr", "pos_idx", "pages_pos", "recs_pos", "sorted_unique")

    def __init__(self, ptr, pos_idx, pages_pos, recs_pos, sorted_unique):
        self._ptr = ptr
        #: Window-local entry indices of the positive-record entries.
        self.pos_idx = pos_idx
        self.pages_pos = pages_pos
        self.recs_pos = recs_pos
        self.sorted_unique = sorted_unique

    def window(self, w: int):
        s0 = self._ptr[w]
        s1 = self._ptr[w + 1]
        return (
            self.pos_idx[s0:s1],
            self.pages_pos[s0:s1],
            self.recs_pos[s0:s1],
            bool(self.sorted_unique[w]),
        )


def build_pebs_pos(record_plan, data) -> PebsPosPlan:
    """Index a :class:`~repro.hw.substream.PebsRecordPlan` by record > 0."""
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    pages = np.asarray(c["pages"])
    entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
    num_windows = wgp.size - 1
    ptr = np.zeros(num_windows + 1, dtype=np.int64)
    idx_chunks: List[np.ndarray] = []
    page_chunks: List[np.ndarray] = []
    rec_chunks: List[np.ndarray] = []
    sorted_unique = np.empty(num_windows, dtype=bool)
    for w in range(num_windows):
        recs = record_plan.window_records(w)
        pos = np.flatnonzero(recs)
        pp = pages[entry_ptr[w] : entry_ptr[w + 1]][pos]
        idx_chunks.append(pos)
        page_chunks.append(pp)
        rec_chunks.append(recs[pos])
        sorted_unique[w] = pp.size <= 1 or bool((pp[1:] > pp[:-1]).all())
        ptr[w + 1] = ptr[w] + pos.size
    cat = lambda chunks, dt: (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=dt)
    )
    return PebsPosPlan(
        ptr,
        cat(idx_chunks, np.int64),
        cat(page_chunks, np.int64),
        cat(rec_chunks, np.int64),
        sorted_unique,
    )


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


def plan_pebs_batches(
    sampler: PebsSampler,
    batches: List[Optional[ShareBatch]],
    tiers: Tuple,
) -> WindowSamplePlan:
    """Draw the whole run's PEBS samples up front, in live stream order.

    The two binomials per share are sequenced (the record draw thins
    the load draw's output), so the draws cannot be batched across
    shares -- but with a static placement every share's counts are
    known now, and the live path only ever samples non-empty windows in
    window order.  Replaying that exact call sequence here consumes the
    sampler's generator bit-identically and moves the whole RNG tail
    (and the per-window merge) out of the measured loop.
    """
    return WindowSamplePlan(
        [None if b is None else sampler.sample(b, tiers=tiers) for b in batches]
    )


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


def plan_keyed_pebs_batches(sampler, record_plan, data, placement) -> WindowSamplePlan:
    """Merge prestaged keyed records against a *frozen* placement.

    Static-placement schema-2 runs know every window's placement gather
    now, so the whole sampler -- draw *and* merge -- leaves the timed
    loop.  Each window's merge is the very
    :meth:`~repro.hw.substream.KeyedPebsSampler.merge_window` call the
    live path makes, over the same trace-order entry slices.
    """
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    pages = np.asarray(c["pages"])
    entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
    out: List[Optional[PebsBatch]] = []
    for w in range(wgp.size - 1):
        if wgp[w + 1] == wgp[w]:
            out.append(None)
            continue
        e0, e1 = int(entry_ptr[w]), int(entry_ptr[w + 1])
        out.append(
            sampler.merge_window(
                record_plan.window_records(w), pages[e0:e1], placement
            )
        )
    return WindowSamplePlan(out)


def _attach_keyed(machine, data) -> bool:
    """Prestage schema-2 keyed draw tensors for *any* policy.

    Keyed draws are decision-independent -- per window they cover every
    trace entry (PEBS) or every (group, tier) cell (jitter) regardless
    of placement -- so under replay the whole run's draws are computed
    here, at attach time, outside the timed region.  The live keyed
    fallback draws the same substreams per window, so engaging a plan
    never changes a single value.
    """
    from repro.hw.substream import plan_keyed_records

    wgp = np.asarray(data.columns["window_group_ptr"])
    groups_per_window = np.diff(wgp)
    T = machine.num_tiers
    engaged = False
    if machine._keyed_cha is not None:
        machine._keyed_cha.prestage(2 * T * groups_per_window)
        engaged = True
    if machine._keyed_perf is not None:
        machine._keyed_perf.prestage(
            np.where(groups_per_window > 0, 2 * T, 0)
        )
        engaged = True
    if machine._keyed_pebs is not None:
        machine._pebs_records = plan_keyed_records(machine._keyed_pebs, data)
        engaged = True
    return engaged


def attach(machine) -> bool:
    """Wire whole-run draw plans into ``machine`` when replay drives it.

    Called at the end of ``Machine.__init__`` (placement is settled by
    then).  Jitter streams (schema 1) or keyed draw tensors (schema 2)
    engage for every policy; the static split and sampler plans
    additionally need ``policy.static_placement`` and a fully
    preallocated footprint.  Returns True when anything engaged.
    """
    if not plans_enabled():
        return False
    from repro.workloads.tracestore import ReplayWorkload

    workload = machine.workload
    if not isinstance(workload, ReplayWorkload) or workload.loop:
        return False
    data = workload.trace_data
    engaged = False
    keyed = machine.rng_schema == 2
    if keyed:
        engaged = _attach_keyed(machine, data)
    else:
        if machine.cha.noise > 0.0:
            machine.cha.attach_jitter_stream(
                NormalDrawStream(machine.cha._rng, machine.cha.noise)
            )
            engaged = True
        if machine.perf.noise > 0.0:
            wgp = np.asarray(data.columns["window_group_ptr"])
            nonempty = int(np.count_nonzero(np.diff(wgp)))
            total = 2 * machine.num_tiers * nonempty
            if total > 0:
                machine.perf.attach_jitter_stream(
                    NormalDrawStream(machine.perf._rng, machine.perf.noise, chunk=total)
                )
                engaged = True
    policy = machine.policy
    if getattr(policy, "static_placement", False) and machine.memory.fully_allocated:
        # Only the schema-1 PEBS/CHMU plans walk per-share page lists;
        # every other consumer reads row columns (see Machine).
        meta = entry_meta_for(data, machine.num_tiers) if machine._misses_only_split else None
        batches = build_static_batches(
            data, machine.memory.placement, machine.num_tiers, meta=meta
        )
        machine._split_plan = StaticSplitPlan(batches)
        engaged = True
        if (
            not policy.needs_pebs
            and machine.contender is None
            and not machine.obs.enabled
        ):
            # No PEBS drain, no contender, no per-window observability:
            # every window's solve inputs are final now, so solve the
            # whole run up front (obs-enabled runs keep the live path to
            # preserve per-window accounting gauges).
            machine._solve_plan = plan_window_solves(
                machine.stall_model, batches, data.columns["window_compute"]
            )
        if policy.needs_pebs:
            sampler = machine.pebs
            if keyed and machine._keyed_pebs is not None:
                if not machine._keyed_pebs.report_latency:
                    # Frozen placement: fold the merge in too and drop
                    # the per-window records (the merged plan serves
                    # finished batches).  Latency-reporting samplers
                    # keep the records and merge live -- the unit stall
                    # costs come from each window's solved shares.
                    machine._pebs_plan = plan_keyed_pebs_batches(
                        machine._keyed_pebs,
                        machine._pebs_records,
                        data,
                        machine.memory.placement,
                    )
                    machine._pebs_records = None
            elif isinstance(sampler, PebsSampler) and not sampler.report_latency:
                # TPEBS latency reporting reads each share's *solved*
                # unit stall cost, which is unknown before the run --
                # those samplers keep the live path.
                machine._pebs_plan = plan_pebs_batches(
                    sampler, batches, machine._pebs_tiers()
                )
            else:
                from repro.hw.chmu import ChmuSampler

                if isinstance(sampler, ChmuSampler):
                    machine._pebs_plan = plan_chmu_batches(sampler, batches)
    if machine._split_plan is None:
        # Dynamic placement: the split itself stays in the loop, but its
        # trace-determined inputs (key bases, float counts, sortedness)
        # leave it.
        machine._entry_meta = entry_meta_for(data, machine.num_tiers)
        machine._entry_meta.prestage_split()
        engaged = True
        if (
            machine._keyed_pebs is not None
            and machine._pebs_plan is None
            and machine._pebs_records is not None
            and not machine._keyed_pebs.report_latency
        ):
            # Keyed PEBS under a moving placement: prestage the
            # positive-record subset; the merge becomes a gather over
            # it (latency-reporting samplers keep the full records --
            # their per-entry latency lookup needs the solved shares).
            machine._pebs_pos = build_pebs_pos(machine._pebs_records, data)
            machine._pebs_records = None
    return engaged


__all__ = [
    "ENV_DISABLE",
    "EntryMetaPlan",
    "NormalDrawStream",
    "PebsPosPlan",
    "StaticSplitPlan",
    "WindowSamplePlan",
    "WindowSolvePlan",
    "attach",
    "build_pebs_pos",
    "build_static_batches",
    "entry_meta_for",
    "plan_chmu_batches",
    "plan_keyed_pebs_batches",
    "plan_pebs_batches",
    "plan_window_solves",
    "plans_enabled",
]
