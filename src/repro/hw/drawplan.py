"""Window sources, and the memo every replay of one stream shares.

Once a traffic stream is recorded (:mod:`repro.workloads.tracestore`),
every window's entries are known before the run.  What moves out of
the loop is placement-independent work, filled on first use:

* :class:`StreamMemo` is the one memo of a replayed stream, shared by
  every run in the process that replays it.  It holds the stream's
  :class:`EntryMetaPlan` and each window's keyed draws (PEBS records
  and CHA/perf jitter), which depend on (seed, window, the window's
  entries) and never on placement or policy.  The samplers look a
  window up here before they draw (:mod:`repro.hw.substream`); nothing
  here draws a random number, and no draw is made before the window
  that first asks for it.
* :class:`EntryMetaPlan` holds each window's trace-determined split
  inputs (packed ``group * num_tiers`` key bases, float counts).
* :func:`build_static_batches` splits the *whole run's* recorded CSR
  columns by (window, group, tier) for a *frozen* placement and hands
  every window a pre-sliced :class:`~repro.hw.stall.ShareBatch` view --
  rows in share order (per group: tier 0 then tier 1, ...).

:func:`attach` gives each :class:`~repro.sim.machine.Machine` one
window source for its whole run, chosen from two facts (is the run
replayed? is its placement static?):

* :class:`StaticSource` -- a static-placement policy driven by a
  :class:`~repro.workloads.tracestore.ReplayWorkload`: the pre-split
  batches;
* :class:`DynamicSource` -- every other run: the live per-window split,
  fed the trace's :class:`EntryMetaPlan` when the run is replayed and
  unhinted on live traffic.

A source answers one question per window: its shares (``shares``).
Every window is solved live, from whichever source.  A dynamic source
also gives the counts the page-activity touch reads
(``touch_counts``); static runs skip that touch.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.hw.stall import ShareBatch


def _empty_share_batch(num_tiers: int) -> ShareBatch:
    return ShareBatch(
        n=0,
        group_index=np.empty(0, dtype=np.int64),
        tier_codes=np.empty(0, dtype=np.intp),
        mlp=np.empty(0, dtype=np.float64),
        load_fraction=np.empty(0, dtype=np.float64),
        misses=np.empty(0, dtype=np.int64),
        labels=[],
        unit_stall_cycles=np.empty(0, dtype=np.float64),
        num_tiers=num_tiers,
    )


def build_static_batches(
    data, placement: np.ndarray, num_tiers: int
) -> List[Optional[ShareBatch]]:
    """Pre-split every recorded window by a *frozen* placement.

    ``placement`` must place every page the trace touches (the machine
    places the whole footprint before window 0).  Returns one batch per
    recorded window (``None`` for windows that emitted no groups -- the
    machine never splits those).  Rows come in (group, tier) order,
    exactly as the per-window ``split_groups`` emits them, and every
    row column is bit-identical to it.

    Row misses come from one count-weighted bincount over the packed
    ``group * num_tiers + tier`` key of the whole trace; a *uniform*
    placement (every page in one tier: the ideal and slow-only
    reference runs) needs not even that -- each non-empty group is one
    row carrying the memoised per-group miss total, so the plan is
    O(groups).  Both read the trace's :class:`EntryMetaPlan`.
    """
    meta = entry_meta_for(data, num_tiers)
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    mlp_col = np.asarray(c["group_mlp"])
    lf_col = np.asarray(c["group_load_fraction"])
    lab_col = np.asarray(c["group_label"])
    num_windows = wgp.size - 1
    num_groups = gpp.size - 1
    T = num_tiers

    if placement.size and placement.min() == placement.max():
        nonempty = np.flatnonzero(np.diff(gpp))
        rows = nonempty * T + int(placement[0])
        row_misses = meta.group_misses[nonempty]
    else:
        pages = np.asarray(c["pages"])
        key = np.repeat(np.arange(num_groups, dtype=np.intp) * T, np.diff(gpp))
        key += placement[pages]
        cell_misses = np.bincount(key, weights=meta.counts_f, minlength=num_groups * T)
        # A present cell sums to >= 1.0 when every count is >= 1;
        # otherwise count-zero entries still make rows (as the per-window
        # split does), so presence needs the unweighted count.
        present = cell_misses if meta.counts_positive else np.bincount(key)
        rows = np.flatnonzero(present)
        row_misses = cell_misses[rows].astype(np.int64)
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
        g = row_group[r0:r1]
        batches.append(
            ShareBatch(
                n=n,
                group_index=g - int(wgp[w]),
                tier_codes=row_tier[r0:r1],
                mlp=mlp_col[g],
                load_fraction=lf_col[g],
                misses=row_misses[r0:r1],
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
    bincount.  Static splits read the float counts or just the
    per-group miss totals; each field costs one pass over the trace
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

    def nbytes(self) -> int:
        """Bytes of the arrays the plan owns: the fields built so far."""
        built = (self.__dict__.get(name) for name in ("key_base", "counts_f", "group_misses"))
        return self.entry_ptr.nbytes + sum(a.nbytes for a in built if a is not None)


#: The most a :class:`StreamMemo` stores in keyed draws, as a fraction
#: of its stream's column bytes.  At the default PEBS rate a seed's
#: draws take a few percent of the stream; at rate 1 (every miss a
#: record) they take about its whole size, so past this bound draws are
#: computed and not stored.
DRAW_MEMO_FRACTION = 0.25


class StreamMemo:
    """What every run replaying one stream shares, filled on first use.

    One memo belongs to one :class:`~repro.workloads.tracestore.TraceData`
    and lives and dies with it.  It holds the stream's
    :class:`EntryMetaPlan` (for one tier count at a time) and the
    stream's keyed draws: a draw is a pure function of its key and the
    stream's window, so a run that asks for a key another run already
    drew gets the stored value instead of drawing it again.  Stored
    arrays are read-only, so a consumer that wrote into one would fail
    rather than change another run's draws.  Draws are kept while they
    fit in ``DRAW_MEMO_FRACTION`` of the stream's column bytes; past
    that they are computed and not stored.  Hits depend on what ran
    before in the process, so nothing about them reaches a result.
    """

    __slots__ = ("plan", "draw_bytes", "_stream_bytes", "_draws", "__weakref__")

    def __init__(self, stream_bytes: int):
        #: The stream's :class:`EntryMetaPlan` (see :func:`entry_meta_for`).
        self.plan: Optional[EntryMetaPlan] = None
        #: Bytes of the stored draws' arrays.
        self.draw_bytes = 0
        self._stream_bytes = stream_bytes
        self._draws: Dict[Hashable, object] = {}

    def nbytes(self) -> int:
        """Bytes the memo holds: its plan's arrays and its draws'."""
        plan = self.plan.nbytes() if self.plan is not None else 0
        return plan + self.draw_bytes

    def recall(self, key: Hashable, draw, *args):
        """``draw(*args)``, stored under ``key`` the first time it is made.

        ``draw`` returns an array or a tuple of arrays, and ``key`` must
        name everything it reads besides the stream's window columns.
        """
        value = self._draws.get(key)
        if value is not None:
            return value
        value = draw(*args)
        arrays = value if isinstance(value, tuple) else (value,)
        size = sum(a.nbytes for a in arrays)
        if self.draw_bytes + size <= DRAW_MEMO_FRACTION * self._stream_bytes:
            for a in arrays:
                a.flags.writeable = False
            self._draws[key] = value
            self.draw_bytes += size
        return value


def entry_meta_for(data, num_tiers: int) -> EntryMetaPlan:
    """The trace's :class:`EntryMetaPlan`, held by its :class:`StreamMemo`.

    The plan depends only on (trace, ``num_tiers``), so every run that
    replays the trace -- lockstep multi-run members, and the static and
    dynamic runs of one sweep -- shares one.  The memo keeps the plan
    of the last tier count asked for.
    """
    memo = data.memo
    if memo.plan is None or memo.plan.num_tiers != num_tiers:
        memo.plan = EntryMetaPlan(data, num_tiers)
    return memo.plan


class StaticSource:
    """A frozen placement under replay: every window split at attach.

    ``batches`` holds one pre-split :class:`ShareBatch` per recorded
    window.
    """

    __slots__ = ("batches",)

    def __init__(self, batches: List[Optional[ShareBatch]]):
        self.batches = batches

    def shares(self, window: int, traffic) -> ShareBatch:  # noqa: ARG002
        return self.batches[window]


class DynamicSource:
    """The live per-window split, hinted by the trace when replayed.

    With ``meta`` (the trace's :class:`EntryMetaPlan`) the split reads
    prestaged key bases and float counts, and the touch reads the float
    counts; without it (live traffic) the split runs unhinted.  A
    source is truthy exactly when it carries a plan.
    """

    __slots__ = ("model", "memory", "meta")

    def __init__(self, model, memory, meta: Optional[EntryMetaPlan] = None):
        self.model = model
        self.memory = memory
        self.meta = meta

    def __bool__(self) -> bool:
        return self.meta is not None

    def shares(self, window: int, traffic) -> ShareBatch:
        placement = self.memory.placement
        meta = self.meta
        if meta is None:
            return self.model.split_groups(traffic, placement)
        key_base, counts_f = meta.window(window)
        return self.model.split_groups(
            traffic,
            placement,
            key_base=key_base,
            counts_f=counts_f,
            counts_positive=meta.counts_positive,
        )

    def touch_counts(self, window: int, counts: np.ndarray) -> np.ndarray:
        """The prestaged float counts when replay provides them (saving
        the per-window int -> float conversion), else ``counts``."""
        if self.meta is None:
            return counts
        return self.meta.window(window)[1]


def attach(machine):
    """The run's window source, chosen once per :class:`Machine`.

    Called at the end of ``Machine.__init__`` (placement is settled by
    then).  A static placement under replay gets a :class:`StaticSource`;
    every other replayed run gets a :class:`DynamicSource` hinted by
    the trace's :class:`EntryMetaPlan`, and live traffic an unhinted
    one.  The source is truthy exactly when a plan engaged, i.e. for
    every replayed run.
    """
    from repro.workloads.tracestore import ReplayWorkload

    model, memory = machine.stall_model, machine.memory
    workload = machine.workload
    if not isinstance(workload, ReplayWorkload):
        return DynamicSource(model, memory)
    data = workload.trace_data
    if machine.policy.static_placement:
        return StaticSource(build_static_batches(data, memory.placement, machine.num_tiers))
    # Dynamic placement: the split itself stays in the loop, but its
    # trace-determined inputs (key bases, float counts) leave it.
    meta = entry_meta_for(data, machine.num_tiers)
    meta.prestage_split()
    return DynamicSource(model, memory, meta)


__all__ = [
    "DRAW_MEMO_FRACTION",
    "DynamicSource",
    "EntryMetaPlan",
    "StaticSource",
    "StreamMemo",
    "attach",
    "build_static_batches",
    "entry_meta_for",
]
