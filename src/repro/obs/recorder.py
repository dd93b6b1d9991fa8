"""Bounded window-trace recording with downsampling.

:class:`TraceRecorder` replaces the old unbounded ``Machine._trace``
list: a ring buffer of per-window trace rows whose memory footprint is
capped regardless of run length.  When the buffer wraps, the *oldest*
windows are dropped (the tail of a run is what adaptivity analyses
inspect) and the drop count is reported so truncation is never silent.
``downsample=N`` keeps one window in every N, stretching the same
capacity over proportionally longer runs.

Storage is **columnar**: scalar fields live in preallocated growable
numpy arrays (one per column, grown geometrically up to the ring
capacity) and only the dict/str fields stay as per-row objects.  The
machine appends plain field values via :meth:`TraceRecorder.append_window`
-- no :class:`~repro.sim.metrics.WindowRecord` allocation per window --
and ``records()`` materialises the dataclass views lazily, so
``repro.obs`` consumers, the experiment cache, and the benches see
exactly the shapes they always did.  Files are written by
:mod:`repro.sim.traceio` (``write_trace_jsonl``/``write_trace_csv``),
which read a recorder's columns directly.

:class:`NullRecorder` is the disabled twin: appends are no-ops, so a
machine without tracing pays one predicate check per window and stores
nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.sim.metrics import (
    WINDOW_FLOAT_COLUMNS,
    WINDOW_INT_COLUMNS,
    WINDOW_OBJECT_COLUMNS,
    WindowRecord,
)

#: Default ring capacity: bounds trace memory even at the simulator's
#: 200k-window budget while keeping every window of typical runs.
DEFAULT_TRACE_CAPACITY = 65_536

#: Initial per-column allocation (grown geometrically up to capacity).
_INITIAL_COLUMN_SIZE = 1_024


class TraceRecorder:
    """Fixed-capacity ring buffer of per-window trace rows (columnar)."""

    #: Whether this recorder actually keeps records (NullRecorder: False).
    keeps_records = True

    def __init__(
        self, capacity: int = DEFAULT_TRACE_CAPACITY, downsample: int = 1
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if downsample <= 0:
            raise ValueError("downsample must be positive")
        self.capacity = capacity
        self.downsample = downsample
        self.dropped = 0
        self.skipped = 0
        self._alloc = 0
        self._int_cols: Dict[str, np.ndarray] = {}
        self._float_cols: Dict[str, np.ndarray] = {}
        self._obj_cols: Dict[str, List[object]] = {}
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    # -- appending -----------------------------------------------------------

    def append(self, record: WindowRecord) -> None:
        """Add one window (subject to downsampling and the ring bound)."""
        self.append_window(
            **{f.name: getattr(record, f.name) for f in dataclasses.fields(WindowRecord)}
        )

    def append_window(
        self,
        window: int,
        duration_cycles: float,
        stall_cycles: float,
        slow_misses: float,
        fast_misses: float,
        promoted: int,
        demoted: int,
        mlp_slow: float,
        mlp_fast: float,
        fast_resident_fraction: float,
        phase: str = "",
        policy_debug: Optional[Dict[str, float]] = None,
        label_stalls: Optional[Dict[str, float]] = None,
        metrics: Optional[Dict[str, float]] = None,
    ) -> None:
        """Add one window from plain field values (no record object)."""
        if self.downsample > 1 and window % self.downsample != 0:
            self.skipped += 1
            return
        if self._count >= self.capacity:
            self.dropped += 1
        i = self._next
        if i >= self._alloc:
            self._grow()
        ic = self._int_cols
        ic["window"][i] = window
        ic["slow_misses"][i] = slow_misses
        ic["fast_misses"][i] = fast_misses
        ic["promoted"][i] = promoted
        ic["demoted"][i] = demoted
        fc = self._float_cols
        fc["duration_cycles"][i] = duration_cycles
        fc["stall_cycles"][i] = stall_cycles
        fc["mlp_slow"][i] = mlp_slow
        fc["mlp_fast"][i] = mlp_fast
        fc["fast_resident_fraction"][i] = fast_resident_fraction
        oc = self._obj_cols
        oc["phase"][i] = phase
        oc["policy_debug"][i] = policy_debug if policy_debug is not None else {}
        oc["label_stalls"][i] = label_stalls if label_stalls is not None else {}
        oc["metrics"][i] = metrics if metrics is not None else {}
        self._next = (self._next + 1) % self.capacity
        self._count += 1

    def _grow(self) -> None:
        """Extend the column arrays geometrically (capped at capacity)."""
        new_alloc = min(
            self.capacity, max(_INITIAL_COLUMN_SIZE, 2 * self._alloc)
        )
        if not self._int_cols:
            self._int_cols = {
                name: np.empty(new_alloc, dtype=np.int64) for name in WINDOW_INT_COLUMNS
            }
            self._float_cols = {
                name: np.empty(new_alloc, dtype=np.float64)
                for name in WINDOW_FLOAT_COLUMNS
            }
            self._obj_cols = {
                name: [None] * new_alloc for name in WINDOW_OBJECT_COLUMNS
            }
        else:
            grow_by = new_alloc - self._alloc
            for name, col in self._int_cols.items():
                self._int_cols[name] = np.concatenate(
                    [col, np.empty(grow_by, dtype=np.int64)]
                )
            for name, col in self._float_cols.items():
                self._float_cols[name] = np.concatenate(
                    [col, np.empty(grow_by, dtype=np.float64)]
                )
            for name in self._obj_cols:
                self._obj_cols[name].extend([None] * grow_by)
        self._alloc = new_alloc

    # -- reading -------------------------------------------------------------

    def _materialise(self, i: int) -> WindowRecord:
        ic, fc, oc = self._int_cols, self._float_cols, self._obj_cols
        return WindowRecord(
            window=int(ic["window"][i]),
            duration_cycles=float(fc["duration_cycles"][i]),
            stall_cycles=float(fc["stall_cycles"][i]),
            slow_misses=int(ic["slow_misses"][i]),
            fast_misses=int(ic["fast_misses"][i]),
            promoted=int(ic["promoted"][i]),
            demoted=int(ic["demoted"][i]),
            mlp_slow=float(fc["mlp_slow"][i]),
            mlp_fast=float(fc["mlp_fast"][i]),
            fast_resident_fraction=float(fc["fast_resident_fraction"][i]),
            phase=oc["phase"][i],
            policy_debug=oc["policy_debug"][i],
            label_stalls=oc["label_stalls"][i],
            metrics=oc["metrics"][i],
        )

    def _indices(self) -> List[int]:
        """Retained row indices, oldest first."""
        kept = len(self)
        if kept < self.capacity:
            return list(range(kept))
        return list(range(self._next, self.capacity)) + list(range(self._next))

    def records(self) -> List[WindowRecord]:
        """Retained records, oldest first (materialised lazily)."""
        return [self._materialise(i) for i in self._indices()]

    def column_lists(self) -> Dict[str, list]:
        """Retained rows as per-column python lists, oldest first.

        The export fast path: one fancy-index + ``tolist()`` per scalar
        column instead of one :class:`WindowRecord` per row, so writing
        a 50k-window trace allocates 14 lists, not 50k dataclasses.
        """
        if not self._int_cols:
            names = WINDOW_INT_COLUMNS + WINDOW_FLOAT_COLUMNS + WINDOW_OBJECT_COLUMNS
            return {name: [] for name in names}
        idx = np.asarray(self._indices(), dtype=np.intp)
        out: Dict[str, list] = {}
        for name, col in self._int_cols.items():
            out[name] = col[idx].tolist()
        for name, col in self._float_cols.items():
            out[name] = col[idx].tolist()
        for name, col in self._obj_cols.items():
            out[name] = [col[i] for i in idx]
        return out


class NullRecorder:
    """No-op recorder used when tracing is disabled."""

    keeps_records = False
    capacity = 0
    downsample = 1
    dropped = 0
    skipped = 0

    def __len__(self) -> int:
        return 0

    def append(self, record: WindowRecord) -> None:
        """Discard the record."""

    def append_window(self, **fields) -> None:  # noqa: ARG002 - interface parity
        """Discard the window."""

    def records(self) -> List[WindowRecord]:
        return []

    def column_lists(self) -> Dict[str, list]:
        names = WINDOW_INT_COLUMNS + WINDOW_FLOAT_COLUMNS + WINDOW_OBJECT_COLUMNS
        return {name: [] for name in names}
