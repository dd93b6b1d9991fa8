"""Bounded window-trace recording with downsampling.

:class:`TraceRecorder` is a ring of :class:`~repro.sim.metrics.WindowRecord`
rows whose length is capped regardless of run length.  When the ring
wraps, the *oldest* windows are dropped (the tail of a run is what
adaptivity analyses inspect) and the drop count is kept in ``dropped``
so truncation is never silent (``repro trace -o`` reports it).
``downsample=N`` keeps one window in every N, stretching the same
capacity over proportionally longer runs.

A traced :class:`~repro.sim.metrics.RunResult` carries ``records()`` as
its ``trace``; :mod:`repro.sim.traceio` writes that result as JSONL/CSV.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.metrics import WindowRecord

#: Default ring capacity: bounds trace memory even at the simulator's
#: 200k-window budget while keeping every window of typical runs.
DEFAULT_TRACE_CAPACITY = 65_536


class TraceRecorder:
    """Fixed-capacity ring of per-window trace records."""

    def __init__(
        self, capacity: int = DEFAULT_TRACE_CAPACITY, downsample: int = 1
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if downsample <= 0:
            raise ValueError("downsample must be positive")
        self.capacity = capacity
        self.downsample = downsample
        #: Windows pushed out of the full ring (oldest first).
        self.dropped = 0
        #: Windows left out by downsampling.
        self.skipped = 0
        self._ring: Deque[WindowRecord] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def append(self, record: WindowRecord) -> None:
        """Add one window (subject to downsampling and the ring bound)."""
        if self.downsample > 1 and record.window % self.downsample != 0:
            self.skipped += 1
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def records(self) -> List[WindowRecord]:
        """Retained records, oldest first."""
        return list(self._ring)
