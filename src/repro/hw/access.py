"""Memory-traffic descriptions exchanged between workloads and hardware.

Workloads emit, per sampling window, a list of :class:`AccessGroup`
objects.  A group bundles LLC-miss traffic that shares one access
pattern: the same effective memory-level parallelism (MLP), e.g. "the
streaming thread" or "pointer-chasing over the hub pages".  This is the
granularity at which MLP is physically meaningful -- it is a property of
the code issuing the requests, not of individual pages -- and it is what
lets the simulator produce the phased, per-tier MLP behaviour the paper
measures via CHA/TOR occupancy (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.common.arrays import sorted_unique


@dataclass
class AccessGroup:
    """LLC-miss traffic with a common access pattern within one window.

    ``counts[i]`` is the number of demand LLC misses to ``pages[i]``
    during the window.  ``mlp`` is the pattern's effective parallelism:
    ~1-2 for dependent pointer chasing, 8-24 for prefetched streaming.
    """

    pages: np.ndarray
    counts: np.ndarray
    mlp: float
    load_fraction: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        self.pages = np.asarray(self.pages, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.pages.shape != self.counts.shape:
            raise ValueError("pages and counts must align")
        if self.mlp <= 0:
            raise ValueError("mlp must be positive")
        if not 0.0 <= self.load_fraction <= 1.0:
            raise ValueError("load_fraction must be in [0, 1]")

    @property
    def total_misses(self) -> int:
        return int(self.counts.sum())


@dataclass
class WindowTraffic:
    """Everything a workload does during one sampling window."""

    groups: List[AccessGroup]
    #: Cycles of pure compute (no memory stalls) in this window.
    compute_cycles: float
    #: True when the workload has finished its total work after this window.
    done: bool = False
    #: Free-form phase tag, surfaced in traces and benches.
    phase: str = ""

    #: Optional pre-concatenated views over all groups' pages/counts, in
    #: group order.  Replayed windows are contiguous slices of one flat
    #: trace column, so providing these lets the simulator skip a
    #: per-window ``np.concatenate``; when absent the simulator builds
    #: the flat arrays itself.
    flat_pages: Optional[np.ndarray] = None
    flat_counts: Optional[np.ndarray] = None

    extra: dict = field(default_factory=dict)

    def total_misses(self) -> int:
        return sum(g.total_misses for g in self.groups)

    def touched_pages(self) -> np.ndarray:
        """Unique pages accessed this window (feeds the LRU clock)."""
        if not self.groups:
            return np.empty(0, dtype=np.int64)
        return sorted_unique(np.concatenate([g.pages[g.counts > 0] for g in self.groups]))
