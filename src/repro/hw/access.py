"""Memory-traffic descriptions exchanged between workloads and hardware.

A workload's generator describes a window as a list of
:class:`AccessGroup` objects.  A group bundles LLC-miss traffic that
shares one access pattern: the same effective memory-level parallelism
(MLP), e.g. "the streaming thread" or "pointer-chasing over the hub
pages".  This is the granularity at which MLP is physically meaningful
-- it is a property of the code issuing the requests, not of individual
pages -- and it is what lets the simulator produce the phased, per-tier
MLP behaviour the paper measures via CHA/TOR occupancy (§4.2).

Everything downstream of the generator reads one record per window,
:class:`WindowTraffic`: the window's entries as flat columns, groups
delimited by ``group_ptr``.  ``Workload.next_window`` packs the groups
once (:meth:`WindowTraffic.from_groups`); a replayed window is a slice
of the recorded trace columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


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
    """Everything a workload does during one sampling window.

    Group ``g`` owns entries ``[group_ptr[g], group_ptr[g + 1])`` of
    ``pages``/``counts`` (int64, in group order) and carries
    ``mlp[g]``, ``load_fraction[g]`` (float64) and ``labels[g]``.
    """

    pages: np.ndarray
    counts: np.ndarray
    #: G + 1 window-local entry offsets of the groups (int64).
    group_ptr: np.ndarray
    mlp: np.ndarray
    load_fraction: np.ndarray
    labels: Sequence[str]
    #: Cycles of pure compute (no memory stalls) in this window.
    compute_cycles: float
    #: True when the workload has finished its total work after this window.
    done: bool = False
    #: Free-form phase tag, surfaced in traces and benches.
    phase: str = ""

    @classmethod
    def from_groups(
        cls,
        groups: List[AccessGroup],
        compute_cycles: float,
        done: bool = False,
        phase: str = "",
    ) -> "WindowTraffic":
        """Pack a generator's groups; a single group keeps its arrays."""
        n = len(groups)
        if n == 1:
            pages, counts = groups[0].pages, groups[0].counts
        elif n:
            pages = np.concatenate([g.pages for g in groups])
            counts = np.concatenate([g.counts for g in groups])
        else:
            pages = counts = np.empty(0, dtype=np.int64)
        group_ptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([g.pages.size for g in groups], out=group_ptr[1:])
        return cls(
            pages=pages,
            counts=counts,
            group_ptr=group_ptr,
            mlp=np.array([g.mlp for g in groups], dtype=np.float64),
            load_fraction=np.array([g.load_fraction for g in groups], dtype=np.float64),
            labels=[g.label for g in groups],
            compute_cycles=compute_cycles,
            done=done,
            phase=phase,
        )

    @property
    def num_groups(self) -> int:
        return self.group_ptr.size - 1

    def total_misses(self) -> int:
        return int(self.counts.sum())
