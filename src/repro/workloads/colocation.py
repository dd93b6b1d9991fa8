"""Colocated workloads sharing one tiered address space.

The colocation study (§5.9) runs two masim processes -- one streaming,
one pointer-chasing -- against a fast tier sized at half their combined
footprint.  ``ColocatedWorkload`` merges member workloads into a single
address space (page ids offset per member) and emits their combined
traffic each window; each member's completion time is tracked separately
so per-member slowdowns can be reported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hw.access import AccessGroup, WindowTraffic
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload


class ColocatedWorkload(Workload):
    """Union of member workloads with per-member progress accounting."""

    def __init__(self, members: Sequence[Workload], name: Optional[str] = None):
        if not members:
            raise ValueError("colocation requires at least one member")
        self.members: List[Workload] = list(members)
        self._offsets: List[int] = []
        offset = 0
        objects: List[ObjectRegion] = []
        for member in self.members:
            self._offsets.append(offset)
            for region in member.objects:
                objects.append(
                    ObjectRegion(
                        f"{member.name}:{region.name}",
                        region.start_page + offset,
                        region.num_pages,
                    )
                )
            offset += member.footprint_pages
        #: Window index at which each member finished (-1 = still running).
        self.member_finish_window: List[int] = [-1] * len(self.members)
        super().__init__(
            name=name or "+".join(m.name for m in self.members),
            footprint_pages=offset,
            total_misses=sum(m.total_misses for m in self.members),
            misses_per_window=sum(m.misses_per_window for m in self.members),
            compute_cycles_per_miss=0.0,  # compute comes from the members
            seed=self.members[0].seed,
            objects=objects,
        )

    def _on_reset(self) -> None:
        for member in self.members:
            member.reset()
        self.member_finish_window = [-1] * len(self.members)

    def final_metrics(self) -> dict:
        return {"member_finish_window": list(self.member_finish_window)}

    def next_window(self) -> WindowTraffic:
        """The running members' windows, concatenated in member order:
        page ids offset into each member's range, labels prefixed with
        the member's name."""
        parts = []
        compute = 0.0
        emitted = 0
        for i, member in enumerate(self.members):
            if member.done:
                continue
            traffic = member.next_window()
            parts.append((i, traffic))
            # Colocated processes run on separate cores; the shared-window
            # compute is the max of the members, not the sum.
            compute = max(compute, traffic.compute_cycles)
            emitted += traffic.total_misses()
            if member.done and self.member_finish_window[i] < 0:
                self.member_finish_window[i] = self._window
        self._consumed += emitted
        self._window += 1
        done = all(m.done for m in self.members)
        if not parts:
            return WindowTraffic.from_groups([], compute, done=done, phase=self.phase_name())
        group_ptr = [np.zeros(1, dtype=np.int64)]
        entries = 0
        for _, traffic in parts:
            group_ptr.append(traffic.group_ptr[1:] + entries)
            entries += traffic.pages.size
        return WindowTraffic(
            pages=np.concatenate([t.pages + self._offsets[i] for i, t in parts]),
            counts=np.concatenate([t.counts for _, t in parts]),
            group_ptr=np.concatenate(group_ptr),
            mlp=np.concatenate([t.mlp for _, t in parts]),
            load_fraction=np.concatenate([t.load_fraction for _, t in parts]),
            labels=[
                f"{self.members[i].name}:{label}" for i, t in parts for label in t.labels
            ],
            compute_cycles=compute,
            done=done,
            phase=self.phase_name(),
        )

    def member_pages(self, index: int) -> np.ndarray:
        """All page ids belonging to member ``index``."""
        member = self.members[index]
        start = self._offsets[index]
        return np.arange(start, start + member.footprint_pages, dtype=np.int64)

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        raise NotImplementedError("ColocatedWorkload overrides next_window directly")

    def phase_name(self) -> str:
        running = sum(1 for m in self.members if not m.done)
        return f"{running}-running"
