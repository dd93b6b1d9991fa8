"""Shared fixtures: a small, fast workload and machine configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.page import ObjectRegion, Tier
from repro.mem.tiered import TieredMemory
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload, region_group


class TinyWorkload(Workload):
    """Two-region workload: a hot low-MLP half and a cold high-MLP half.

    Small enough that a full run takes milliseconds, with an
    unambiguous criticality structure tests can assert against.
    """

    def __init__(
        self,
        footprint_pages: int = 512,
        total_misses: int = 600_000,
        misses_per_window: int = 30_000,
        seed: int = 7,
        chase_mlp: float = 2.0,
        stream_mlp: float = 16.0,
    ):
        half = footprint_pages // 2
        self.chase_mlp = chase_mlp
        self.stream_mlp = stream_mlp
        super().__init__(
            name="tiny",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=20.0,
            seed=seed,
            objects=[
                ObjectRegion("chase", 0, half),
                ObjectRegion("stream", half, footprint_pages - half),
            ],
        )

    def allocation_order(self):
        # Streamed bulk data allocates first; critical chase region last.
        return self._order_from_regions(["stream", "chase"])

    def _emit(self, budget, rng):
        # Alternate chase-dominated and stream-dominated windows so the
        # two regions genuinely differ in per-access stall cost (the
        # phased behaviour PAC attribution relies on, §4.2).
        chase, stream = self.objects
        if self.window_index % 2 == 0:
            mix = (0.85, 0.15)
        else:
            mix = (0.15, 0.85)
        chase_misses = int(budget * mix[0])
        return [
            region_group(rng, chase, chase_misses, self.chase_mlp, label="chase"),
            region_group(rng, stream, budget - chase_misses, self.stream_mlp, label="stream"),
        ]


@pytest.fixture
def tiny_workload():
    return TinyWorkload()


@pytest.fixture
def config():
    return MachineConfig()


@pytest.fixture
def memory():
    return TieredMemory(
        footprint_pages=256,
        capacities=[128, 256],
        specs=MachineConfig().tier_specs(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def assert_placement_consistent(memory: TieredMemory) -> None:
    """Invariant: used counters match placement array, capacities hold."""
    fast = int((memory.placement == int(Tier.FAST)).sum())
    slow = int((memory.placement == int(Tier.SLOW)).sum())
    assert memory.used[Tier.FAST] == fast
    assert memory.used[Tier.SLOW] == slow
    assert fast <= memory.capacity[Tier.FAST]
    assert slow <= memory.capacity[Tier.SLOW]
