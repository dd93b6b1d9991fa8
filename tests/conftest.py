"""Shared fixtures: a small, fast workload and machine configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.page import ObjectRegion, Tier
from repro.mem.tiered import TieredMemory
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload, region_group

#: Bound on the last-iteration residual the damped stall fixed point
#: leaves in any window: it must stay comfortably convergent.  The
#: observed maxima are ~0.095 over the two-tier corpus (cold-start first
#: windows) and ~0.097 over the accounting audit's matrix (silo/PACT on
#: ``dram-cxlz-nvme``).
FIXED_POINT_RESIDUAL_BOUND = 0.15


class TinyWorkload(Workload):
    """Two-region workload: a hot low-MLP half and a cold high-MLP half.

    Small enough that a full run takes milliseconds, with an
    unambiguous criticality structure tests can assert against.
    """

    knob_names = ("chase_mlp", "stream_mlp")

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
    return TieredMemory(footprint_pages=256, capacities=[128, 256])


@pytest.fixture
def rng():
    return np.random.default_rng(123)


@pytest.fixture
def count_runs(monkeypatch):
    """Count simulated runs in this process (solo and lockstep)."""
    from repro.sim.machine import Machine
    from repro.sim.runbatch import MultiMachine

    calls = []
    original = Machine.run
    original_multi = MultiMachine.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    def counting_multi_run(self, *args, **kwargs):
        # One lockstep execution simulates every member machine once.
        calls.extend(self.machines)
        return original_multi(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    monkeypatch.setattr(MultiMachine, "run", counting_multi_run)
    return calls


@pytest.fixture
def isolated_stores():
    """Memory-only default result + trace stores, restored afterwards."""
    from repro.exp.cache import ResultStore, reset_default_store, set_default_store
    from repro.workloads import tracestore

    store = set_default_store(ResultStore())
    trace_store = tracestore.set_default_trace_store(tracestore.TraceStore())
    yield store, trace_store
    reset_default_store()
    tracestore.reset_default_trace_store()


def assert_placement_consistent(memory: TieredMemory) -> None:
    """Invariant: used counters match placement array, capacities hold."""
    fast = int((memory.placement == int(Tier.FAST)).sum())
    slow = int((memory.placement == int(Tier.SLOW)).sum())
    assert memory.used[Tier.FAST] == fast
    assert memory.used[Tier.SLOW] == slow
    assert fast <= memory.capacity[Tier.FAST]
    assert slow <= memory.capacity[Tier.SLOW]
