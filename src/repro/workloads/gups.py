"""GUPS (giga-updates per second) with alternating access phases.

The paper's modified GUPS alternates between sequential and random
phases with a 50% mix and a 1:1 read/write ratio (§3).  Pages keep a
uniform long-run access frequency, but the unit stall cost a page incurs
depends on which phase touched it -- exactly the frequency/criticality
divergence Figure 1b demonstrates.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.access import AccessGroup
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload, region_group

SEQUENTIAL_MLP = 16.0
RANDOM_MLP = 3.0

#: Windows per sequential/random phase before switching.
DEFAULT_PHASE_WINDOWS = 12


class Gups(Workload):
    """Uniform-random update table with phased sequential/random access."""

    knob_names = ("phase_windows",)

    def __init__(
        self,
        footprint_pages: int = 16_384,
        total_misses: int = 50_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 35.0,
        phase_windows: int = DEFAULT_PHASE_WINDOWS,
        seed: int = 2,
    ):
        if phase_windows <= 0:
            raise ValueError("phase_windows must be positive")
        self.phase_windows = phase_windows
        table = ObjectRegion("update_table", 0, footprint_pages)
        super().__init__(
            name="gups",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=[table],
        )

    def _phase_is_sequential(self) -> bool:
        return (self.window_index // self.phase_windows) % 2 == 0

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        table = self.objects[0]
        if self._phase_is_sequential():
            mlp, label = SEQUENTIAL_MLP, "seq-phase"
        else:
            mlp, label = RANDOM_MLP, "rand-phase"
        # 1:1 read/write ratio -> half the misses are PEBS-visible loads.
        return [region_group(rng, table, budget, mlp, load_fraction=0.5, label=label)]

    def phase_name(self) -> str:
        return "sequential" if self._phase_is_sequential() else "random"
