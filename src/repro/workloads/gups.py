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

from repro.hw.access import AccessGroup, WindowTraffic
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

    def next_windows(self, k: int) -> List[WindowTraffic]:
        """Bulk generation amortising the multinomial draws.

        ``rng.multinomial(n, p, size=j)`` consumes the bit stream
        exactly as ``j`` sequential ``rng.multinomial(n, p)`` calls do,
        so batching runs of equal-budget windows (every window except a
        final remainder) reproduces the serial sequence bit-for-bit --
        the trace round-trip tests compare both paths directly.
        """
        table = self.objects[0]
        table_pages = table.pages()
        p = np.full(table.num_pages, 1.0 / table.num_pages)
        windows: List[WindowTraffic] = []
        while len(windows) < k and not self.done:
            remaining = self.total_misses - self._consumed
            budget = min(self.misses_per_window, remaining)
            # Consecutive full-budget windows share one batched draw; a
            # short final window is drawn on its own.
            if budget == self.misses_per_window:
                batch = min(k - len(windows), max(remaining // budget, 1))
            else:
                batch = 1
            counts = self._rng.multinomial(budget, p, size=batch).astype(np.int64)
            for row in counts:
                if self._phase_is_sequential():
                    mlp, label = SEQUENTIAL_MLP, "seq-phase"
                else:
                    mlp, label = RANDOM_MLP, "rand-phase"
                hit = row > 0
                group = AccessGroup(
                    pages=table_pages[hit],
                    counts=row[hit],
                    mlp=mlp,
                    load_fraction=0.5,
                    label=label,
                )
                self._consumed += budget
                self._window += 1
                traffic = WindowTraffic(
                    groups=[group],
                    compute_cycles=self._compute_cycles(budget),
                    done=self.done,
                    phase=self.phase_name(),
                )
                traffic.extra["consumed_after"] = self._consumed
                windows.append(traffic)
        return windows
