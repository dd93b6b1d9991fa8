"""SPEC CPU 2017 memory-intensive workloads: 603.bwaves, 657.xz, 631.deepsjeng.

Each generator encodes the published memory character of its benchmark:

* **603.bwaves** -- blast-wave CFD: long streaming sweeps over a handful
  of large arrays with very high MLP and heavy compute between misses.
  Latency-tolerant; tiering gains are modest (§5.4 notes Soar's offline
  profiling shines here).
* **657.xz** -- LZMA compression: a dictionary window that slides through
  the input, giving strong short-term recency.  Aggressive recency-based
  promotion (Colloid/NBT) slightly beats PACT here in the paper (§5.3).
* **631.deepsjeng** -- chess search: uniform-random probes into a large
  transposition table (low locality, low MLP) plus small hot evaluation
  tables.  Memtis edges PACT by ~4% with ~3x more migrations (§5.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.access import AccessGroup
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload, region_group, zipf_weights


class Bwaves(Workload):
    """603.bwaves: phased streaming over four large state arrays."""

    def __init__(
        self,
        footprint_pages: int = 24_576,
        total_misses: int = 50_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 150.0,
        seed: int = 7,
    ):
        quarter = footprint_pages // 4
        objects = [
            ObjectRegion(f"array_{i}", i * quarter, quarter) for i in range(4)
        ]
        super().__init__(
            name="603.bwaves",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=objects,
        )

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        # Each solver sub-step sweeps two of the four arrays.
        step = (self.window_index // 6) % 4
        active = [self.objects[step], self.objects[(step + 1) % 4]]
        half = budget // 2
        return [
            region_group(rng, active[0], half, 20.0, label="sweep-a"),
            region_group(rng, active[1], budget - half, 20.0, label="sweep-b"),
        ]

    def phase_name(self) -> str:
        return f"substep-{(self.window_index // 6) % 4}"


class Xz(Workload):
    """657.xz: LZMA with a sliding dictionary window (recency-friendly)."""

    knob_names = ("slide_windows",)

    def __init__(
        self,
        footprint_pages: int = 16_384,
        total_misses: int = 45_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 70.0,
        slide_windows: int = 8,
        seed: int = 8,
    ):
        n_dict = int(footprint_pages * 0.75)
        n_stream = footprint_pages - n_dict
        objects = [
            ObjectRegion("dictionary", 0, n_dict),
            ObjectRegion("io_buffers", n_dict, n_stream),
        ]
        self.slide_windows = slide_windows
        super().__init__(
            name="657.xz",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=objects,
        )

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        dictionary, buffers = self.objects
        nd = dictionary.num_pages
        # The active dictionary window slides through the region; match
        # finding hammers the most recent quarter hardest.
        window_span = max(nd // 5, 1)
        head = (self.window_index // self.slide_windows * window_span // 2) % nd
        idx = (head + np.arange(window_span)) % nd
        weights = np.zeros(nd)
        weights[idx] = np.linspace(0.2, 1.0, window_span)
        d_misses = int(budget * 0.8)
        groups = [
            region_group(
                rng, dictionary, d_misses, 3.5, weights=weights, label="dict-match"
            ),
            region_group(rng, buffers, budget - d_misses, 12.0, label="io"),
        ]
        return groups

    def phase_name(self) -> str:
        return f"block-{self.window_index // self.slide_windows}"


class Deepsjeng(Workload):
    """631.deepsjeng: transposition-table probes plus hot eval tables."""

    def __init__(
        self,
        footprint_pages: int = 12_288,
        total_misses: int = 40_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 80.0,
        seed: int = 9,
    ):
        n_tt = int(footprint_pages * 0.88)
        n_eval = footprint_pages - n_tt
        objects = [
            ObjectRegion("transposition_table", 0, n_tt),
            ObjectRegion("eval_tables", n_tt, n_eval),
        ]
        super().__init__(
            name="631.deepsjeng",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=objects,
        )
        layout_rng = np.random.default_rng(seed + 13)
        self._eval_weights = zipf_weights(n_eval, 1.0, layout_rng)

    def allocation_order(self) -> np.ndarray:
        """The transposition table is allocated up front at engine start;
        the hot evaluation tables follow during search initialisation."""
        return self._order_from_regions(["transposition_table", "eval_tables"])

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        tt, eval_tables = self.objects
        tt_misses = int(budget * 0.7)
        return [
            region_group(rng, tt, tt_misses, 2.2, label="tt-probe"),
            region_group(
                rng,
                eval_tables,
                budget - tt_misses,
                4.0,
                weights=self._eval_weights,
                label="eval",
            ),
        ]
