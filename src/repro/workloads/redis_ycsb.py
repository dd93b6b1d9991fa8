"""Redis driven by YCSB workload C (100% reads, zipfian keys).

Used by the paper's breakdown study (§5.10, Figure 13): a 19 GB RSS
in-memory store under a 1:1 tier ratio.  Traffic decomposes into

* hash-index probes: small hot region, dependent chains, MLP ~2,
* value reads: zipfian (YCSB theta 0.99) over the value heap, MLP ~2.5
  (the value pointer dereference is serialised behind the index probe),
* housekeeping/metadata scans: streaming, MLP ~10.

The workload also exposes request-level accounting (`misses_per_op`) so
benches can convert simulated runtime into throughput and latency.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.access import AccessGroup
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload, region_group, zipf_weights

INDEX_MLP = 2.0
VALUE_MLP = 2.5
META_MLP = 10.0

_TRAFFIC_MIX = (0.25, 0.65, 0.10)


class RedisYcsbC(Workload):
    """Zipfian read-only key-value serving."""

    #: Average LLC misses per GET (index probe + value lines).
    misses_per_op = 6.0
    knob_names = ("zipf_theta",)

    def __init__(
        self,
        footprint_pages: int = 19_456,
        total_misses: int = 50_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 50.0,
        zipf_theta: float = 0.99,
        seed: int = 5,
    ):
        n_index = int(footprint_pages * 0.08)
        n_values = int(footprint_pages * 0.87)
        n_meta = footprint_pages - n_index - n_values
        objects = [
            ObjectRegion("hash_index", 0, n_index),
            ObjectRegion("values", n_index, n_values),
            ObjectRegion("metadata", n_index + n_values, n_meta),
        ]
        super().__init__(
            name="redis-ycsbc",
            footprint_pages=footprint_pages,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=objects,
        )
        self.zipf_theta = zipf_theta
        layout_rng = np.random.default_rng(seed + 31)
        self._value_weights = zipf_weights(n_values, zipf_theta, layout_rng)
        self._index_weights = zipf_weights(n_index, 0.6, layout_rng)

    def allocation_order(self) -> np.ndarray:
        """Load phase: the value heap is populated before the hash index
        reaches its final resized shape, so index pages allocate late."""
        return self._order_from_regions(["values", "metadata", "hash_index"])

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        index, values, meta = self.objects
        f_i, f_v, f_m = _TRAFFIC_MIX
        i_misses = int(budget * f_i)
        v_misses = int(budget * f_v)
        m_misses = budget - i_misses - v_misses
        return [
            region_group(
                rng, index, i_misses, INDEX_MLP, weights=self._index_weights, label="index"
            ),
            region_group(
                rng, values, v_misses, VALUE_MLP, weights=self._value_weights, label="values"
            ),
            region_group(rng, meta, m_misses, META_MLP, label="meta"),
        ]

    def ops_for_misses(self, misses: float) -> float:
        """Convert a miss count into served GET operations."""
        return misses / self.misses_per_op
