"""GAPBS-style graph analytics workloads: bc, tc, sssp on kron/urand/twitter.

Graph kernels are the paper's stress case for criticality-first tiering
(§5.2): traffic looks random to frequency counters, but has exploitable
structure -- hub vertices are touched by serialised pointer chasing
(low MLP, high stall per access) while edge scans stream with high MLP.
The generators below reproduce that structure synthetically:

* a *vertex* region with degree-skewed popularity, accessed by
  dependent pointer walks,
* an *edge* (CSR) region scanned by prefetch-friendly streaming, with a
  per-iteration frontier selecting which edge blocks are active,
* a small *aux* region (frontier queues, scores).

Graph flavours differ in skew and size: ``kron`` (synthetic Kronecker,
heavy power law, one huge edge object), ``urand`` (uniform degrees),
``twitter`` (extreme power law).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.hw.access import AccessGroup
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload, region_group, zipf_weights


@dataclass(frozen=True)
class GraphSpec:
    """Shape parameters of one input graph."""

    name: str
    footprint_pages: int
    #: Degree-skew exponent for vertex popularity (0 = uniform).
    vertex_alpha: float
    #: Skew of edge-block popularity (hub adjacency lists are hot).
    edge_alpha: float
    #: Kronecker builders materialise vertices + edges as one pooled CSR
    #: allocation -- the ~16GB indivisible object that defeats Soar's
    #: object-granular placement in the paper (§5.4).
    pooled_csr: bool = False
    #: (vertex, edge, scratch, aux) footprint fractions.  ``scratch`` is
    #: dead loader memory: the edge-list and construction buffers GAPBS
    #: leaves resident after building the CSR (the raw edge list is ~2x
    #: the packed CSR).  Under first-touch it squats in the fast tier;
    #: tiering systems reclaim it via (LRU) demotion.
    region_split: "tuple[float, float, float, float]" = (0.16, 0.42, 0.34, 0.08)


GRAPHS: Dict[str, GraphSpec] = {
    "kron": GraphSpec(
        "kron", footprint_pages=24_576, vertex_alpha=1.05, edge_alpha=0.7, pooled_csr=True
    ),
    # Uniform-random graphs carry no degree skew: per-page access
    # frequency is nearly flat, and the vertex region is proportionally
    # larger (fewer edges per vertex), so frequency ranks the streaming
    # edge pages *above* the pointer-chased vertex state -- the setting
    # where criticality and hotness genuinely diverge (§5.6).
    "urand": GraphSpec(
        "urand",
        footprint_pages=24_576,
        vertex_alpha=0.25,
        edge_alpha=0.2,
        region_split=(0.34, 0.32, 0.26, 0.08),
    ),
    "twitter": GraphSpec("twitter", footprint_pages=32_768, vertex_alpha=1.35, edge_alpha=0.9),
}

_KERNELS = ("bc", "tc", "sssp")

VERTEX_CHASE_MLP = 1.8
EDGE_STREAM_MLP = 16.0
AUX_MLP = 6.0


class GraphWorkload(Workload):
    """One GAPBS kernel running over one synthetic graph."""

    knob_names = ("iteration_windows",)

    def __init__(
        self,
        kernel: str,
        graph: str,
        total_misses: int = 60_000_000,
        misses_per_window: int = 250_000,
        compute_cycles_per_miss: float = 30.0,
        iteration_windows: int = 10,
        seed: int = 3,
    ):
        if kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
        if graph not in GRAPHS:
            raise ValueError(f"graph must be one of {tuple(GRAPHS)}")
        self.kernel = kernel
        self.graph_spec = GRAPHS[graph]
        self.iteration_windows = iteration_windows
        footprint = self.graph_spec.footprint_pages
        split = self.graph_spec.region_split
        nv = int(footprint * split[0])
        ne = int(footprint * split[1])
        ns = int(footprint * split[2])
        na = footprint - nv - ne - ns
        regions = {
            "vertices": ObjectRegion("vertices", 0, nv),
            "edges": ObjectRegion("edges", nv, ne),
            "loader_scratch": ObjectRegion("loader_scratch", nv + ne, ns),
            "aux": ObjectRegion("aux", nv + ne + ns, na),
        }
        if self.graph_spec.pooled_csr:
            # One indivisible CSR allocation spanning vertices + edges.
            objects = [
                ObjectRegion("csr_pool", 0, nv + ne),
                regions["loader_scratch"],
                regions["aux"],
            ]
        else:
            objects = list(regions.values())
        self._regions = regions
        super().__init__(
            name=f"{kernel}-{graph}",
            footprint_pages=footprint,
            total_misses=total_misses,
            misses_per_window=misses_per_window,
            compute_cycles_per_miss=compute_cycles_per_miss,
            seed=seed,
            objects=objects,
        )
        layout_rng = np.random.default_rng(seed + 7919)
        self._vertex_weights = zipf_weights(nv, self.graph_spec.vertex_alpha, layout_rng)
        self._edge_weights = zipf_weights(ne, self.graph_spec.edge_alpha, layout_rng)
        self._frontier_mask = np.ones(ne, dtype=bool)
        self._iteration = -1

    def _on_reset(self) -> None:
        self._frontier_mask = np.ones(self._regions["edges"].num_pages, dtype=bool)
        self._iteration = -1

    # -- frontier dynamics ------------------------------------------------------

    def _frontier_fraction(self) -> float:
        """Active fraction of the edge region for the current iteration."""
        if self.kernel == "tc":
            return 1.0  # triangle counting touches the whole graph
        if self.kernel == "bc":
            return 0.35
        # sssp: the frontier starts wide and narrows as distances settle.
        return max(0.5 * (1.0 - self.progress) + 0.08, 0.08)

    def _maybe_advance_iteration(self, rng: np.random.Generator) -> None:
        iteration = self.window_index // self.iteration_windows
        if iteration == self._iteration:
            return
        self._iteration = iteration
        ne = self._regions["edges"].num_pages
        frac = self._frontier_fraction()
        if frac >= 1.0:
            self._frontier_mask = np.ones(ne, dtype=bool)
            return
        # The frontier is a union of contiguous edge blocks: adjacency
        # lists of the active vertices.
        block = max(ne // 64, 1)
        num_blocks = max(int(frac * ne / block), 1)
        starts = rng.integers(0, max(ne - block, 1), size=num_blocks)
        mask = np.zeros(ne, dtype=bool)
        for start in starts:
            mask[start : start + block] = True
        self._frontier_mask = mask

    # -- traffic ---------------------------------------------------------------

    def _mix(self) -> "tuple[float, float, float]":
        """(vertex-chase, edge-stream, aux) miss fractions for this window.

        Each iteration has internal sub-phases, as real frontier kernels
        do: early windows are expansion-dominated (streaming edge scans,
        high MLP), later windows are contraction/score-update dominated
        (serialised vertex chasing, low MLP).  This temporal structure
        is what separates criticality from frequency: vertex pages soak
        up their accesses in low-MLP windows, so per-access stall
        attribution prices them higher than equally-frequent edge pages
        (§3, Takeaway #1).
        """
        pos = (self.window_index % self.iteration_windows) / self.iteration_windows
        if self.kernel == "tc":
            # Triangle counting alternates list scans with intersection
            # walks on a finer cadence.
            if self.window_index % 4 < 2:
                return (0.05, 0.85, 0.10)
            return (0.70, 0.15, 0.15)
        if pos < 0.5:
            return (0.05, 0.85, 0.10)  # frontier expansion: edge streaming
        return (0.70, 0.15, 0.15)  # contraction: vertex pointer chasing

    def allocation_order(self) -> np.ndarray:
        """GAPBS allocation order: edge arrays and loader buffers during
        graph construction, frontier queues at kernel setup, and the
        per-vertex kernel state (scores/depths/sigma -- the data the
        pointer chase actually stalls on) last, at kernel invocation.
        First-touch therefore strands most of the critical region on the
        slow tier even at generous fast-tier ratios (§5.2)."""
        parts = [
            self._regions[name].pages()
            for name in ("edges", "loader_scratch", "aux", "vertices")
        ]
        return np.concatenate(parts)

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        self._maybe_advance_iteration(rng)
        vertices = self._regions["vertices"]
        edges = self._regions["edges"]
        aux = self._regions["aux"]
        f_chase, f_edge, f_aux = self._mix()
        groups: List[AccessGroup] = []

        chase_misses = int(budget * f_chase)
        if chase_misses > 0:
            groups.append(
                region_group(
                    rng,
                    vertices,
                    chase_misses,
                    self._jittered(VERTEX_CHASE_MLP, rng),
                    weights=self._vertex_weights,
                    label="vertex-chase",
                )
            )

        edge_misses = int(budget * f_edge)
        if edge_misses > 0:
            groups.append(self._edge_group(rng, edges, edge_misses))

        aux_misses = budget - chase_misses - edge_misses
        if aux_misses > 0:
            groups.append(
                region_group(rng, aux, aux_misses, AUX_MLP, label="aux")
            )
        return groups

    def _edge_group(
        self, rng: np.random.Generator, edges: ObjectRegion, misses: int
    ) -> AccessGroup:
        weights = self._edge_weights.copy()
        weights[~self._frontier_mask] *= 0.02  # inactive lists still leak traffic
        if self.kernel == "tc":
            # Triangle counting alternates full-list scans with dependent
            # intersection walks that hammer the hub adjacency lists: the
            # two phases touch *different* page populations at very
            # different cost, which is what produces Figure 1c's 65x
            # within-frequency criticality spread.
            if self.window_index % 4 < 2:
                weights = np.ones_like(weights)
                weights[~self._frontier_mask] = 0.02
                mlp = self._jittered(12.0, rng)
            else:
                weights = weights**1.8
                mlp = self._jittered(1.6, rng, spread=0.3)
        else:
            mlp = self._jittered(EDGE_STREAM_MLP, rng)
        counts_region = region_group(
            rng, edges, misses, mlp, weights=weights, label="edge-scan"
        )
        return counts_region

    @staticmethod
    def _jittered(mlp: float, rng: np.random.Generator, spread: float = 0.12) -> float:
        """Small per-window MLP jitter; phases stay stable (§4.2, Fig 3b)."""
        return max(float(mlp * np.exp(rng.normal(0.0, spread))), 1.1)

    def phase_name(self) -> str:
        return f"iter-{self._iteration}"


def make_graph_workload(name: str, seed: int = 3, **kwargs) -> GraphWorkload:
    """Construct from a paper-style name like ``bc-kron`` or ``tc-twitter``."""
    kernel, _, graph = name.partition("-")
    return GraphWorkload(kernel=kernel, graph=graph, seed=seed, **kwargs)
