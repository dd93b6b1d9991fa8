"""Ordered tier graphs: N-tier hierarchies with optional compression.

A :class:`TierTopology` is the machine's one description of its memory
hierarchy: an ordered list of tiers (index 0 is the fastest; demotion
flows toward higher indices), each described by a :class:`TierDef`:

* a :class:`~repro.common.units.TierSpec` (latency / bandwidth), and
* an optional :class:`CompressionSpec` modelling a compressed tier
  (e.g. a zswap-style compressed CXL tier): per-page compressibility
  scales the tier's *effective* capacity -- a page with compression
  ratio ``r`` consumes ``1/r`` physical page frames -- and the
  (de)compression latency is folded into the tier's access latency.

Topologies also carry the demotion routing mode (``"through"`` cascades
victims one tier down; ``"direct"`` sends them straight to the bottom
tier), making the multi-hop ablation a pure configuration choice.

The paper's testbed is ``make_topology("dram-cxl")``, the default of
:class:`repro.sim.config.MachineConfig`; its tiers are uncompressed, so
the stall model sees the ``DRAM_SPEC``/``CXL_SPEC`` objects themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.units import CXL_SPEC, DRAM_SPEC, NVME_SPEC, TierSpec

#: Demotion routing modes (see :class:`TierTopology`).
DEMOTION_MODES = ("through", "direct")


@dataclass(frozen=True)
class CompressionSpec:
    """Per-page compressibility model for a compressed memory tier.

    Pages stored in a compressed tier occupy ``1/ratio_p`` physical
    page frames, where ``ratio_p`` is drawn per page from a uniform
    distribution around :attr:`ratio` (width ``spread`` as a fraction of
    the mean, floored at 1.0 -- a page never grows).  The draw is
    seeded, so a page's compressibility is a stable property of the
    run, not of its migration history.  Every access to the tier pays
    :attr:`latency_ns` of (de)compression latency on top of the media
    latency.
    """

    #: Mean compression ratio (2.0 = pages halve on average).
    ratio: float = 2.0
    #: Page-to-page variation as a fraction of ``ratio`` (0 = uniform).
    spread: float = 0.5
    #: Added (de)compression latency per access, in nanoseconds.
    latency_ns: float = 40.0
    #: Seed of the deterministic per-page compressibility stream.
    seed: int = 1234

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ratio) and self.ratio >= 1.0):
            raise ValueError("compression ratio must be >= 1")
        if not (0.0 <= self.spread < 1.0):
            raise ValueError("compression spread must be in [0, 1)")
        if self.latency_ns < 0.0:
            raise ValueError("compression latency must be non-negative")

    def page_ratios(self, footprint_pages: int) -> np.ndarray:
        """Deterministic per-page compression ratios (all >= 1)."""
        rng = np.random.default_rng(self.seed)
        lo = max(self.ratio * (1.0 - self.spread), 1.0)
        hi = max(self.ratio * (1.0 + self.spread), 1.0)
        return rng.uniform(lo, hi, size=footprint_pages)

    def page_frame_costs(self, footprint_pages: int) -> np.ndarray:
        """Physical page frames consumed per stored page (= 1/ratio)."""
        return 1.0 / self.page_ratios(footprint_pages)


@dataclass(frozen=True)
class TierDef:
    """One tier of a topology: media spec plus optional compression."""

    spec: TierSpec
    compression: Optional[CompressionSpec] = None

    def effective_spec(self) -> TierSpec:
        """The spec the stall model sees: compression latency folded in.

        The (de)compression cost is charged at tier granularity -- every
        access to a compressed tier pays the mean codec latency -- which
        keeps the fixed-point solver's per-tier structure intact.
        """
        if self.compression is None:
            return self.spec
        return TierSpec(
            name=f"{self.spec.name}+z",
            latency_ns=self.spec.latency_ns + self.compression.latency_ns,
            bandwidth_gbps=self.spec.bandwidth_gbps,
        )


@dataclass(frozen=True)
class TierTopology:
    """An ordered tier graph, fastest first.

    ``demotion`` selects multi-hop routing: ``"through"`` demotes a
    victim from tier ``t`` to tier ``t+1`` (cascading further demotions
    down the chain when the intermediate tier is full), ``"direct"``
    demotes straight to the bottom tier.  The two coincide for two
    tiers, so the ablation is a no-op on the default pair.
    """

    tiers: Tuple[TierDef, ...]
    demotion: str = "through"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if len(self.tiers) < 2:
            raise ValueError("a topology needs at least two tiers")
        if self.demotion not in DEMOTION_MODES:
            raise ValueError(
                f"demotion must be one of {DEMOTION_MODES}, got {self.demotion!r}"
            )

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def effective_specs(self) -> List[TierSpec]:
        """Per-tier specs with compression latency folded in."""
        return [td.effective_spec() for td in self.tiers]

    def page_frame_costs(self, footprint_pages: int) -> List[Optional[np.ndarray]]:
        """Per-tier page-frame cost arrays (None = 1 frame per page)."""
        return [
            None if td.compression is None else td.compression.page_frame_costs(footprint_pages)
            for td in self.tiers
        ]


#: Named topologies selectable from the CLI (``--topology``).
_TOPOLOGY_BUILDERS = {
    # The paper's testbed pair: the default machine.
    "dram-cxl": lambda: (TierDef(DRAM_SPEC), TierDef(CXL_SPEC)),
    # Three uncompressed tiers.
    "dram-cxl-nvme": lambda: (TierDef(DRAM_SPEC), TierDef(CXL_SPEC), TierDef(NVME_SPEC)),
    # DRAM -> compressed CXL -> NVMe: the HybridTier-style hierarchy.
    "dram-cxlz-nvme": lambda: (
        TierDef(DRAM_SPEC),
        TierDef(CXL_SPEC, compression=CompressionSpec()),
        TierDef(NVME_SPEC),
    ),
}

TOPOLOGY_NAMES = tuple(sorted(_TOPOLOGY_BUILDERS))


def make_topology(name: str, demotion: str = "through") -> TierTopology:
    """Build a named topology (see :data:`TOPOLOGY_NAMES`)."""
    try:
        builder = _TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; known: {', '.join(TOPOLOGY_NAMES)}"
        ) from None
    return TierTopology(tiers=builder(), demotion=demotion)
