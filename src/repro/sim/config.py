"""Machine configuration: tier topology, ratios and cost parameters.

There is no RNG switch: every stochastic hardware draw follows the one
counter-keyed convention of :mod:`repro.hw.substream`, and
:attr:`MachineConfig.rng_schema_effective` reports its number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List

from repro.common.units import CPU_FREQ_GHZ, TierSpec
from repro.hw.pebs import DEFAULT_PEBS_RATE
from repro.mem.topology import TierTopology, make_topology

#: The fast:slow capacity ratios evaluated in the paper (§5.1).
PAPER_RATIOS = ("8:1", "4:1", "2:1", "1:1", "1:2", "1:4", "1:8")

#: The paper's testbed: local DRAM over one CXL expander (§5.1).  A
#: module constant, not a per-instance factory: building a topology on
#: every ``MachineConfig()`` would double its cost, and request keys
#: build one per call.
DEFAULT_TOPOLOGY = make_topology("dram-cxl")


def _split_ratio(ratio: str) -> List[float]:
    """Raw (unnormalised) parts of a colon-separated ratio string.

    Middle parts may be zero ("1:0:4" expresses an empty intermediate
    tier); the endpoints must be real tiers.
    """
    try:
        parts = [float(p) for p in ratio.split(":")]
    except (ValueError, AttributeError):
        raise ValueError(f"ratio must look like '1:4', got {ratio!r}") from None
    if len(parts) < 2:
        raise ValueError(f"ratio must look like '1:4', got {ratio!r}")
    if not all(math.isfinite(p) for p in parts):
        raise ValueError(f"ratio parts must be finite, got {ratio!r}")
    if any(p < 0 for p in parts):
        raise ValueError("ratio parts must be positive")
    if parts[0] <= 0 or parts[-1] <= 0:
        raise ValueError("first and last ratio parts must be positive")
    return parts


def parse_ratio_parts(ratio: str) -> List[float]:
    """Per-tier capacity fractions for an N-part ratio string.

    ``"1:4"`` -> ``[0.2, 0.8]``; ``"1:4:16"`` -> ``[1/21, 4/21, 16/21]``.
    """
    parts = _split_ratio(ratio)
    total = 0.0
    for p in parts:
        total += p
    return [p / total for p in parts]


def parse_ratio(ratio: str) -> float:
    """Fast-tier (tier 0) fraction of the footprint for a ratio string."""
    return parse_ratio_parts(ratio)[0]


@dataclass(frozen=True)
class MigrationCost:
    """Cost model of ``move_pages()`` (per-batch syscall + per-page copy)."""

    #: Fixed per-4KB-page cost: fault/syscall handling, TLB shootdown.
    page_fixed_us: float = 1.0
    #: Copy cost per 4KB page.
    page_copy_us: float = 0.6
    #: Fixed cost of moving one 2MB huge page.
    huge_fixed_us: float = 6.0
    #: Per-4KB copy cost within a huge-page move (sequential copy is fast).
    huge_copy_us_per_4k: float = 0.25
    #: Fraction of background-migration cost that interferes with the app
    #: (a dedicated migration thread overlaps most of its work).
    background_interference: float = 0.35


@dataclass(frozen=True)
class MachineConfig:
    """Full description of the simulated testbed."""

    freq_ghz: float = CPU_FREQ_GHZ
    pebs_rate: int = DEFAULT_PEBS_RATE
    counter_noise: float = 0.01
    thp: bool = False
    migration: MigrationCost = field(default_factory=MigrationCost)
    #: Slack multiplier for slow-tier capacity (it can always hold the
    #: whole footprint, as on the paper's 96 GB-per-socket testbed).
    slow_slack: float = 1.0
    #: A fast-tier page qualifies as an "inactive" demotion victim when
    #: its decayed access intensity is below this fraction of the fast
    #: tier's mean -- the simulator's model of the kernel's LRU
    #: inactive list (constantly-touched pages are never demotable).
    cold_activity_fraction: float = 0.25
    #: The tier hierarchy, fastest first (default: the paper's DRAM/CXL
    #: pair).
    topology: TierTopology = DEFAULT_TOPOLOGY

    def __post_init__(self) -> None:
        if not self.pebs_rate >= 1:
            raise ValueError(f"pebs_rate must be at least 1, got {self.pebs_rate!r}")
        if not (math.isfinite(self.freq_ghz) and self.freq_ghz > 0.0):
            raise ValueError(f"freq_ghz must be finite and positive, got {self.freq_ghz!r}")
        if not (math.isfinite(self.counter_noise) and self.counter_noise >= 0.0):
            raise ValueError(
                f"counter_noise must be finite and non-negative, got {self.counter_noise!r}"
            )
        if not isinstance(self.topology, TierTopology):
            raise ValueError(
                f"topology must be a TierTopology, got {type(self.topology).__name__}"
            )

    @property
    def rng_schema_effective(self) -> int:
        """The number of the simulator's one RNG draw convention.

        Every stochastic hardware draw is keyed by (seed, purpose,
        window) (:mod:`repro.hw.substream`), with PEBS drawn as
        geometric gaps over each window's miss stream.  Its bits match
        neither retired convention (1: sequential streams, 2: per-entry
        keyed thinning), hence 3.  Read-only: there is nothing to pick.
        """
        return 3

    @property
    def num_tiers(self) -> int:
        return self.topology.num_tiers

    def tier_specs(self) -> "List[TierSpec]":
        """Effective per-tier specs, fastest first.

        Compression latency is folded into the affected tiers' specs;
        an uncompressed tier's spec is its :class:`TierDef`'s own object
        (``DRAM_SPEC``/``CXL_SPEC`` on the default pair).
        """
        return self.topology.effective_specs()

    def slow_capacity(self, footprint_pages: int) -> int:
        return int(math.ceil(footprint_pages * max(self.slow_slack, 1.0)))

    def tier_capacities(self, footprint_pages: int, ratio: str) -> "List[int]":
        """Per-tier capacities in pages for a ratio string.

        Tier 0 takes its ratio fraction (at least one page), the bottom
        tier always holds the whole footprint scaled by ``slow_slack``.
        Intermediate tiers take their ratio fractions and may be
        zero-capacity.  A ratio with fewer parts than tiers is padded by
        repeating its last part ("1:4" on three tiers reads as "1:4:4"),
        so two-tier ratio strings remain usable on any topology; one
        with more parts than tiers is rejected.
        """
        n = self.num_tiers
        parts = _split_ratio(ratio)
        if len(parts) > n:
            raise ValueError(
                f"ratio {ratio!r} has {len(parts)} parts but the topology has {n} tiers"
            )
        parts = parts + [parts[-1]] * (n - len(parts))
        total = 0.0
        for p in parts:
            total += p
        caps = []
        for i in range(n - 1):
            frac = parts[i] / total
            cap = int(math.ceil(footprint_pages * frac))
            caps.append(max(cap, 1) if i == 0 else cap)
        caps.append(self.slow_capacity(footprint_pages))
        return caps

    @property
    def demotion_mode(self) -> str:
        """Multi-hop demotion routing ("through" cascades, "direct" skips)."""
        return self.topology.demotion

    def with_(self, **kwargs) -> "MachineConfig":
        """A modified copy (frozen-dataclass convenience)."""
        return replace(self, **kwargs)

    def migration_cycles(self, pages_4k: int = 0, huge_pages: int = 0) -> float:
        """Cycles consumed migrating the given page counts."""
        us = (
            pages_4k * (self.migration.page_fixed_us + self.migration.page_copy_us)
            + huge_pages * self.migration.huge_fixed_us
            + huge_pages * 512 * self.migration.huge_copy_us_per_4k
        )
        return us * 1_000.0 * self.freq_ghz
