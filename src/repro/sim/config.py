"""Machine configuration: tier specs, ratios, window and cost parameters.

There is no RNG switch: every stochastic hardware draw follows the one
counter-keyed convention of :mod:`repro.hw.substream`, and
:attr:`MachineConfig.rng_schema_effective` reports its number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.common.units import (
    CPU_FREQ_GHZ,
    CXL_SPEC,
    DEFAULT_WINDOW_MS,
    DRAM_SPEC,
    TierSpec,
)
from repro.hw.pebs import DEFAULT_PEBS_RATE
from repro.mem.topology import TierTopology

#: The fast:slow capacity ratios evaluated in the paper (§5.1).
PAPER_RATIOS = ("8:1", "4:1", "2:1", "1:1", "1:2", "1:4", "1:8")

def _split_ratio(ratio: str) -> List[float]:
    """Raw (unnormalised) parts of a colon-separated ratio string."""
    try:
        parts = [float(p) for p in ratio.split(":")]
    except (ValueError, AttributeError):
        raise ValueError(f"ratio must look like '1:4', got {ratio!r}") from None
    if len(parts) < 2:
        raise ValueError(f"ratio must look like '1:4', got {ratio!r}")
    if not all(math.isfinite(p) for p in parts):
        raise ValueError(f"ratio parts must be finite, got {ratio!r}")
    if len(parts) == 2:
        # Exact historical two-tier contract: both parts strictly positive.
        if parts[0] <= 0 or parts[1] <= 0:
            raise ValueError("ratio parts must be positive")
    else:
        # N-part ratios allow zero-capacity *middle* tiers ("1:0:4"
        # expresses an empty intermediate tier); the endpoints must
        # still be real tiers.
        if any(p < 0 for p in parts):
            raise ValueError("ratio parts must be positive")
        if parts[0] <= 0 or parts[-1] <= 0:
            raise ValueError("first and last ratio parts must be positive")
    return parts


def parse_ratio_parts(ratio: str) -> List[float]:
    """Per-tier capacity fractions for an N-part ratio string.

    ``"1:4"`` -> ``[0.2, 0.8]``; ``"1:4:16"`` -> ``[1/21, 4/21, 16/21]``.
    Two-part strings keep the exact historical parse (same rejection of
    non-finite and non-positive parts, same float arithmetic).
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

    fast_spec: TierSpec = DRAM_SPEC
    slow_spec: TierSpec = CXL_SPEC
    freq_ghz: float = CPU_FREQ_GHZ
    window_ms: float = DEFAULT_WINDOW_MS
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
    #: Optional N-tier topology.  ``None`` (the default) selects the
    #: legacy two-tier ``fast_spec``/``slow_spec`` pair; a topology that
    #: *is* exactly that pair is normalised back to ``None`` so the
    #: compatibility path (and its cache fingerprints) always applies.
    #: Omitted from cache fingerprints when ``None`` -- see
    #: ``_canonical_omit_none`` and :func:`repro.exp.cache.canonical`.
    topology: Optional[TierTopology] = None

    #: Fields :func:`repro.exp.cache.canonical` drops when ``None``, so
    #: default configs fingerprint exactly as they did before the field
    #: existed (pinned cache keys must survive the tier-graph refactor).
    _canonical_omit_none = ("topology",)

    def __post_init__(self) -> None:
        if self.topology is not None and self.topology.is_default_pair(
            self.fast_spec, self.slow_spec
        ):
            object.__setattr__(self, "topology", None)

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
        return 2 if self.topology is None else self.topology.num_tiers

    def tier_specs(self) -> "List[TierSpec]":
        """Effective per-tier specs, fastest first.

        For the default pair these are the ``fast_spec``/``slow_spec``
        objects themselves; for a topology, compression latency is
        folded into the affected tiers' specs.
        """
        if self.topology is None:
            return [self.fast_spec, self.slow_spec]
        return self.topology.effective_specs()

    def fast_capacity(self, footprint_pages: int, ratio: str) -> int:
        """Fast-tier capacity in pages for a paper-style ratio string."""
        frac = parse_ratio(ratio)
        return max(int(math.ceil(footprint_pages * frac)), 1)

    def slow_capacity(self, footprint_pages: int) -> int:
        return int(math.ceil(footprint_pages * max(self.slow_slack, 1.0)))

    def tier_capacities(self, footprint_pages: int, ratio: str) -> "List[int]":
        """Per-tier capacities in pages for a ratio string.

        Mirrors the two-tier contract exactly: tier 0 takes its ratio
        fraction (at least one page), the bottom tier always holds the
        whole footprint scaled by ``slow_slack``.  Intermediate tiers
        take their ratio fractions and may be zero-capacity.  A ratio
        with fewer parts than tiers is padded by repeating its last
        part ("1:4" on three tiers reads as "1:4:4"), so two-tier ratio
        strings remain usable on any topology.
        """
        n = self.num_tiers
        if n == 2:
            return [
                self.fast_capacity(footprint_pages, ratio),
                self.slow_capacity(footprint_pages),
            ]
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
        return "through" if self.topology is None else self.topology.demotion

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
