"""The contract between the simulated kernel and a tiering policy.

Once per sampling window the machine hands the policy an
:class:`Observation` -- exactly the information a real tiering system
can see: perf-counter deltas, TOR-derived per-tier MLP, PEBS samples,
page-table placement, LRU state, and (for hint-fault-driven designs)
which slow-tier pages faulted.  The policy answers with a
:class:`Decision`: pages to promote and demote this window.

Policies must not reach into :mod:`repro.hw.stall` ground truth; the
test suite enforces the boundary by validating PACT's estimates against
ground truth rather than letting the policy consume it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hw.pebs import PebsBatch
from repro.hw.perf import PerfDelta
from repro.mem.page import Tier
from repro.mem.tiered import TieredMemory


def no_pages() -> np.ndarray:
    """An empty page-id array (the usual 'no migration' answer)."""
    return np.empty(0, dtype=np.int64)


@dataclass
class Observation:
    """Everything a policy may see about one sampling window.

    Per-tier signals (here and in :attr:`perf`) are lists indexed by
    tier code, 0 the fastest tier; every tier of the run has an entry.
    """

    window: int
    #: Duration of the window in cycles (elapsed time signal).
    window_cycles: float
    #: Perf-counter deltas over the window (LLC misses, stalls, bytes).
    perf: PerfDelta
    #: Per-tier MLP recovered from TOR counter deltas (dT1/dT2).
    tor_mlp: List[float]
    #: PEBS records for this window (slow-tier loads by default).
    pebs: PebsBatch
    #: Kernel-visible memory state: placement, occupancy, capacities,
    #: and the LRU state (page activity and arrival order) reclaim reads.
    memory: TieredMemory
    #: Raw TOR counter deltas (T1 = occupancy integral, T2 = busy cycles),
    #: so policies aggregating over longer sampling periods can recompute
    #: MLP from summed deltas instead of averaging per-window ratios.
    tor_occupancy_delta: List[float] = field(default_factory=list)
    tor_busy_delta: List[float] = field(default_factory=list)
    #: Slow-tier pages touched this window (what NUMA hint faults see).
    touched_slow: np.ndarray = field(default_factory=no_pages)
    #: Fast-tier pages touched this window (page-table scan visibility).
    touched_fast: np.ndarray = field(default_factory=no_pages)
    #: Workload progress fraction, for trace labelling only.
    progress: float = 0.0
    #: Number of tiers in the (effective) hierarchy this run.
    num_tiers: int = 2

    @property
    def lower_tiers(self) -> range:
        """Tier codes below tier 0, nearest first (just 1 on two tiers)."""
        return range(1, self.num_tiers)

    def lower_misses(self) -> float:
        """Total LLC misses served by tiers below tier 0 this window.

        Ordered accumulation from 0.0, so on two tiers this is exactly
        ``perf.llc_misses[Tier.SLOW]``.
        """
        total = 0.0
        for tier in self.lower_tiers:
            total += self.perf.llc_misses[tier]
        return total

    def lower_latency_cycles(self) -> float:
        """Miss-weighted effective latency of the lower tiers.

        With a single lower tier this short-circuits to that tier's
        latency exactly (no multiply/divide round-trip); with several it
        weights each tier's loaded latency by its miss share.
        """
        lower = self.lower_tiers
        if len(lower) == 1:
            return self.perf.effective_latency_cycles[lower[0]]
        weighted = 0.0
        misses = 0.0
        for tier in lower:
            m = self.perf.llc_misses[tier]
            weighted += self.perf.effective_latency_cycles[tier] * m
            misses += m
        if misses <= 0.0:
            return self.perf.effective_latency_cycles[lower[0]]
        return weighted / misses

    def lower_mlp(self) -> float:
        """MLP of the nearest lower tier (the paper's CXL-link MLP)."""
        return self.tor_mlp[1]


@dataclass
class Decision:
    """Migration orders for one window."""

    promote: np.ndarray = field(default_factory=no_pages)
    demote: np.ndarray = field(default_factory=no_pages)
    #: Ask the kernel to demote this many extra LRU victims first
    #: (eager-demotion style space reservation).
    demote_lru: int = 0
    #: How reclaim picks those victims:
    #: * ``"cold"``     -- only genuinely inactive pages (kernel LRU
    #:   inactive-list semantics; a constantly-touched page is immune),
    #: * ``"lru_tail"`` -- coldest-first but with no activity floor
    #:   (aggressive watermark reclaim),
    #: * ``"fifo"``     -- physical LRU-list arrival order, hot pages
    #:   included (simple watermark walkers; the source of promotion/
    #:   demotion ping-pong).
    demote_victim_mode: str = "cold"

    @staticmethod
    def none() -> "Decision":
        return Decision()

    @property
    def empty(self) -> bool:
        return self.promote.size == 0 and self.demote.size == 0 and self.demote_lru == 0


class TieringPolicy(abc.ABC):
    """Base class for all tiering systems (PACT and the baselines)."""

    #: Display name used in benches and result tables.
    name: str = "policy"

    #: True when migrations happen in the application's critical path
    #: (hint-fault designs); False for background migration threads.
    synchronous_migration: bool = True

    #: Tier preferred by first-touch allocation under this policy.
    alloc_prefer: int = Tier.FAST

    #: Whether this policy wants fast-tier PEBS samples too.
    sample_fast_tier: bool = False

    #: Whether this policy consumes PEBS samples at all.  Policies that
    #: do not (NoTier, hint-fault-only designs) skip PEBS entirely and
    #: pay no sampling overhead.
    needs_pebs: bool = True

    #: Request per-record exposed-latency reporting from PEBS
    #: (Sapphire-Rapids TPEBS; used by latency-weighted attribution).
    wants_pebs_latency: bool = False

    #: Whether this policy reads ``Observation.touched_slow`` /
    #: ``touched_fast`` (hint-fault and page-table-scan designs: NBT,
    #: Nomad, TPP).  The machine builds the sorted touched-page set (one
    #: sort of the window's trace entries, about 0.1 ms per 12k entries)
    #: only for policies that declare ``True``; the others see empty sets.
    #: Defaults to ``True`` (safe).
    needs_touched_pages: bool = True

    #: Access-sampling backend: "pebs" (host event sampling) or "chmu"
    #: (CXL 3.2 controller-side hotness monitoring, §4.3.5).
    access_sampler: str = "pebs"

    #: Declares that page placement never changes after preallocation:
    #: ``observe`` always returns an empty :class:`Decision` and the
    #: policy never drives the migration engine.  Static runs under a
    #: replayed trace let the machine pre-split every window's traffic
    #: for the whole run up front (:mod:`repro.hw.drawplan`).  Page
    #: activity feeds only reclaim, which a static run never issues, so
    #: the machine also skips the per-window activity touch.  It
    #: hard-fails if a policy declaring this ever migrates a page.
    #: Defaults to ``False``.
    static_placement: bool = False

    #: Scales the engine's migration cost for this policy (transactional
    #: double-copy designs pay more than a plain ``move_pages()``).
    migration_cost_multiplier: float = 1.0

    def attach(self, machine) -> None:
        """Called once before the run; override to inspect the machine
        configuration (THP mode, tier specs, window length)."""

    def placement_plan(self, workload, memory: TieredMemory) -> Optional[np.ndarray]:
        """Optional static placement: page ids in fast-tier priority order.

        Profiling-driven allocators (Soar) return a full ordering here;
        the machine fills the fast tier from its head.  Return ``None``
        (the default) for first-touch allocation in the workload's
        allocation order.
        """
        return None

    @abc.abstractmethod
    def observe(self, obs: Observation) -> Decision:
        """Consume one window's observation and return migration orders."""

    def debug_info(self) -> Dict[str, float]:
        """Optional per-window internals surfaced into run traces."""
        return {}

    def window_overhead_cycles(self, obs: Observation) -> float:
        """Extra critical-path cycles this policy imposes per window
        beyond migration cost (page-protection faults, shadow upkeep).
        Charged synchronously to the window's duration."""
        return 0.0

    def on_migration(self, outcome) -> None:
        """Feedback after the engine applies a decision: which pages
        actually moved (orders can be clipped by capacity or by victim
        eligibility).  Override to maintain placement-dependent state."""


class NoTierPolicy(TieringPolicy):
    """First-touch placement with no migration (the paper's NoTier)."""

    name = "NoTier"
    synchronous_migration = False
    needs_pebs = False
    needs_touched_pages = False
    static_placement = True

    def observe(self, obs: Observation) -> Decision:  # noqa: ARG002
        return Decision.none()


class SlowOnlyPolicy(TieringPolicy):
    """Allocate everything on the slow tier (the paper's 'CXL' line)."""

    name = "CXL"
    synchronous_migration = False
    alloc_prefer = Tier.SLOW
    needs_pebs = False
    needs_touched_pages = False
    static_placement = True

    def observe(self, obs: Observation) -> Decision:  # noqa: ARG002
        return Decision.none()
