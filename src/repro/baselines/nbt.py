"""NBT: Linux NUMA Balancing Tiering (upstream memory-tiering mode).

NUMA balancing unmaps a sliding window of pages each scan period; the
next access to an unmapped slow-tier page takes a hint fault.  A page is
promoted once it has faulted in two consecutive scan windows (the
``MPOL_F_MORON``-era two-touch filter), subject to a promotion-rate
limit.  Reclaim is watermark-driven from the fast-tier LRU tail.  The
net behaviour is aggressive recency chasing: good short-term working-set
capture, migration volumes an order of magnitude above PACT's
(Table 2), and degradation under fast-tier pressure.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import Tier
from repro.sim.policy_api import Decision, Observation, TieringPolicy


class NbtPolicy(TieringPolicy):
    """Two-touch hint-fault promotion with a rate limit."""

    name = "NBT"
    synchronous_migration = True
    needs_pebs = False

    #: Critical-path cost of one NUMA hint fault (trap + handler).
    hint_fault_cycles = 2000.0

    def __init__(
        self,
        scan_fraction: float = 0.5,
        rate_limit_fraction: float = 0.10,
        watermark: float = 0.98,
        seed: int = 17,
    ):
        #: Fraction of slow-tier touched pages the scanner unmaps/window.
        self.scan_fraction = scan_fraction
        #: Promotion cap per window, as a fraction of fast-tier capacity
        #: (models the kernel's MB/s promotion rate limit).
        self.rate_limit_fraction = rate_limit_fraction
        self.watermark = watermark
        self._rng = np.random.default_rng(seed)
        self._faulted_last: np.ndarray = np.empty(0, dtype=np.int64)

    def attach(self, machine) -> None:
        self._faulted_last = np.empty(0, dtype=np.int64)

    def observe(self, obs: Observation) -> Decision:
        touched = obs.touched_slow
        if touched.size == 0:
            self._faulted_last = np.empty(0, dtype=np.int64)
            return Decision.none()
        scanned = touched[self._rng.random(touched.size) < self.scan_fraction]
        # Two-touch: promote pages that also faulted in the last window.
        # Both are masked subsets of a sorted-unique touched set.
        promote = np.intersect1d(scanned, self._faulted_last, assume_unique=True)
        self._faulted_last = scanned
        limit = max(int(obs.memory.capacity[Tier.FAST] * self.rate_limit_fraction), 1)
        if promote.size > limit:
            promote = self._rng.choice(promote, size=limit, replace=False)
        if promote.size == 0:
            return Decision.none()
        capacity = obs.memory.capacity[Tier.FAST]
        used_after = obs.memory.used[Tier.FAST] + promote.size
        demote_lru = max(int(used_after - self.watermark * capacity), 0)
        return Decision(
            promote=promote,
            demote_lru=demote_lru,
            demote_victim_mode="lru_tail",
        )

    def window_overhead_cycles(self, obs: Observation) -> float:
        """The balancing scanner unmaps a window of pages each period;
        their next accesses trap in the application's critical path."""
        return self.scan_fraction * obs.touched_slow.size * self.hint_fault_cycles
