"""Nomad: non-exclusive tiering via transactional migration (OSDI '24).

Nomad promotes pages asynchronously and *transactionally*: the slow-tier
copy is retained as a shadow while the fast copy is installed, so a
migration can abort without stalling the application.  The costs this
design pays, which the paper's evaluation surfaces (§5.2: slowdowns
consistently above 100% on bc-kron, promotion counts of only 5K-32K):

* every promotion copies twice (populate + commit) and keeps shadow
  state, modelled as a migration-cost multiplier,
* shadow pages occupy slow-tier slots after promotion (non-exclusive
  placement), shrinking the effective capacity pool,
* under write traffic, in-flight transactions abort and retry, so the
  achieved promotion rate drops exactly when migration is most needed,
  leaving the hot set stranded on the slow tier.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import Tier
from repro.sim.policy_api import Decision, Observation, TieringPolicy


class NomadPolicy(TieringPolicy):
    """Conservative two-touch promotion with transactional overheads."""

    name = "Nomad"
    synchronous_migration = True  # copy traffic + shadow bookkeeping
    needs_pebs = False

    #: Cost multiplier for transactional double-copy migration.
    migration_cost_multiplier = 2.5

    def __init__(
        self,
        rate_limit_fraction: float = 0.004,
        abort_pressure_scale: float = 8.0,
        seed: int = 23,
    ):
        #: Promotion cap per window (fraction of fast capacity) before
        #: abort effects; Nomad is deliberately conservative.
        self.rate_limit_fraction = rate_limit_fraction
        #: How quickly fast-tier pressure inflates the abort rate.
        self.abort_pressure_scale = abort_pressure_scale
        self._rng = np.random.default_rng(seed)
        self._touched_last: np.ndarray = np.empty(0, dtype=np.int64)

    def attach(self, machine) -> None:
        self._touched_last = np.empty(0, dtype=np.int64)
        # Shadow copies + staging reserve a slice of the fast tier.
        machine.memory.capacity[Tier.FAST] = int(
            machine.memory.capacity[Tier.FAST] * 0.85
        )

    def observe(self, obs: Observation) -> Decision:
        touched = obs.touched_slow
        # Both are masked subsets of a sorted-unique touched set.
        promote = np.intersect1d(touched, self._touched_last, assume_unique=True)
        self._touched_last = touched
        if promote.size == 0:
            return Decision.none()
        limit = max(int(obs.memory.capacity[Tier.FAST] * self.rate_limit_fraction), 1)
        if promote.size > limit:
            promote = self._rng.choice(promote, size=limit, replace=False)
        # Transaction aborts: the fuller the fast tier, the more often a
        # migration loses the race with a concurrent write and retries.
        pressure = obs.memory.used[Tier.FAST] / max(obs.memory.capacity[Tier.FAST], 1)
        abort_prob = min(0.9, max(pressure - 0.5, 0.0) * self.abort_pressure_scale / 4.0)
        survived = promote[self._rng.random(promote.size) >= abort_prob]
        if survived.size == 0:
            return Decision.none()
        need = max(survived.size - obs.memory.free_pages(Tier.FAST), 0)
        return Decision(promote=survived, demote_lru=int(need), demote_victim_mode="lru_tail")

    #: Critical-path cycles per touched slow page and per touched fast
    #: page: Nomad write-protects pages to detect racing writes during
    #: transactional copies and services the resulting minor faults.
    protection_fault_cycles = 1800.0

    def window_overhead_cycles(self, obs: Observation) -> float:
        protected = obs.touched_slow.size + 0.25 * obs.touched_fast.size
        return protected * self.protection_fault_cycles
