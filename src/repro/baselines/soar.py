"""Soar: offline profiling-driven object placement (Liu et al., OSDI '25).

Soar profiles a workload offline, scores each *object* (allocation) by
amortized offcore latency -- criticality per unit size -- and statically
places the highest-density objects in the fast tier before the run.  No
runtime migration happens at all.  Its strengths and weaknesses in the
paper (§5.4) both come from this design: with representative profiling
it beats online systems on stable workloads (603.bwaves, bc-urand,
sssp-kron), but a single huge object whose criticality cannot be split
(bc-kron's ~16GB edge structure) wastes its budget, and it cannot adapt
to phase changes.

The profiling pass here uses only policy-visible signals: it replays the
workload pinned to the slow tier, attributes Equation-1 stall estimates
to pages via PEBS samples, and aggregates them per object.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.pac import PacModelCoefficients, attribute_stalls
from repro.mem.page import Tier
from repro.mem.tiered import TieredMemory
from repro.sim.policy_api import Decision, Observation, TieringPolicy
from repro.workloads.base import Workload


class _ObjectProfiler(TieringPolicy):
    """Collects per-page attributed stalls during the profiling run."""

    name = "soar-profiler"
    synchronous_migration = False
    needs_touched_pages = False  # reads only PEBS and lower-tier counters

    def __init__(self, footprint_pages: int, coefficients: PacModelCoefficients):
        self.page_stalls = np.zeros(footprint_pages, dtype=float)
        self.coefficients = coefficients

    def observe(self, obs: Observation) -> Decision:
        misses = obs.lower_misses()
        mlp = obs.lower_mlp()
        if misses > 0 and obs.pebs.pages.size:
            stalls = self.coefficients.tier_stalls(misses, mlp)
            attributed = attribute_stalls(stalls, obs.pebs.counts)
            np.add.at(self.page_stalls, obs.pebs.pages, attributed)
        return Decision.none()


class SoarPolicy(TieringPolicy):
    """Static object placement from an offline criticality profile."""

    name = "Soar"
    synchronous_migration = False
    needs_pebs = False  # nothing sampled during the measured run
    needs_touched_pages = False
    static_placement = True  # placement fixed by the offline plan

    def __init__(
        self,
        profile: Optional[Dict[str, float]] = None,
        profile_windows: int = 60,
        seed: int = 29,
    ):
        #: Object name -> criticality density (stall cycles per page).
        #: When None, a profiling run is performed at placement time.
        self._profile = profile
        self.profile_windows = profile_windows
        self._seed = seed
        self._machine = None

    def attach(self, machine) -> None:
        self._machine = machine

    def placement_plan(self, workload: Workload, memory: TieredMemory) -> np.ndarray:
        if self._profile is None:
            self._profile = self.profile_offline(workload)
        # Greedy whole-object packing: highest criticality density first,
        # but an object only goes to the fast tier if it fits *entirely*
        # (objects are placement-indivisible in Soar -- the source of its
        # bc-kron weakness, where one huge critical object cannot fit).
        ranked = sorted(
            workload.objects,
            key=lambda region: self._profile.get(region.name, 0.0),
            reverse=True,
        )
        budget = memory.capacity[Tier.FAST]
        chosen, skipped = [], []
        split_done = False
        for region in ranked:
            if region.num_pages <= budget:
                chosen.append(region.pages())
                budget -= region.num_pages
            elif not split_done and budget > 0:
                # The first object that does not fit is placed head-first
                # up to the remaining capacity; object-level scoring
                # cannot tell which of its pages matter (§5.4's bc-kron
                # case: one huge critical object dilutes the ranking).
                pages = region.pages()
                chosen.append(pages[:budget])
                skipped.append(pages[budget:])
                budget = 0
                split_done = True
            else:
                skipped.append(region.pages())
        parts = chosen + skipped
        plan = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if plan.size != workload.footprint_pages:
            missing = np.setdiff1d(
                np.arange(workload.footprint_pages, dtype=np.int64), plan, assume_unique=True
            )
            plan = np.concatenate([plan, missing])
        return plan

    def profile_offline(self, workload: Workload) -> Dict[str, float]:
        """Run the slow-tier profiling pass and score each object."""
        from repro.sim.machine import Machine  # deferred: avoids cycle

        # Equation 1 models the nearest lower tier of the machine Soar
        # places for, as PACT's does.
        attached = self._machine
        coefficients = PacModelCoefficients.default_for(attached.stall_model.spec[1])
        profiler = _ObjectProfiler(workload.footprint_pages, coefficients)
        machine = Machine(
            workload=workload,
            policy=profiler,
            config=attached.config,
            fast_capacity_override=0,
            seed=self._seed,
        )
        machine.run(max_windows=self.profile_windows)
        profile: Dict[str, float] = {}
        for region in workload.objects:
            total = float(profiler.page_stalls[region.start_page : region.end_page].sum())
            profile[region.name] = total / region.num_pages
        # The profiling pass consumed the workload; rewind for the
        # measured run (offline profiling uses a separate execution).
        workload.reset()
        return profile

    def observe(self, obs: Observation) -> Decision:  # noqa: ARG002
        return Decision.none()

