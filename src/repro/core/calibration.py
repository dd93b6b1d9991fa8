"""Offline calibration of the Equation-1 coefficient ``k``.

The paper fits ``k`` per hardware configuration from counter traces
(§4.2.1): it captures loaded latency, memory-controller queueing, and
architectural constants, and is strongly workload-independent.  The
calibrator here replays a set of workloads entirely on one tier,
collects per-window (LLC-misses / MLP, stall-cycles) points from the
*counters* (never ground truth), and fits the least-squares slope
through the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.pac import PacModelCoefficients, fit_k
from repro.mem.page import Tier
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import Decision, Observation, TieringPolicy
from repro.workloads.base import Workload


@dataclass
class CalibrationPoint:
    """One observation interval of the calibration trace."""

    workload: str
    llc_misses: float
    mlp: float
    stall_cycles: float

    @property
    def misses_over_mlp(self) -> float:
        return self.llc_misses / self.mlp


class _CounterProbe(TieringPolicy):
    """A passive policy that records counter deltas and never migrates."""

    name = "probe"
    synchronous_migration = False
    needs_pebs = False
    needs_touched_pages = False

    def __init__(self, tier: int):
        self.tier = tier
        self.points: List[CalibrationPoint] = []
        self._workload_name = ""

    def attach(self, machine) -> None:
        self._workload_name = machine.workload.name

    def observe(self, obs: Observation) -> Decision:
        misses = obs.perf.llc_misses[self.tier]
        if misses > 0:
            self.points.append(
                CalibrationPoint(
                    workload=self._workload_name,
                    llc_misses=misses,
                    mlp=obs.tor_mlp[self.tier],
                    stall_cycles=obs.perf.stall_cycles[self.tier],
                )
            )
        return Decision.none()


def collect_points(
    workloads: Sequence[Workload],
    config: Optional[MachineConfig] = None,
    tier: int = Tier.SLOW,
    max_windows_each: int = 30,
    seed: int = 0,
) -> List[CalibrationPoint]:
    """Run workloads pinned to one tier and record counter points."""
    config = config if config is not None else MachineConfig()
    points: List[CalibrationPoint] = []
    for workload in workloads:
        probe = _CounterProbe(tier)
        fast_cap = workload.footprint_pages if tier == Tier.FAST else 0
        machine = Machine(
            workload=workload,
            policy=probe,
            config=config,
            fast_capacity_override=fast_cap,
            seed=seed,
        )
        machine.run(max_windows=max_windows_each)
        points.extend(probe.points)
    return points


def calibrate_k(
    workloads: Sequence[Workload],
    config: Optional[MachineConfig] = None,
    tier: int = Tier.SLOW,
    max_windows_each: int = 30,
    seed: int = 0,
) -> PacModelCoefficients:
    """Fit Equation 1's ``k`` for ``tier`` on the given workload set."""
    points = collect_points(workloads, config, tier, max_windows_each, seed)
    if not points:
        raise ValueError("calibration produced no observation points")
    k = fit_k(
        [p.misses_over_mlp for p in points],
        [p.stall_cycles for p in points],
    )
    return PacModelCoefficients(k_cycles=k)
