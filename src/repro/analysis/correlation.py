"""Model-fit analysis for the Figure 2 study.

Runs the workload corpus under each latency configuration, collects
(LLC-misses, MLP, stall) operating points from the counters, and
compares two predictors of LLC stalls:

* raw LLC-miss counts (the hotness world-view), and
* Equation 1, ``k * misses / MLP`` (the PAC model),

reporting the Pearson correlation of each against measured stalls.  The
paper finds r >= 0.98 for the model vs. 0.82-0.89 for raw misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.stats import pearson
from repro.common.units import TierSpec
from repro.core.calibration import CalibrationPoint, collect_points
from repro.core.pac import fit_k
from repro.mem.page import Tier
from repro.mem.topology import TierDef, TierTopology
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload


@dataclass
class ModelFitResult:
    """Fit quality of Equation 1 for one latency configuration."""

    config_name: str
    k_cycles: float
    pearson_model: float
    pearson_misses: float
    num_workloads: int
    num_points: int


def aggregate_per_workload(points: Sequence[CalibrationPoint]) -> List[CalibrationPoint]:
    """Sum per-window points into one operating point per workload,
    mirroring the paper's one-dot-per-workload presentation."""
    by_name = {}
    for p in points:
        acc = by_name.setdefault(
            p.workload,
            {"misses": 0.0, "stalls": 0.0, "misses_over_mlp": 0.0},
        )
        acc["misses"] += p.llc_misses
        acc["stalls"] += p.stall_cycles
        acc["misses_over_mlp"] += p.llc_misses / p.mlp
    out = []
    for name, acc in by_name.items():
        mlp = acc["misses"] / acc["misses_over_mlp"] if acc["misses_over_mlp"] > 0 else 1.0
        out.append(
            CalibrationPoint(
                workload=name,
                llc_misses=acc["misses"],
                mlp=mlp,
                stall_cycles=acc["stalls"],
            )
        )
    return out


def evaluate_stall_model(
    workloads: Sequence[Workload],
    spec: TierSpec,
    base_config: Optional[MachineConfig] = None,
    max_windows_each: int = 25,
    seed: int = 0,
) -> ModelFitResult:
    """Fit and score Equation 1 with the corpus pinned to a lower tier
    of latency configuration ``spec``, under the base config's tier 0."""
    base = base_config or MachineConfig()
    topology = TierTopology(tiers=(base.topology.tiers[0], TierDef(spec)))
    config = base.with_(topology=topology)
    raw_points = collect_points(
        workloads, config=config, tier=Tier.SLOW, max_windows_each=max_windows_each, seed=seed
    )
    points = aggregate_per_workload(raw_points)
    x_model = [p.misses_over_mlp for p in points]
    x_misses = [p.llc_misses for p in points]
    y = [p.stall_cycles for p in points]
    k = fit_k(x_model, y)
    return ModelFitResult(
        config_name=spec.name,
        k_cycles=k,
        pearson_model=pearson(x_model, y),
        pearson_misses=pearson(x_misses, y),
        num_workloads=len(points),
        num_points=len(raw_points),
    )
