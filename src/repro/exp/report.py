"""Paper-shaped tables over :class:`ExperimentResult` grids.

The benches print three recurring shapes: policies x ratios for one
workload (Figures 4/5), workloads x policies at one ratio (Figure 6 and
the CLI ``bench`` subcommand), and promotion-count tables (Table 2).
These helpers render all three from an executed experiment so benches
declare *what* ran and reuse *how* it is reported.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.tables import format_count, format_table
from repro.exp.runner import ExperimentResult


def ratio_table(
    result: ExperimentResult,
    workload: str,
    policies: Sequence[str],
    ratios: Sequence[str],
    seed: int = 0,
    contender=None,
    slow_only_row: bool = True,
) -> str:
    """Slowdown rows per policy across ratios for one workload."""
    rows = []
    for policy in policies:
        rows.append(
            [policy]
            + [
                f"{result.slowdown(workload, policy, r, seed=seed, contender=contender):.3f}"
                for r in ratios
            ]
        )
    if slow_only_row:
        base = result.baseline(workload, seed=seed, contender=contender)
        cxl = result.slow_only(workload, seed=seed, contender=contender).slowdown(base)
        rows.append(["CXL (all-slow)"] + [f"{cxl:.3f}"] * len(ratios))
    return format_table(["policy"] + list(ratios), rows)


def workload_table(
    result: ExperimentResult,
    workloads: Sequence[str],
    policies: Sequence[str],
    ratio: str,
    seed: int = 0,
    contender=None,
    slow_only_col: bool = True,
) -> str:
    """Slowdown rows per workload across policies at one ratio."""
    rows = []
    for wname in workloads:
        row = [wname] + [
            f"{result.slowdown(wname, p, ratio, seed=seed, contender=contender):.3f}"
            for p in policies
        ]
        if slow_only_col:
            base = result.baseline(wname, seed=seed, contender=contender)
            row.append(
                f"{result.slow_only(wname, seed=seed, contender=contender).slowdown(base):.3f}"
            )
        rows.append(row)
    header = ["workload"] + list(policies) + (["CXL"] if slow_only_col else [])
    return format_table(header, rows)


def promotion_table(
    result: ExperimentResult,
    workload: str,
    policies: Sequence[str],
    ratios: Sequence[str],
    seed: int = 0,
    contender=None,
) -> str:
    """Promotion counts per policy across ratios (the Table-2 shape)."""
    rows = [
        [policy]
        + [
            format_count(
                result.promotions(workload, policy, r, seed=seed, contender=contender)
            )
            for r in ratios
        ]
        for policy in policies
    ]
    return format_table(["policy"] + list(ratios), rows)

