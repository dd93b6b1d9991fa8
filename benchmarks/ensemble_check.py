"""Seed-ensemble equivalence check between two campaign result stores.

Bit-identity checks (golden digests, ``results_digest``) can only say
"unchanged".  This script judges a change that keeps the model's law
but not its bits -- a new RNG draw, a solver rewrite -- by comparing the
*distributions* two stores produced over the same grid of seeds.

Usage::

    python benchmarks/ensemble_check.py STORE_A STORE_B

Each STORE is a ``repro campaign`` cache directory (or its
``results.sqlite``).  Build both from the same grid, each in its own
directory, for example::

    python -m repro campaign --workloads <all 13> --policies <all 9> \\
        --ratios 1:4 --seeds 0 1 ... 15 --work 2000000 --jobs 2 \\
        --cache-dir STORE

The script reads the ``results`` table directly (the fingerprint and
result JSON of every row), so stores written by different commits --
different cache versions -- compare fine.  A store must hold one
*setting* (every fingerprint field outside the grid: version, machine
config, contender, window cap, trace flag) and one parameter set per
(workload, policy, ratio) cell; a store that mixes either is refused
(exit 2), since its seeds could not be told apart.  Cells are paired
across the stores by (workload, policy, ratio), and every fingerprint
field that differs between the two stores is printed.  Per cell it runs
a two-sided Mann-Whitney U test on slowdown and on promotions across
seeds, and Holm-corrects the p-values across all cells and both
metrics.  A run's slowdown is measured against the same store's ideal
run of that workload and seed.  It also reports ``|delta mean
slowdown| / seed SD`` per cell (the SD is pooled over both sides).
Exit status 1 means at least one cell differs at family-wise level
``ALPHA``; 0 means no cell does.
"""

from __future__ import annotations

import argparse
import json
import math
import sqlite3
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import stats

#: Family-wise significance level of the verdict.
ALPHA = 0.05

#: Rows printed besides the flagged ones, largest effect first.
TOP = 10

#: Fingerprint fields that place a run in the grid; every other field
#: belongs to the store's setting.
GRID_FIELDS = ("kind", "workload", "policy", "ratio", "seed")

#: (workload, policy, ratio)
Cell = Tuple[str, str, str]


class StoreError(ValueError):
    """A store whose runs of one cell and seed cannot be told apart."""


@dataclass
class CellSamples:
    """Per-seed slowdowns and promotions of one cell in one store."""

    #: The cell's workload and policy descriptors.
    params: dict
    slowdown: Dict[int, float] = field(default_factory=dict)
    promoted: Dict[int, float] = field(default_factory=dict)


@dataclass
class Store:
    """One campaign store: the setting its runs share, and its cells."""

    setting: dict
    cells: Dict[Cell, CellSamples]


@dataclass
class CellVerdict:
    cell: Cell
    seeds: int
    mean_a: float
    mean_b: float
    effect: float
    p_slowdown: float
    p_promoted: float
    adj_slowdown: float = 1.0
    adj_promoted: float = 1.0

    @property
    def flagged(self) -> bool:
        return min(self.adj_slowdown, self.adj_promoted) < ALPHA


def differences(a, b, path: str = "") -> List[str]:
    """``field: a -> b`` for every leaf where two JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for key in sorted(set(a) | set(b)):
            out += differences(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        return out
    return [] if a == b else [f"{path}: {a!r} -> {b!r}"]


def _db_path(store: str) -> Path:
    path = Path(store)
    return path / "results.sqlite" if path.is_dir() else path


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_store(store: str) -> Store:
    """A store's setting and policy cells, with slowdowns against its
    ideal runs.  Raises :class:`StoreError` when the store mixes
    settings or holds two parameter sets of one cell."""
    con = sqlite3.connect(str(_db_path(store)))
    try:
        rows = con.execute("SELECT fingerprint, result FROM results").fetchall()
    finally:
        con.close()
    setting = None
    ideal: Dict[Tuple[str, int], float] = {}
    runs: List[Tuple[dict, dict]] = []
    for fp_blob, result_blob in rows:
        if fp_blob is None:
            continue
        fp = json.loads(fp_blob)
        run_setting = {k: v for k, v in fp.items() if k not in GRID_FIELDS}
        if setting is None:
            setting = run_setting
        elif run_setting != setting:
            raise StoreError(
                f"{store} mixes settings ({'; '.join(differences(setting, run_setting))}); "
                "build each side in its own --cache-dir"
            )
        result = json.loads(result_blob)
        if fp["kind"] == "ideal":
            ideal[(_canon(fp["workload"]), int(fp["seed"]))] = float(result["runtime_cycles"])
        elif fp["kind"] == "policy":
            runs.append((fp, result))
    cells: Dict[Cell, CellSamples] = {}
    for fp, result in runs:
        cell = (fp["workload"]["name"], fp["policy"]["name"], fp["ratio"])
        params = {"workload": fp["workload"], "policy": fp["policy"]}
        samples = cells.setdefault(cell, CellSamples(params))
        if params != samples.params:
            raise StoreError(
                f"{store} holds two parameter sets of {'/'.join(cell)} "
                f"({'; '.join(differences(samples.params, params))})"
            )
        seed = int(fp["seed"])
        base = ideal.get((_canon(fp["workload"]), seed))
        if base is None or base <= 0.0:
            continue
        samples.slowdown[seed] = float(result["runtime_cycles"]) / base - 1.0
        samples.promoted[seed] = float(result["promoted"])
    return Store(setting or {}, cells)


def mann_whitney_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney U p-value; 1.0 when every value ties."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        return 1.0
    if np.ptp(np.concatenate([a, b])) == 0.0:
        return 1.0
    return float(stats.mannwhitneyu(a, b, alternative="two-sided").pvalue)


def holm(pvalues: Sequence[float]) -> List[float]:
    """Holm step-down adjusted p-values, in input order."""
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, min(1.0, (m - rank) * p[i]))
        adjusted[i] = running
    return adjusted.tolist()


def compare(
    cells_a: Dict[Cell, CellSamples], cells_b: Dict[Cell, CellSamples]
) -> List[CellVerdict]:
    """Per-cell verdicts over the cells both stores hold, Holm-adjusted."""
    verdicts: List[CellVerdict] = []
    for cell in sorted(set(cells_a) & set(cells_b)):
        a, b = cells_a[cell], cells_b[cell]
        sd_a = list(a.slowdown.values())
        sd_b = list(b.slowdown.values())
        mean_a = float(np.mean(sd_a))
        mean_b = float(np.mean(sd_b))
        var = 0.5 * (
            (np.var(sd_a, ddof=1) if len(sd_a) > 1 else 0.0)
            + (np.var(sd_b, ddof=1) if len(sd_b) > 1 else 0.0)
        )
        gap = abs(mean_a - mean_b)
        effect = gap / math.sqrt(var) if var > 0.0 else (0.0 if gap == 0.0 else math.inf)
        verdicts.append(
            CellVerdict(
                cell=cell,
                seeds=min(len(sd_a), len(sd_b)),
                mean_a=mean_a,
                mean_b=mean_b,
                effect=effect,
                p_slowdown=mann_whitney_p(sd_a, sd_b),
                p_promoted=mann_whitney_p(list(a.promoted.values()), list(b.promoted.values())),
            )
        )
    adjusted = holm([v.p_slowdown for v in verdicts] + [v.p_promoted for v in verdicts])
    n = len(verdicts)
    for i, v in enumerate(verdicts):
        v.adj_slowdown = adjusted[i]
        v.adj_promoted = adjusted[n + i]
    return verdicts


def store_differences(a: Store, b: Store) -> List[str]:
    """Every fingerprint field that differs between two stores' paired cells."""
    diffs = differences(a.setting, b.setting)
    for cell in sorted(set(a.cells) & set(b.cells)):
        for d in differences(a.cells[cell].params, b.cells[cell].params):
            if d not in diffs:
                diffs.append(d)
    return diffs


def report(verdicts: List[CellVerdict]) -> str:
    flagged = [v for v in verdicts if v.flagged]
    lines = [
        f"{len(verdicts)} paired cells, {2 * len(verdicts)} tests "
        f"(Mann-Whitney, Holm, alpha {ALPHA}): {len(flagged)} cells flagged",
    ]
    if verdicts:
        worst = min(verdicts, key=lambda v: min(v.adj_slowdown, v.adj_promoted))
        biggest = max(verdicts, key=lambda v: v.effect)
        lines.append(
            f"smallest adjusted p {min(worst.adj_slowdown, worst.adj_promoted):.3g} "
            f"({'/'.join(worst.cell)}); largest |dmean|/SD {biggest.effect:.2f} "
            f"({'/'.join(biggest.cell)})"
        )
    others = sorted((v for v in verdicts if not v.flagged), key=lambda v: -v.effect)
    lines.append(
        f"{'workload/policy/ratio':34s} {'n':>3s} {'mean A':>9s} {'mean B':>9s} "
        f"{'|d|/SD':>7s} {'adj p slow':>10s} {'adj p prom':>10s}"
    )
    for v in sorted(flagged, key=lambda v: -v.effect) + others[:TOP]:
        mark = "  FLAG" if v.flagged else ""
        lines.append(
            f"{'/'.join(v.cell):34s} {v.seeds:3d} {v.mean_a:9.4f} {v.mean_b:9.4f} "
            f"{v.effect:7.2f} {v.adj_slowdown:10.3g} {v.adj_promoted:10.3g}{mark}"
        )
    lines.append("verdict: " + ("DIFFERENT" if flagged else "equivalent"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("store_a")
    parser.add_argument("store_b")
    args = parser.parse_args(argv)
    try:
        a, b = load_store(args.store_a), load_store(args.store_b)
    except StoreError as exc:
        print(f"error: {exc}")
        return 2
    verdicts = compare(a.cells, b.cells)
    if not verdicts:
        print("no paired cells: do the stores hold the same grid?")
        return 2
    print("fingerprint differences A -> B: " + ("; ".join(store_differences(a, b)) or "none"))
    print(report(verdicts))
    return 1 if any(v.flagged for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
