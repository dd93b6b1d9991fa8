"""Simulator-throughput regression harness (``python -m repro perf``).

Every paper figure is a sweep of hundreds of ``Machine.run()`` calls, so
simulator throughput is a first-class deliverable (the Mess framework,
arXiv:2405.10170, even reports it as a headline metric).  This harness
pins it down:

* a fixed suite of macro scenarios -- the three largest workloads
  (bc-kron, silo, gpt-2) under PACT, Memtis, and NoTier at the paper's
  1:4 ratio -- measured in **windows per second** (best of N repeats,
  observability off: the configuration the sweeps actually run in),
* one additional *profiled* repeat per scenario for a per-span wall-time
  breakdown through the existing :class:`~repro.obs.SpanProfiler`,
* a calibration microbenchmark (fixed numpy kernel) so throughput can
  be compared across machines of different speeds: regressions are
  judged on calibration-normalised ratios,
* a bit-identity guard: each scenario's ``runtime_cycles`` is recorded
  and must match the committed baseline exactly -- an optimisation that
  changes simulated results is a bug, not a speedup.

The committed baseline lives at ``benchmarks/perf_baseline.json``;
fresh reports are written to ``benchmarks/out/BENCH_perf.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import make_policy
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload

#: Report format version (bump when the JSON layout changes).
PERF_SCHEMA = 1

#: Default committed baseline and report locations.
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "perf_baseline.json")
DEFAULT_REPORT_PATH = os.path.join("benchmarks", "out", "BENCH_perf.json")

#: Repo-root copy of the report, committed so the perf trajectory is
#: tracked in-repo across PRs.
DEFAULT_ROOT_REPORT_PATH = "BENCH_perf.json"

#: Default on-disk location for the harness's recorded traffic traces.
DEFAULT_TRACE_DIR = os.path.join("benchmarks", ".cache", "traces")

#: Regression threshold: fail when calibration-normalised throughput
#: drops by more than this fraction vs the baseline.
DEFAULT_THRESHOLD = 0.3


@dataclass(frozen=True)
class PerfScenario:
    """One timed macro run: workload x policy at fixed work and seed."""

    name: str
    workload: str
    policy: str
    total_misses: int = 24_000_000
    ratio: str = "1:4"
    seed: int = 0

    def build_workload(self, trace_store=None):
        """The scenario's workload; replayed when a trace store is given."""
        workload = make_workload(self.workload, total_misses=self.total_misses)
        if trace_store is not None:
            workload = trace_store.replay(workload)
        return workload

    def build(self, trace_store=None) -> Machine:
        return Machine(
            workload=self.build_workload(trace_store),
            policy=make_policy(self.policy),
            config=MachineConfig(),
            ratio=self.ratio,
            seed=self.seed,
        )


@dataclass(frozen=True)
class MultiRunScenario:
    """One timed multi-run group: seeds x ratios of a (workload, policy).

    Models the shape campaign sweeps actually execute -- many runs of
    the same pair differing only in seed and capacity ratio -- so the
    harness times the lockstep :class:`~repro.sim.runbatch.MultiMachine`
    path when replaying and the serial live path when not.  Both paths
    produce bit-identical per-run results; ``run_runtime_cycles`` pins
    each member and ``runtime_cycles`` (their ordered sum) feeds the
    same baseline identity gate as the single-run scenarios.
    """

    name: str
    workload: str
    policy: str
    total_misses: int = 24_000_000
    seeds: "tuple[int, ...]" = (0, 1, 2)
    ratios: "tuple[str, ...]" = ("1:2", "1:4")

    def runs(self) -> "tuple[tuple[int, str], ...]":
        """Member (seed, ratio) pairs in fixed seed-major order."""
        return tuple((seed, ratio) for seed in self.seeds for ratio in self.ratios)

    def build_workload(self, trace_store=None):
        workload = make_workload(self.workload, total_misses=self.total_misses)
        if trace_store is not None:
            workload = trace_store.replay(workload)
        return workload

    def build_machines(self, trace_store=None, obs=None) -> List[Machine]:
        return [
            Machine(
                workload=self.build_workload(trace_store),
                policy=make_policy(self.policy),
                config=MachineConfig(),
                ratio=ratio,
                seed=seed,
                obs=obs,
            )
            for seed, ratio in self.runs()
        ]


SUITE: "tuple[PerfScenario, ...]" = tuple(
    PerfScenario(name=f"{label}-{policy.lower()}", workload=workload, policy=policy)
    for label, workload in (("graph", "bc-kron"), ("silo", "silo"), ("gpt2", "gpt-2"))
    for policy in ("PACT", "Memtis", "NoTier")
)

#: Multi-run additions to the suite: the acceptance-critical PACT case
#: and the heaviest dynamic baseline, each swept across seeds and
#: ratios, exercising the lockstep executor.
MULTI_SUITE: "tuple[MultiRunScenario, ...]" = (
    MultiRunScenario(name="graph-pact-multi", workload="bc-kron", policy="PACT"),
    MultiRunScenario(name="memtis-multi", workload="bc-kron", policy="Memtis"),
)

#: ``--quick`` subset: same scenario parameters, graph workload only
#: (the acceptance-critical PACT case plus both baselines for context,
#: and the multi-run grids that exercise the lockstep executor).
QUICK_NAMES = (
    "graph-pact",
    "graph-memtis",
    "graph-notier",
    "graph-pact-multi",
    "memtis-multi",
)


def scenarios(quick: bool = False) -> "tuple[object, ...]":
    full = SUITE + MULTI_SUITE
    if not quick:
        return full
    return tuple(s for s in full if s.name in QUICK_NAMES)


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed yardstick: fixed numpy kernel iterations per second.

    The kernel mixes the primitives the hot loop leans on (sort, unique,
    bincount, reductions) over fixed pseudo-random data, so the score
    moves with the host's effective numpy throughput.  Normalising
    windows/sec by this score makes baselines comparable across hosts
    (and across background load on the same host).
    """
    rng = np.random.default_rng(12345)
    pages = rng.integers(0, 1 << 15, size=200_000)
    values = rng.random(200_000)
    best = 0.0
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        for _ in range(5):
            uniq, inverse = np.unique(pages, return_inverse=True)
            sums = np.bincount(inverse, weights=values, minlength=uniq.size)
            order = np.argsort(values)
            _ = values[order[-64:]].sum() + sums.sum()
        dt = time.perf_counter() - t0
        best = max(best, 5.0 / dt)
    return best


def _cprofile_run(name: str, run_once, profile_dir: str) -> str:
    """Execute ``run_once()`` under cProfile; dump pstats + text summary.

    Writes ``<profile_dir>/<name>.pstats`` (binary, loadable with
    :mod:`pstats`/snakeviz) and a ``.txt`` sibling with the top
    cumulative entries, for hot-spot triage next to ``BENCH_perf.json``.
    Returns the pstats path.
    """
    import cProfile
    import io
    import pstats

    os.makedirs(profile_dir, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    run_once()
    profiler.disable()
    path = os.path.join(profile_dir, f"{name}.pstats")
    profiler.dump_stats(path)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(40)
    with open(os.path.join(profile_dir, f"{name}.txt"), "w") as fh:
        fh.write(stream.getvalue())
    return path


def run_scenario(
    scenario: PerfScenario,
    repeats: int = 2,
    profile: bool = True,
    trace_store=None,
    profile_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Time one scenario; best-of-``repeats`` plus a profiled extra run.

    The timed repeats run with observability off -- the configuration
    experiment sweeps use -- so the headline windows/sec reflects real
    sweep throughput.  The span breakdown comes from one additional run
    with the profiler enabled (observability never changes results).

    With ``trace_store`` the scenario replays its recorded traffic
    stream (:mod:`repro.workloads.tracestore`).  The stream is recorded
    up front so every timed repeat measures warm-cache replay -- the
    state sweeps actually run in, where one recording serves the whole
    policy grid.
    """
    if trace_store is not None:
        trace_store.ensure(
            make_workload(scenario.workload, total_misses=scenario.total_misses),
            200_000,
        )
    best_wps = 0.0
    best_wall = float("inf")
    windows = 0
    runtime_cycles = 0.0
    for _ in range(max(repeats, 1)):
        machine = scenario.build(trace_store)
        t0 = time.perf_counter()
        result = machine.run()
        wall = time.perf_counter() - t0
        windows = result.windows
        runtime_cycles = result.runtime_cycles
        if result.windows / wall > best_wps:
            best_wps = result.windows / wall
            best_wall = wall
    record: Dict[str, object] = {
        "workload": scenario.workload,
        "policy": scenario.policy,
        "total_misses": scenario.total_misses,
        "ratio": scenario.ratio,
        "seed": scenario.seed,
        "windows": windows,
        "windows_per_sec": best_wps,
        "wall_seconds": best_wall,
        "runtime_cycles": runtime_cycles,
    }
    if profile:
        obs = Observability(trace=False)
        machine = Machine(
            workload=scenario.build_workload(trace_store),
            policy=make_policy(scenario.policy),
            config=MachineConfig(),
            ratio=scenario.ratio,
            seed=scenario.seed,
            obs=obs,
        )
        profiled = machine.run()
        if profiled.runtime_cycles != runtime_cycles:
            raise AssertionError(
                f"{scenario.name}: observed run diverged from timed run "
                f"({profiled.runtime_cycles!r} != {runtime_cycles!r})"
            )
        record["spans"] = {
            label: {"seconds": t["seconds"], "calls": t["calls"]}
            for label, t in obs.timings().items()
        }
    if profile_dir is not None:
        record["cprofile"] = _cprofile_run(
            scenario.name,
            lambda: scenario.build(trace_store).run(),
            profile_dir,
        )
    return record


def run_multi_scenario(
    scenario: MultiRunScenario,
    repeats: int = 2,
    profile: bool = True,
    trace_store=None,
    profile_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Time one multi-run grid; best-of-``repeats`` plus a profiled leg.

    With ``trace_store`` the timed repeats run all members in lockstep
    through :class:`~repro.sim.runbatch.MultiMachine` (the configuration
    campaign sweeps use); without one, members run serially on live
    generators.  Either way each member's ``runtime_cycles`` is recorded
    in ``run_runtime_cycles`` and the profiled extra leg re-runs every
    member serially with observability on, asserting per-run equality --
    so a replay-mode report and a ``--no-replay`` report must agree on
    ``runtime_cycles`` exactly (the CI smoke leg checks precisely that).
    """
    from repro.sim.runbatch import MultiMachine

    if trace_store is not None:
        trace_store.ensure(
            make_workload(scenario.workload, total_misses=scenario.total_misses),
            200_000,
        )
    best_wps = 0.0
    best_wall = float("inf")
    windows = 0
    run_cycles: List[float] = []
    for _ in range(max(repeats, 1)):
        machines = scenario.build_machines(trace_store)
        t0 = time.perf_counter()
        if trace_store is not None:
            results = MultiMachine(machines).run()
        else:
            results = [machine.run() for machine in machines]
        wall = time.perf_counter() - t0
        windows = sum(result.windows for result in results)
        run_cycles = [result.runtime_cycles for result in results]
        if windows / wall > best_wps:
            best_wps = windows / wall
            best_wall = wall
    runtime_cycles = 0.0  # ordered left-fold: deterministic across modes
    for cycles in run_cycles:
        runtime_cycles += cycles
    record: Dict[str, object] = {
        "workload": scenario.workload,
        "policy": scenario.policy,
        "total_misses": scenario.total_misses,
        "seeds": list(scenario.seeds),
        "ratios": list(scenario.ratios),
        "runs": len(run_cycles),
        "windows": windows,
        "windows_per_sec": best_wps,
        "wall_seconds": best_wall,
        "runtime_cycles": runtime_cycles,
        "run_runtime_cycles": run_cycles,
    }
    if profile:
        spans: Dict[str, Dict[str, float]] = {}
        for (seed, ratio), expected in zip(scenario.runs(), run_cycles):
            obs = Observability(trace=False)
            machine = Machine(
                workload=scenario.build_workload(trace_store),
                policy=make_policy(scenario.policy),
                config=MachineConfig(),
                ratio=ratio,
                seed=seed,
                obs=obs,
            )
            profiled = machine.run()
            if profiled.runtime_cycles != expected:
                raise AssertionError(
                    f"{scenario.name} seed={seed} ratio={ratio}: serial observed "
                    f"run diverged from timed run "
                    f"({profiled.runtime_cycles!r} != {expected!r})"
                )
            for label, t in obs.timings().items():
                agg = spans.setdefault(label, {"seconds": 0.0, "calls": 0})
                agg["seconds"] += t["seconds"]
                agg["calls"] += t["calls"]
        record["spans"] = spans
    if profile_dir is not None:

        def _run_once():
            machines = scenario.build_machines(trace_store)
            if trace_store is not None:
                MultiMachine(machines).run()
            else:
                for machine in machines:
                    machine.run()

        record["cprofile"] = _cprofile_run(scenario.name, _run_once, profile_dir)
    return record


def run_suite(
    quick: bool = False,
    repeats: int = 2,
    profile: bool = True,
    progress=None,
    replay: bool = True,
    trace_dir: Optional[str] = DEFAULT_TRACE_DIR,
    profile_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the (quick or full) suite and return the report document.

    ``replay=True`` (the default, matching how sweeps run) records each
    scenario's traffic stream once into ``trace_dir`` and times replay;
    bit-identity of replay means ``runtime_cycles`` still guards against
    result drift either way.  Every scenario runs ``MachineConfig()``
    defaults, the configuration sweeps run in.
    """
    trace_store = None
    if replay:
        from repro.workloads.tracestore import TraceStore

        trace_store = TraceStore(trace_dir)
    report: Dict[str, object] = {
        "schema": PERF_SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "replay": replay,
        "calibration_ops_per_sec": calibration_score(),
        "scenarios": {},
    }
    for scenario in scenarios(quick):
        runner = (
            run_multi_scenario
            if isinstance(scenario, MultiRunScenario)
            else run_scenario
        )
        record = runner(
            scenario,
            repeats=repeats,
            profile=profile,
            trace_store=trace_store,
            profile_dir=profile_dir,
        )
        report["scenarios"][scenario.name] = record
        if progress is not None:
            progress(scenario.name, record)
    if trace_store is not None:
        report["trace_cache"] = trace_store.stats()
    return report


def compare(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Problems in ``current`` vs ``baseline``; empty list = pass.

    Two classes of failure:

    * **bit-identity**: a scenario's ``runtime_cycles`` differs from the
      baseline's (JSON round-trips IEEE doubles exactly, so equality is
      the right test) -- simulated results must not drift;
    * **regression**: calibration-normalised windows/sec dropped by more
      than ``threshold`` (fraction) vs the baseline.

    Scenarios missing from either side are skipped (``--quick`` runs a
    subset against the full committed baseline).
    """
    problems: List[str] = []
    cur_cal = float(current.get("calibration_ops_per_sec", 0.0))
    base_cal = float(baseline.get("calibration_ops_per_sec", 0.0))
    if cur_cal <= 0.0 or base_cal <= 0.0:
        problems.append("calibration score missing from report or baseline")
        return problems
    base_scenarios = baseline.get("scenarios", {})
    for name, cur in current.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if base is None:
            continue
        if cur["runtime_cycles"] != base["runtime_cycles"]:
            problems.append(
                f"{name}: runtime_cycles {cur['runtime_cycles']!r} != "
                f"baseline {base['runtime_cycles']!r} (results must be bit-identical)"
            )
        if "run_runtime_cycles" in cur and "run_runtime_cycles" in base:
            if list(cur["run_runtime_cycles"]) != list(base["run_runtime_cycles"]):
                problems.append(
                    f"{name}: per-run runtime_cycles differ from baseline "
                    f"(multi-run members must be bit-identical)"
                )
        cur_norm = float(cur["windows_per_sec"]) / cur_cal
        base_norm = float(base["windows_per_sec"]) / base_cal
        if base_norm > 0.0 and cur_norm < (1.0 - threshold) * base_norm:
            problems.append(
                f"{name}: normalised throughput {cur_norm / base_norm:.2f}x of baseline "
                f"(threshold {1.0 - threshold:.2f}x): "
                f"{cur['windows_per_sec']:.1f} win/s vs {base['windows_per_sec']:.1f} win/s"
            )
    return problems


def load_report(path: str) -> Optional[Dict[str, object]]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_report(report: Dict[str, object], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def span_rows(record: Dict[str, object]) -> List[List[str]]:
    """Per-span table rows (label, total wall ms, calls) for one scenario."""
    spans = record.get("spans") or {}
    rows = []
    for label in sorted(spans):
        t = spans[label]
        rows.append([label, f"{t['seconds'] * 1e3:.1f} ms", f"{int(t['calls'])}"])
    return rows


__all__ = [
    "PERF_SCHEMA",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_REPORT_PATH",
    "DEFAULT_ROOT_REPORT_PATH",
    "DEFAULT_TRACE_DIR",
    "DEFAULT_THRESHOLD",
    "PerfScenario",
    "MultiRunScenario",
    "SUITE",
    "MULTI_SUITE",
    "QUICK_NAMES",
    "scenarios",
    "calibration_score",
    "run_scenario",
    "run_multi_scenario",
    "run_suite",
    "compare",
    "load_report",
    "write_report",
    "span_rows",
]
