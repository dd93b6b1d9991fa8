#!/usr/bin/env python3
"""End-to-end sweep benchmark for the PACT reproduction.

Drives the public experiment API from outside -- ``ExperimentSpec`` ->
``CampaignDriver.run_specs`` -> ``SqliteResultStore`` -- the way a
researcher re-runs a figure's sweep, and reports host-time throughput
from spec to stored result:

    python3 perfbench/run.py --workload sweep-grid --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer timed.
``--trace 1`` alternates untraced passes with traced ones (the public
entry points of every layer wrapped by ``perfbench/tracer.py``) and
reports per-layer self times, their share of the traced wall, and the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when an output check fails, and without printing a
result when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Environment switches that select alternative execution paths.  They
#: are cleared before ``repro`` is imported, so the benchmark always
#: measures the shipped configuration.
PATH_SWITCHES = (
    "REPRO_RNG_SCHEMA",
    "REPRO_NO_DRAWPLAN",
    "REPRO_NO_MULTIRUN",
    "REPRO_NO_REPLAY",
    "REPRO_DEBUG_ACCOUNTING",
    "REPRO_JOBS",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_DIR",
)

WORKLOADS = ("sweep-grid", "long-runs", "policy-suite")

#: The CLI's default per-run budget (total LLC misses, ~48 windows).
DEFAULT_WORK = 12_000_000

#: long-runs: one workload/policy pair per run, so no siblings group.
LONG_PAIRS = (
    ("gpt-2", "PACT"),
    ("silo", "Memtis"),
    ("redis-ycsbc", "Colloid"),
    ("bc-urand", "NoTier"),
)

#: Cold passes per run at the least, whatever ``--seconds`` says: the
#: results digest has to repeat across passes.
MIN_PASSES = 2
#: Warm re-serve passes after each cold pass (each takes milliseconds).
WARM_PASSES = 5
#: Set-up repetitions and fresh-interpreter imports; medians reported.
SETUP_REPEATS = 3


def grids(workload: str, seed: int, scale: float) -> Tuple[List[dict], int]:
    """The workload's experiment grids and its driver's worker count.

    Every run uses ``MachineConfig()`` defaults; ``seed`` offsets every
    run seed and ``scale`` shrinks the per-run budgets (smoke test).
    """
    from repro.baselines import ALL_POLICIES
    from repro.workloads import ALL_WORKLOADS

    def work(misses: int) -> int:
        return max(250_000, int(misses * scale))

    if workload == "sweep-grid":
        return [
            dict(
                workloads=("bc-kron", "silo"),
                policies=("PACT", "Memtis", "Colloid", "NoTier"),
                ratios=("1:2", "1:4"),
                seeds=(seed, seed + 1),
                work=work(DEFAULT_WORK),
            )
        ], 1
    if workload == "long-runs":
        return [
            dict(
                workloads=(name,),
                policies=(policy,),
                ratios=("1:4",),
                seeds=(seed,),
                work=work(50_000_000),
            )
            for name, policy in LONG_PAIRS
        ], 1
    if workload == "policy-suite":
        return [
            dict(
                workloads=tuple(ALL_WORKLOADS),
                policies=tuple(ALL_POLICIES),
                ratios=("1:4",),
                seeds=(seed,),
                work=work(2_000_000),
            )
        ], min(2, len(os.sched_getaffinity(0)))
    raise ValueError(f"unknown workload {workload!r}")


def make_specs(grid_list: List[dict]):
    """Fresh specs, so every pass pays for its own workload descriptors."""
    from repro.exp.spec import ExperimentSpec, WorkloadSpec

    return [
        ExperimentSpec(
            workloads={
                name: WorkloadSpec.registry(name, total_misses=g["work"])
                for name in g["workloads"]
            },
            policies=list(g["policies"]),
            ratios=list(g["ratios"]),
            seeds=tuple(g["seeds"]),
        )
        for g in grid_list
    ]


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def import_seconds(repeats: int) -> float:
    """Median time to import the package in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); "
        "import repro, repro.exp.service, repro.exp.store, repro.workloads.tracestore; "
        "print(time.perf_counter() - t0)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def record_traces(grid_list: List[dict], work_dir: Path) -> float:
    """Record every stream the grids replay into an empty trace directory,
    make that store the process default, and open an empty result store.
    Returns the seconds taken."""
    from repro.exp.store import SqliteResultStore
    from repro.workloads import tracestore

    t0 = time.perf_counter()
    store = tracestore.set_default_trace_store(
        tracestore.TraceStore(tempfile.mkdtemp(prefix="traces-", dir=work_dir))
    )
    streams = set()
    for spec in make_specs(grid_list):
        for wspec in spec.workload_specs():
            ident = (json.dumps(wspec.descriptor(), sort_keys=True), spec.max_windows)
            if ident not in streams:
                streams.add(ident)
                store.ensure_spec(wspec.descriptor(), wspec.build, spec.max_windows)
    SqliteResultStore(tempfile.mkdtemp(prefix="store-", dir=work_dir)).close()
    elapsed = time.perf_counter() - t0
    if store.records != len(streams):
        raise RuntimeError(f"set-up recorded {store.records} of {len(streams)} streams")
    return elapsed


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    kind: str  # "cold" or "warm"
    wall: float
    result: object  # CampaignResult
    store_dir: Path
    path: Optional[dict] = None
    busy_seconds: Optional[float] = None
    jobs: int = 1

    @property
    def completed(self) -> int:
        return self.result.stats.unique_requests - self.result.stats.failed_requests

    @property
    def windows(self) -> int:
        return sum(run.windows for run in self.runs())

    def runs(self) -> list:
        """The results of every request that has one."""
        found = []
        for req in self.result.requests:
            try:
                found.append(self.result.result(req))
            except KeyError:
                pass
        return found


def cold_pass(grid_list, jobs: int, work_dir: Path, path_recorder) -> Pass:
    """Expand, simulate and store the whole grid into a fresh, empty store.

    The store is opened before the clock starts (its opening cost is
    part of ``setup_s``); closing it, which flushes, is timed.
    """
    from repro.exp.service import CampaignDriver
    from repro.exp.store import SqliteResultStore

    store = SqliteResultStore(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    path_recorder.reset()
    t0 = time.perf_counter()
    driver = CampaignDriver(jobs=jobs, store=store)
    try:
        result = driver.run_specs(make_specs(grid_list))
        pool = driver.pool
        busy = sum(w.busy_seconds for w in pool.workers) if pool is not None else None
    finally:
        driver.close()
        store.close()
    wall = time.perf_counter() - t0
    path = dict(jobs=jobs, **path_recorder.record())
    if jobs > 1:
        # Machines are built in the pool's workers, out of this
        # process's sight: only the grouping is observed here.
        path.update(attach_engaged=None, attach_calls=None)
    return Pass("cold", wall, result, store.directory, path, busy, jobs)


def warm_pass(grid_list, jobs: int, store_dir: Path) -> Pass:
    """Re-serve the grid from a cold pass's store, reopened with an empty
    in-process layer, as a second process re-running the sweep would."""
    from repro.exp.service import CampaignDriver
    from repro.exp.store import SqliteResultStore

    store = SqliteResultStore(store_dir)
    t0 = time.perf_counter()
    try:
        with CampaignDriver(jobs=jobs, store=store) as driver:
            result = driver.run_specs(make_specs(grid_list))
    finally:
        store.close()
    wall = time.perf_counter() - t0
    return Pass("warm", wall, result, store_dir, jobs=jobs)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def results_digest(p: Pass) -> str:
    """SHA-256 over (runtime_cycles, promoted, demoted, windows) per request."""
    rows = []
    for req in p.result.requests:
        run = p.result.result(req)
        rows.append(
            [req.display, repr(run.runtime_cycles), run.promoted, run.demoted, run.windows]
        )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Checks:
    def __init__(self) -> None:
        self.failures: List[str] = []
        self.digests: set = set()
        self.paths: set = set()

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def cold_then_warm(self, cold: Pass, warm: Pass) -> None:
        """Every check on one cold pass and the warm pass that followed it."""
        for p in (cold, warm):
            stats = p.result.stats
            for rec in p.result.failed:
                self.fail(f"{p.kind} pass: {rec.describe()}")
            if len(p.runs()) != len(p.result.requests):
                self.fail(f"{p.kind} pass: requests without a result")
                continue
            if stats.warmup_records or stats.re_records:
                self.fail(
                    f"{p.kind} pass recorded traces: warmup_records="
                    f"{stats.warmup_records} re_records={stats.re_records}"
                )
            self.digests.add(results_digest(p))
        if warm.result.stats.cache_hits != warm.result.stats.unique_requests:
            self.fail("warm pass re-simulated requests instead of serving them")
        if self.failures:
            return
        self._model_invariants(cold)
        self._model_invariants(warm)
        self._warm_matches_cold(cold, warm)
        self.paths.add(json.dumps(cold.path, sort_keys=True))

    def _model_invariants(self, p: Pass) -> None:
        from repro.exp.spec import KIND_POLICY

        res = p.result
        references = set()
        for req in res.requests:
            run = res.result(req)
            if sum(run.tier_misses.values()) != run.total_misses:
                self.fail(f"{req.display}: tier misses do not sum to total_misses")
            if req.kind != KIND_POLICY:
                references.add((req.workload.display, req.seed))
        for workload, seed in sorted(references):
            ideal = res.baseline(workload, seed=seed).runtime_cycles
            slow = res.slow_only(workload, seed=seed).runtime_cycles
            if not ideal <= slow:
                self.fail(f"{workload} seed={seed}: ideal {ideal} > slow-only {slow}")

    def _warm_matches_cold(self, cold: Pass, warm: Pass) -> None:
        from repro.exp.cache import result_to_dict

        pairs = zip(cold.result.requests, warm.result.requests)
        for c_req, w_req in pairs:
            if c_req.key != w_req.key or result_to_dict(
                cold.result.result(c_req)
            ) != result_to_dict(warm.result.result(w_req)):
                self.fail(f"{c_req.display}: warm result differs from the cold one")
                return

    def finish(self) -> bool:
        if len(self.digests) > 1:
            self.fail(f"results digest differs between passes: {sorted(self.digests)}")
        jobs = [json.loads(path)["jobs"] for path in self.paths]
        if len(jobs) != len(set(jobs)):
            self.fail(f"execution path differs between passes: {sorted(self.paths)}")
        return not self.failures


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(colds: List[Pass], warms: List[Pass], setup_s: float) -> Dict[str, float]:
    """Throughputs of the fastest pass: contention from other tenants of
    the host only ever slows a pass down, so the fastest pass is the
    steadiest estimate of what the code costs."""
    served = sum(p.completed for p in colds + warms)
    attempted = sum(p.result.stats.total_requests for p in colds + warms)
    return {
        "runs_per_s": max(p.completed / p.wall for p in colds),
        "windows_per_s": max(p.windows / p.wall for p in colds),
        "cached_requests_per_s": max(p.completed / p.wall for p in warms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "completed_fraction": served / attempted,
    }


def per_layer(names, known, traced, untraced_walls, record_s, colds):
    """The declared per-layer metrics, from the fastest traced (cold,
    warm, snapshot) triple, and that pair's share table.

    A name not computed here is a layer's self time (``<layer>_s``) or
    call count (``<layer>_calls``); ``known`` holds the layer names."""
    cold, warm, snap = min(traced, key=lambda t: t[0].wall + t[1].wall)
    wall = cold.wall + warm.wall
    self_s, incl_s, calls = snap["self_s"], snap["incl_s"], snap["calls"]
    path = cold.path
    stats = cold.result.stats
    pooled = [p for p in colds if p.busy_seconds is not None]
    if pooled:
        busy = max(p.busy_seconds / (p.jobs * p.wall) for p in pooled)
    else:
        busy = incl_s.get("exp.execute", 0.0) / cold.wall
    baselines = {k: v for k, v in self_s.items() if k.startswith("baselines.")}
    metrics = {
        "exp.cache_hit_ratio": stats.cache_hits / stats.unique_requests,
        "exp.lockstep_fraction": sum(path["lockstep_groups"]) / max(stats.executed, 1),
        "exp.lockstep_groups": len(path["lockstep_groups"]),
        "exp.worker_busy_fraction": busy,
        "exp.retries": sum(p.result.stats.retries for p in colds),
        "exp.re_records": sum(p.result.stats.re_records for p in colds),
        "exp.store_put_s": self_s.get("exp.store_put", 0.0) + self_s.get("exp.store_flush", 0.0),
        "workloads.record_s": record_s,
        "workloads.trace_lookup_s": self_s.get("workloads.trace", 0.0),
        "sim.construct_incl_s": incl_s.get("sim.construct", 0.0),
        "sim.pages_migrated": sum(run.promoted + run.demoted for run in cold.runs()),
        "hw.attach_incl_s": incl_s.get("hw.attach", 0.0),
        "hw.plans_engaged_fraction": path["attach_engaged"] / max(path["attach_calls"], 1),
        "baselines.observe_s": sum(baselines.values()),
        "baselines.observe_calls": sum(
            v for k, v in calls.items() if k.startswith("baselines.")
        ),
        "traced_wall_s": wall,
        "unattributed_s": wall - sum(self_s.values()),
        "tracing_overhead": wall / min(untraced_walls) - 1.0,
    }
    for name in names:
        for suffix, table in (("_s", self_s), ("_calls", calls)):
            layer = name[: -len(suffix)]
            if name not in metrics and name.endswith(suffix) and (
                layer in known or (layer.startswith("baselines.") and layer.endswith(".observe"))
            ):
                metrics[name] = table.get(layer, 0)
        if name not in metrics:
            raise KeyError(f"BENCHMARK.json declares {name!r}, which is not measured")
    shares = sorted(self_s.items(), key=lambda kv: -kv[1])
    shares.append(("unattributed", metrics["unattributed_s"]))
    return {name: metrics[name] for name in names}, [(k, v, v / wall) for k, v in shares]


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="offset of every run seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one eighth of the per-run budgets and single set-up samples",
    )
    return parser.parse_args(argv)


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it.

    Exits non-zero, printing no result, when the checkout holds no
    program, so the benchmark cannot silently measure another copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {SRC} (expected src/repro)")
    for name in PATH_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def measure(args, work_dir: Path) -> int:
    declared = load_declared()
    import_program()
    import tracer as layer_tracer
    from repro.sim.config import MachineConfig

    scale = 1 / 8 if args.smoke else 1.0
    repeats = 1 if args.smoke else SETUP_REPEATS
    warm_passes = 1 if args.smoke else WARM_PASSES
    grid_list, jobs = grids(args.workload, args.seed, scale)

    tracer = layer_tracer.Tracer()
    imports = import_seconds(repeats) if not args.trace else 0.0
    if args.trace:
        tracer.install()
    setups = [record_traces(grid_list, work_dir) for _ in range(repeats)]
    if args.trace:
        tracer.uninstall()
        record_s = tracer.incl_s.get("workloads.trace", 0.0) / repeats
    setup_s = imports + statistics.median(setups)

    path_recorder = layer_tracer.PathRecorder().install()
    checks = Checks()
    colds: List[Pass] = []
    warms: List[Pass] = []
    traced: List[tuple] = []
    untraced_walls: List[float] = []

    def run_pair(pass_jobs: int, traced_pair: bool) -> Tuple[Pass, Pass]:
        if traced_pair:
            tracer.reset()
            tracer.install()
        try:
            cold = cold_pass(grid_list, pass_jobs, work_dir, path_recorder)
            warm = warm_pass(grid_list, pass_jobs, cold.store_dir)
        finally:
            if traced_pair:
                tracer.uninstall()
        checks.cold_then_warm(cold, warm)
        colds.append(cold)
        warms.append(warm)
        return cold, warm

    try:
        t_start = time.perf_counter()
        if args.trace and jobs > 1:
            # The pooled pass gives worker utilisation; traced passes run
            # on the serial driver so every span lands in this process.
            run_pair(jobs, False)
        while True:
            if args.trace:
                cold, warm = run_pair(1, False)
                untraced_walls.append(cold.wall + warm.wall)
                cold, warm = run_pair(1, True)
                traced.append((cold, warm, tracer.snapshot()))
            else:
                cold, _ = run_pair(jobs, False)
                for _ in range(warm_passes - 1):
                    warms.append(warm_pass(grid_list, jobs, cold.store_dir))
                    checks.cold_then_warm(cold, warms[-1])
            shutil.rmtree(cold.store_dir, ignore_errors=True)
            if len(colds) >= MIN_PASSES and time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        path_recorder.uninstall()

    correct = checks.finish()
    print(f"perfbench {args.workload}: seed {args.seed}, {len(colds)} cold and "
          f"{len(warms)} warm passes, jobs {jobs}, trace {args.trace}")
    schema = MachineConfig().rng_schema_effective
    for path in sorted(checks.paths):
        print(f"path rng_schema={schema} {path}")
    print("results_digest " + " ".join(sorted(checks.digests)))

    if args.trace:
        section = declared["per_layer"]
        known = {t[0] for t in layer_tracer.layer_targets() if isinstance(t[0], str)}
        values, shares = per_layer(
            [m["name"] for m in section], known, traced, untraced_walls, record_s, colds
        )
        print(f"{'layer (self time, traced pass)':40s} {'seconds':>10s} {'share':>7s}")
        for name, seconds, share in shares:
            print(f"{name:40s} {seconds:10.4f} {share:7.1%}")
        print(f"{'total':40s} {values['traced_wall_s']:10.4f} {sum(s for *_, s in shares):7.1%}")
    else:
        section = declared["end_to_end"]
        computed = end_to_end(colds, warms, setup_s)
        values = {m["name"]: computed[m["name"]] for m in section}
    for m in section:
        print(f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    for failure in checks.failures:
        print("CHECK FAILED: " + failure)

    attempted = sum(p.result.stats.total_requests for p in colds + warms)
    served = sum(p.completed for p in colds + warms)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - served,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
