#!/usr/bin/env python3
"""Throughput and results gate over the end-to-end sweep benchmark.

Runs the command ``BENCHMARK.json`` declares (``python3 perfbench/run.py``)
for every declared workload at seeds 0 and 1000, ``RUN_SECONDS`` each
with ``--trace 0``, and checks every run against the committed record
``BENCH_perf.json``::

    python benchmarks/perfbench_gate.py            # check; exit 1 on any failure
    python benchmarks/perfbench_gate.py --update   # rewrite BENCH_perf.json

A run fails the gate when

* its output checks fail (``"correct": false``) or it reports
  ``failed > 0``;
* its ``results_digest`` (SHA-256 over every request's runtime_cycles,
  promoted, demoted and windows) differs from the committed one, i.e.
  simulated results moved;
* its ``runs_per_s`` divided by the calibration kernel's score (the
  better of one measurement just before and one just after the run)
  falls more than ``THRESHOLD`` below the committed normalised value;
* the committed record has no entry for its (workload, seed).

A run that fails only on throughput is measured once more, and the
better of its two normalised measurements counts: a shared host can
stall a whole run, but a real slow-down shows in both.

``runs_per_s`` covers the whole sweep, from spec to stored result, so
work moved into ``Machine`` construction or set-up is not a speed-up
here.  Run ``--update`` after an intentional change, on an idle host:
it records every end-to-end metric, the digest and the calibration
score of each (workload, seed), taking the median of ``UPDATE_ROUNDS``
interleaved rounds, and refuses to record a run that fails its output
checks.  The calibration score absorbs differences in host speed, not
load: under load the kernel slows more than a sweep does, so a record
taken on a busy host is too strict.  The record is both the CI
baseline and the throughput trajectory across changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = ROOT / "BENCH_perf.json"

#: Length of each perfbench run's timed phase (``--seconds``).
RUN_SECONDS = 5.0

#: Run seeds: perfbench's default seed and its held-out one.
SEEDS = (0, 1000)

#: Fail when calibration-normalised runs/s drops by more than this fraction.
THRESHOLD = 0.3

#: ``--update`` measures every (workload, seed) in this many interleaved
#: rounds and records the run with the median normalised runs/s, so one
#: stalled or lucky run does not set the bar.
UPDATE_ROUNDS = 3


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed yardstick: fixed numpy kernel iterations per second.

    The kernel mixes the primitives the hot loop leans on (sort, unique,
    bincount, reductions) over fixed pseudo-random data, so the score
    moves with the host's effective numpy throughput.  Normalising
    throughput by this score makes baselines comparable across hosts
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


def run_perfbench(command: List[str], workload: str, seed: int) -> Dict[str, object]:
    """One perfbench run: its result line, results digest and exit status."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    digests = [line.split(" ", 1)[1] for line in lines if line.startswith("results_digest ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": None, "error": tail}
    return {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "results_digest": digests[0] if digests else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def checks_failed(rec: Dict[str, object]) -> bool:
    return not rec["correct"] or bool(rec["failed"])


def normalised(rec: dict) -> float:
    return rec["metrics"]["runs_per_s"] / rec["calibration_score"]


def measure_one(command: List[str], workload: str, seed: int) -> Dict[str, object]:
    """One perfbench run, with the calibration score measured around it.

    A host load spike only ever lowers the calibration score, so the
    better of the two measurements is the one that reflects host speed.
    """
    before = calibration_score()
    result = run_perfbench(command, workload, seed)
    score = max(before, calibration_score())
    record = {"workload": workload, "seed": seed, "calibration_score": score, **result}
    runs_per_s = record.get("metrics", {}).get("runs_per_s", float("nan"))
    print(f"  {workload:14s} seed {seed:<5d} {runs_per_s:9.2f} runs/s  "
          f"calibration {score:7.1f}  digest {str(record.get('results_digest'))[:12]}",
          flush=True)
    return record


def measure(declared: dict, rounds: int = 1) -> List[Dict[str, object]]:
    """Every declared workload at every seed in ``SEEDS``, ``rounds`` times
    over; per (workload, seed), the run with the median normalised runs/s,
    or a run that failed its output checks."""
    keys = [(w["name"], seed) for w in declared["workloads"] for seed in SEEDS]
    runs = {key: [] for key in keys}
    for _ in range(rounds):
        for workload, seed in keys:
            runs[(workload, seed)].append(measure_one(declared["command"], workload, seed))
    records = []
    for key in keys:
        failed = [r for r in runs[key] if checks_failed(r)]
        ranked = failed or sorted(runs[key], key=normalised)
        records.append(ranked[len(ranked) // 2])
    return records


def result_problems(rec: Dict[str, object], base: Optional[dict]) -> List[str]:
    """Everything wrong with one run except its throughput."""
    if checks_failed(rec):
        detail = rec.get("error") or f"correct {rec['correct']}, failed {rec['failed']}"
        return [f"output checks failed ({detail})"]
    if base is None:
        return ["no entry in the baseline (run with --update)"]
    problems = []
    if rec["results_digest"] != base["results_digest"]:
        problems.append(
            f"results_digest {rec['results_digest']} != baseline "
            f"{base['results_digest']} (simulated results changed)"
        )
    if not rec.get("calibration_score") or not base.get("calibration_score"):
        problems.append("calibration score missing from the run or the baseline")
    return problems


def too_slow(rec: Dict[str, object], base: dict) -> Optional[str]:
    """Why a run's normalised runs/s fails the threshold, or None."""
    ratio = normalised(rec) / normalised(base)
    if ratio >= 1.0 - THRESHOLD:
        return None
    return (
        f"normalised runs/s {ratio:.2f}x of baseline (threshold "
        f"{1.0 - THRESHOLD:.2f}x): {rec['metrics']['runs_per_s']:.2f} runs/s vs "
        f"{base['metrics']['runs_per_s']:.2f}"
    )


def committed_runs(baseline: Optional[dict]) -> Dict[tuple, dict]:
    return {(r["workload"], r["seed"]): r for r in (baseline or {}).get("runs", [])}


def check(records: List[Dict[str, object]], baseline: Optional[dict]) -> List[str]:
    """Problems of ``records`` against the committed ``baseline``; empty = pass."""
    committed = committed_runs(baseline)
    problems = []
    for rec in records:
        base = committed.get((rec["workload"], rec["seed"]))
        found = result_problems(rec, base) or [too_slow(rec, base)]
        problems += [f"{rec['workload']} seed {rec['seed']}: {p}" for p in found if p]
    return problems


def write_baseline(records: List[Dict[str, object]], declared: dict) -> None:
    doc = {
        "command": declared["command"],
        "run_seconds": RUN_SECONDS,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "runs": records,
    }
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {BASELINE.name} from this run instead of checking against it",
    )
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK.read_text())
    print(f"perfbench gate: {len(declared['workloads'])} workloads x seeds "
          f"{', '.join(map(str, SEEDS))}, {RUN_SECONDS:g} s each", flush=True)
    records = measure(declared, UPDATE_ROUNDS if args.update else 1)
    if args.update:
        broken = [r for r in records if checks_failed(r)]
        for rec in broken:
            print(f"FAIL: {rec['workload']} seed {rec['seed']}: output checks failed; "
                  f"{BASELINE.name} not written")
        if broken:
            return 1
        write_baseline(records, declared)
        print(f"updated {BASELINE.name}")
        return 0
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    committed = committed_runs(baseline)
    for i, rec in enumerate(records):
        # A shared host can stall a whole run: measure a run that is only
        # too slow once more and keep the better of the two measurements,
        # unless the second one fails outright.
        base = committed.get((rec["workload"], rec["seed"]))
        if not result_problems(rec, base) and too_slow(rec, base):
            again = measure_one(declared["command"], rec["workload"], rec["seed"])
            if result_problems(again, base) or normalised(again) > normalised(rec):
                records[i] = again
    problems = check(records, baseline)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"OK: every digest matches and runs/s is within {THRESHOLD:.0%} of "
          f"{BASELINE.name} (calibration-normalised)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
