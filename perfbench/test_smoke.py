"""Smoke test of the sweep benchmark: every workload at a tiny budget.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced with ``--smoke`` (one eighth of
the per-run budgets); the output checks must pass and every metric
``BENCHMARK.json`` declares must be emitted with its unit.  The check
logic itself is exercised by corrupting a real pass's results.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_passes_checks_and_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert sum(line.startswith("results_digest ") for line in lines) == 1
    assert any(line.startswith("path rng_schema=") for line in lines)
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["unattributed_s"] >= 0.0
        assert values["traced_wall_s"] > 0.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "sweep-grid", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_checks_catch_corrupted_results(tmp_path):
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import tracer
    from repro.exp.spec import KIND_IDEAL

    work_dir = tmp_path
    grid_list, _ = run.grids("sweep-grid", 0, 1 / 48)
    run.record_traces(grid_list, work_dir)
    recorder = tracer.PathRecorder().install()
    try:
        cold = run.cold_pass(grid_list, 1, work_dir, recorder)
    finally:
        recorder.uninstall()

    def failures(corrupt=None):
        warm = run.warm_pass(grid_list, 1, cold.store_dir)
        if corrupt is not None:
            corrupt(warm)
        checks = run.Checks()
        checks.cold_then_warm(cold, warm)
        checks.finish()
        return " ".join(checks.failures)

    assert failures() == ""

    def first(p, kind=None):
        req = next(r for r in p.result.requests if kind is None or r.kind == kind)
        return p.result.result(req)

    def bump_runtime(p):
        first(p).runtime_cycles += 1.0

    def lose_misses(p):
        run_result = first(p)
        tier = next(iter(run_result.tier_misses))
        run_result.tier_misses[tier] -= 1.0

    def slow_ideal(p):
        first(p, KIND_IDEAL).runtime_cycles *= 1e6

    assert "warm result differs" in failures(bump_runtime)
    assert "do not sum" in failures(lose_misses)
    assert "> slow-only" in failures(slow_ideal)
