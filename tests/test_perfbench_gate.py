"""The perfbench gate (``benchmarks/perfbench_gate.py``) on synthetic
perfbench outputs: digest, output-check and calibration-normalised
throughput verdicts, the ``--update`` round trip, and the committed
``BENCH_perf.json`` record.  No benchmark runs here."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "perfbench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(runs_per_s=100.0, calibration=50.0, digest="ab" * 32, workload="sweep-grid",
           seed=0, correct=True, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "calibration_score": calibration,
        "correct": correct,
        "attempted": 40,
        "failed": failed,
        "results_digest": digest,
        "metrics": {"runs_per_s": runs_per_s, "windows_per_s": 48 * runs_per_s},
    }


def baseline(*records):
    return {"runs": [copy.deepcopy(r) for r in (records or [record()])]}


class TestCheck:
    def test_identical_records_pass(self, gate):
        assert gate.check([record()], baseline()) == []

    def test_regression_beyond_threshold_fails(self, gate):
        problems = gate.check([record(runs_per_s=60.0)], baseline())
        assert len(problems) == 1
        assert "sweep-grid seed 0" in problems[0] and "normalised" in problems[0]

    def test_regression_within_threshold_passes(self, gate):
        assert gate.check([record(runs_per_s=80.0)], baseline()) == []

    def test_calibration_normalisation_absorbs_slow_host(self, gate):
        # Half the throughput on a half-speed host is not a regression.
        assert gate.check([record(runs_per_s=50.0, calibration=25.0)], baseline()) == []

    def test_digest_mismatch_always_fails(self, gate):
        # Faster is no excuse: simulated results must not move.
        problems = gate.check([record(runs_per_s=500.0, digest="cd" * 32)], baseline())
        assert len(problems) == 1 and "results_digest" in problems[0]

    def test_missing_calibration_reported(self, gate):
        current = record()
        del current["calibration_score"]
        assert any("calibration" in p for p in gate.check([current], baseline()))
        assert any("calibration" in p for p in gate.check([record()], baseline(current)))

    @pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 3}],
                             ids=["incorrect", "failed"])
    def test_failed_output_checks_fail(self, gate, bad):
        problems = gate.check([record(**bad)], baseline())
        assert len(problems) == 1 and "output checks failed" in problems[0]

    def test_entry_missing_from_baseline_fails(self, gate):
        current = [record(), record(seed=1000)]
        problems = gate.check(current, baseline())
        assert problems == ["sweep-grid seed 1000: no entry in the baseline (run with --update)"]
        assert gate.check([record()], None) != []


def fake_perfbench(stdout, returncode=0, stderr=""):
    """A command that prints ``stdout`` like perfbench and exits ``returncode``."""
    script = (f"import sys; sys.stdout.write({stdout!r}); "
              f"sys.stderr.write({stderr!r}); sys.exit({returncode})")
    return [sys.executable, "-c", script]


class TestMeasure:
    def test_calibration_score_positive(self, gate):
        assert gate.calibration_score(repeats=1) > 0.0

    def test_run_perfbench_parses_digest_and_result_line(self, gate):
        result = {"correct": True, "attempted": 40, "failed": 0,
                  "metrics": {"runs_per_s": {"value": 31.5, "unit": "1/s"}}}
        stdout = f"path ...\nresults_digest {'ef' * 32}\n{json.dumps(result)}\n"
        parsed = gate.run_perfbench(fake_perfbench(stdout), "sweep-grid", 0)
        assert parsed == {"correct": True, "attempted": 40, "failed": 0,
                          "results_digest": "ef" * 32, "metrics": {"runs_per_s": 31.5}}

    def test_run_without_result_line_is_incorrect(self, gate):
        parsed = gate.run_perfbench(
            fake_perfbench("", returncode=1, stderr="Traceback\nMemoryError\n"), "long-runs", 0
        )
        assert parsed["correct"] is False and parsed["error"] == "MemoryError"
        problems = gate.check([{"workload": "long-runs", "seed": 0, **parsed}], baseline())
        assert problems == ["long-runs seed 0: output checks failed (MemoryError)"]


class TestMain:
    @pytest.fixture
    def fake_host(self, gate, tmp_path, monkeypatch):
        """Synthetic perfbench runs against a temporary baseline.  Each run
        takes 100 runs/s unless ``slow[(workload, seed)]`` still lists a
        speed for it (consumed one per call; None fails the output checks)."""
        slow = {}
        calls = []

        def run(command, workload, seed):
            calls.append((workload, seed))
            speed = (slow.get((workload, seed)) or [100.0]).pop(0)
            result = record(runs_per_s=speed or 0.0, digest=f"{workload}/{seed}",
                            correct=speed is not None)
            return {k: v for k, v in result.items()
                    if k not in ("workload", "seed", "calibration_score")}

        monkeypatch.setattr(gate, "BASELINE", tmp_path / "BENCH_perf.json")
        monkeypatch.setattr(gate, "run_perfbench", run)
        monkeypatch.setattr(gate, "calibration_score", lambda repeats=3: 50.0)
        return slow, calls

    def test_update_then_check_passes(self, gate, fake_host, capsys):
        _, calls = fake_host
        assert gate.main(["--update"]) == 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        runs = len(declared["workloads"]) * len(gate.SEEDS)
        assert len(calls) == gate.UPDATE_ROUNDS * runs
        assert gate.main([]) == 0
        assert len(calls) == (gate.UPDATE_ROUNDS + 1) * runs
        assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith("OK")

    def test_update_records_the_median_round(self, gate, fake_host):
        slow, _ = fake_host
        slow[("sweep-grid", 0)] = [100.0, 60.0, 200.0]  # one stalled, one lucky round
        assert gate.main(["--update"]) == 0
        committed = gate.committed_runs(json.loads(gate.BASELINE.read_text()))
        assert committed[("sweep-grid", 0)]["metrics"]["runs_per_s"] == 100.0

    def test_slow_run_is_measured_once_more(self, gate, fake_host, capsys):
        slow, calls = fake_host
        assert gate.main(["--update"]) == 0
        before = len(calls)
        slow[("long-runs", 1000)] = [60.0]  # one stalled measurement
        assert gate.main([]) == 0
        assert len(calls) == before + before // gate.UPDATE_ROUNDS + 1
        assert calls[-1] == ("long-runs", 1000)
        slow[("long-runs", 1000)] = [60.0, 65.0]  # slow twice: a regression
        assert gate.main([]) == 1
        slow[("long-runs", 1000)] = [60.0, None]  # a failing second run is reported
        assert gate.main([]) == 1
        assert "long-runs seed 1000: output checks failed" in capsys.readouterr().out

    def test_update_refuses_a_failing_run(self, gate, fake_host, monkeypatch):
        monkeypatch.setattr(gate, "run_perfbench", lambda *a: {"correct": False, "failed": None})
        assert gate.main(["--update"]) == 1
        assert not gate.BASELINE.exists()


def test_committed_baseline_covers_benchmark(gate):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    committed = gate.committed_runs(json.loads(gate.BASELINE.read_text()))
    metrics = {m["name"] for m in declared["end_to_end"]}
    expected = {(w["name"], seed) for w in declared["workloads"] for seed in gate.SEEDS}
    assert set(committed) == expected
    assert gate.SEEDS == (0, 1000)
    for run in committed.values():
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == metrics
        assert len(run["results_digest"]) == 64
        assert run["calibration_score"] > 0.0
