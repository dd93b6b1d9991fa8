"""Calibration of Equation 1's k, model-fit analysis, improvement CDFs."""

import pytest

from repro.analysis.correlation import aggregate_per_workload, evaluate_stall_model
from repro.analysis.improvement import pooled_improvements, summarize_improvements
from repro.common.units import CXL_SPEC
from repro.core.calibration import CalibrationPoint, calibrate_k, collect_points
from repro.exp.runner import run_experiment
from repro.exp.spec import KIND_POLICY, ExperimentSpec
from repro.mem.page import Tier
from repro.sim.engine import clear_baseline_cache
from repro.workloads.corpus import generate_corpus

from conftest import TinyWorkload


@pytest.fixture(scope="module")
def mini_corpus():
    """A 12-point slice of the corpus grid (fast enough for unit tests)."""
    return generate_corpus(total_misses=1_500_000, misses_per_window=150_000)[::8]


class TestCalibration:
    def test_collect_points_produces_observations(self, mini_corpus):
        points = collect_points(mini_corpus[:3], max_windows_each=5)
        assert len(points) >= 12
        for p in points:
            assert p.llc_misses > 0
            assert p.mlp >= 1.0
            assert p.stall_cycles > 0

    def test_calibrated_k_close_to_tier_latency(self, mini_corpus):
        """Under light load, Equation 1's k converges to the slow tier's
        loaded latency in cycles (the model's physical meaning)."""
        coeff = calibrate_k(mini_corpus, max_windows_each=5)
        assert coeff.k_cycles == pytest.approx(CXL_SPEC.latency_cycles, rel=0.35)

    def test_fast_tier_calibration_yields_smaller_k(self, mini_corpus):
        slow = calibrate_k(mini_corpus, tier=Tier.SLOW, max_windows_each=4)
        fast = calibrate_k(mini_corpus, tier=Tier.FAST, max_windows_each=4)
        assert fast.k_cycles < slow.k_cycles

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError):
            calibrate_k([], max_windows_each=3)


class TestModelFit:
    def test_model_beats_raw_misses(self, mini_corpus):
        """The Figure 2 claim: Equation 1 correlates with stalls far
        better than raw LLC-miss counts across a diverse corpus."""
        fit = evaluate_stall_model(mini_corpus, CXL_SPEC, max_windows_each=6)
        assert fit.pearson_model > 0.97
        assert fit.pearson_model > fit.pearson_misses
        assert fit.num_workloads == len(mini_corpus)

    def test_aggregate_per_workload_merges_windows(self):
        points = [
            CalibrationPoint("w", 100.0, 2.0, 50.0),
            CalibrationPoint("w", 100.0, 2.0, 50.0),
            CalibrationPoint("v", 10.0, 1.0, 5.0),
        ]
        merged = aggregate_per_workload(points)
        assert len(merged) == 2
        w = next(p for p in merged if p.workload == "w")
        assert w.llc_misses == 200.0
        assert w.mlp == pytest.approx(2.0)


class TestImprovement:
    def test_summaries(self):
        slowdowns = {
            "a": {"PACT": 0.2, "Colloid": 0.5, "NBT": 0.26},
            "b": {"PACT": 0.1, "Colloid": 0.1, "NBT": 0.32},
        }
        summaries = summarize_improvements(slowdowns, competitors=("Colloid", "NBT"))
        assert summaries["Colloid"].max == pytest.approx(0.25)
        assert summaries["Colloid"].min == pytest.approx(0.0)
        assert len(summaries["NBT"].improvements) == 2

    def test_missing_subject_rejected(self):
        with pytest.raises(ValueError):
            summarize_improvements({"a": {"Colloid": 0.5}})

    def test_pooled(self):
        slowdowns = {"a": {"PACT": 0.2, "Colloid": 0.5, "NBT": 0.3}}
        pooled = pooled_improvements(
            summarize_improvements(slowdowns, competitors=("Colloid", "NBT"))
        )
        assert len(pooled.improvements) == 2

    def test_cdf_shape(self):
        slowdowns = {"a": {"PACT": 0.2, "Colloid": 0.5}}
        s = summarize_improvements(slowdowns, competitors=("Colloid",))["Colloid"]
        xs, fracs = s.cdf()
        assert xs.size == 1 and fracs[0] == 1.0


class TestSweep:
    """A declared grid through ``run_experiment``: tables and lookups."""

    def test_grid_runs_and_tables(self):
        clear_baseline_cache()
        result = run_experiment(
            ExperimentSpec(
                workloads={"tiny": TinyWorkload},
                policies=["PACT", "NoTier"],
                ratios=["1:1", "1:2"],
            )
        )
        assert sum(req.kind == KIND_POLICY for req in result.requests) == 4
        table = result.slowdown_table("1:1")
        assert "tiny" in table and "PACT" in table["tiny"]
        assert result.promotions("tiny", "NoTier", "1:1") == 0
        slow_only = result.slow_only("tiny").slowdown(result.baseline("tiny"))
        assert slow_only > 0
        assert result.slowdown("tiny", "PACT", "1:2") < slow_only

    def test_missing_cell_raises(self):
        clear_baseline_cache()
        result = run_experiment(
            ExperimentSpec(workloads={"tiny": TinyWorkload}, policies=["NoTier"], ratios=["1:1"])
        )
        with pytest.raises(KeyError):
            result.find(workload="tiny", policy="PACT", ratio="1:1")
