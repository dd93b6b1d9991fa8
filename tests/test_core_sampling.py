"""Algorithm 1: the PAC sampling pipeline, validated against ground truth."""

import numpy as np
import pytest

from repro.core.cooling import CoolingConfig
from repro.core.pac import PacModelCoefficients
from repro.core.sampling import PacSampler
from repro.core.tracker import PacTracker
from repro.hw.pebs import PebsBatch
from repro.hw.perf import PerfDelta
from repro.sim.policy_api import Observation

from conftest import TinyWorkload


def make_obs(window=0, slow_misses=10_000.0, t1=4_000_000.0, t2=1_000_000.0,
             pages=None, counts=None, latencies=None):
    if pages is None:
        pages = np.array([1, 2, 3])
        counts = np.array([1, 2, 7])
    pebs = PebsBatch(
        pages=pages,
        counts=counts,
        rate=400,
        overhead_cycles=0.0,
        latencies=latencies,
    )
    perf = PerfDelta(
        cycles=1e7,
        llc_misses=[0.0, slow_misses],
        stall_cycles=[0.0, 0.0],
        bytes=[0.0, 0.0],
        effective_latency_cycles=[0.0, 0.0],
    )
    return Observation(
        window=window,
        window_cycles=1e7,
        perf=perf,
        tor_mlp=[1.0, t1 / t2],
        pebs=pebs,
        memory=None,
        tor_occupancy_delta=[0.0, t1],
        tor_busy_delta=[0.0, t2],
    )


def make_sampler(footprint=64, k=418.0, **kwargs):
    tracker = PacTracker(footprint)
    sampler = PacSampler(tracker, PacModelCoefficients(k_cycles=k), **kwargs)
    return tracker, sampler


class TestAlgorithmOne:
    def test_stall_estimate_follows_equation_one(self):
        tracker, sampler = make_sampler()
        sampler.ingest(make_obs(slow_misses=10_000, t1=4e6, t2=1e6))
        # MLP = 4; S = k * misses / MLP = 418 * 10000 / 4.
        assert sampler.last_mlp == pytest.approx(4.0)
        assert sampler.last_stall_estimate == pytest.approx(418 * 10_000 / 4)

    def test_attribution_proportional_to_counts(self):
        tracker, sampler = make_sampler()
        sampler.ingest(make_obs())
        total = sampler.last_stall_estimate
        assert tracker.pac[3] == pytest.approx(total * 0.7)
        assert tracker.pac[2] == pytest.approx(total * 0.2)
        assert tracker.pac[1] == pytest.approx(total * 0.1)

    def test_pac_conserves_estimated_stalls(self):
        tracker, sampler = make_sampler()
        sampler.ingest(make_obs())
        assert tracker.pac.sum() == pytest.approx(sampler.last_stall_estimate)

    def test_accumulation_across_windows(self):
        tracker, sampler = make_sampler()
        sampler.ingest(make_obs(window=0))
        first = tracker.pac[3]
        sampler.ingest(make_obs(window=1))
        assert tracker.pac[3] == pytest.approx(2 * first)

    def test_alpha_cooling(self):
        tracker, sampler = make_sampler(cooling=CoolingConfig(alpha=0.0))
        sampler.ingest(make_obs(window=0))
        first = tracker.pac[3]
        sampler.ingest(make_obs(window=1))
        assert tracker.pac[3] == pytest.approx(first)  # full recency

    def test_no_samples_still_estimates_stalls(self):
        tracker, sampler = make_sampler()
        done = sampler.ingest(
            make_obs(pages=np.array([], dtype=np.int64), counts=np.array([], dtype=np.int64))
        )
        assert done
        assert sampler.last_stall_estimate > 0
        assert len(tracker) == 0

    def test_mlp_floor(self):
        tracker, sampler = make_sampler()
        sampler.ingest(make_obs(t1=100.0, t2=1e6))  # ratio << 1
        assert sampler.last_mlp == 1.0


class TestPeriodAggregation:
    def test_period_gates_attribution(self):
        tracker, sampler = make_sampler(period_windows=3)
        assert not sampler.ingest(make_obs(window=0))
        assert not sampler.ingest(make_obs(window=1))
        assert len(tracker) == 0
        assert sampler.ingest(make_obs(window=2))
        assert len(tracker) == 3

    def test_aggregated_equals_three_windows_worth(self):
        tracker3, sampler3 = make_sampler(period_windows=3)
        for w in range(3):
            sampler3.ingest(make_obs(window=w))
        tracker1, sampler1 = make_sampler(period_windows=1)
        for w in range(3):
            sampler1.ingest(make_obs(window=w))
        assert tracker3.pac[3] == pytest.approx(tracker1.pac[3], rel=1e-9)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            make_sampler(period_windows=0)


class TestLatencyWeighted:
    def test_latency_weighting_shifts_attribution(self):
        tracker, sampler = make_sampler(latency_weighted=True)
        pages = np.array([1, 2])
        counts = np.array([5, 5])
        latencies = np.array([100.0, 300.0])
        sampler.ingest(make_obs(pages=pages, counts=counts, latencies=latencies))
        assert tracker.pac[2] == pytest.approx(3 * tracker.pac[1], rel=1e-9)

    def test_falls_back_to_proportional_without_latencies(self):
        tracker, sampler = make_sampler(latency_weighted=True)
        pages = np.array([1, 2])
        counts = np.array([5, 5])
        sampler.ingest(make_obs(pages=pages, counts=counts))
        assert tracker.pac[1] == pytest.approx(tracker.pac[2])


class TestEndToEndAccuracy:
    def test_pac_ranking_matches_ground_truth_criticality(self, config):
        """Run the tiny workload slow-only; PAC must rank the chase
        region's pages above the stream region's despite equal counts."""
        from repro.sim.machine import Machine
        from repro.core.pact import PactPolicy

        workload = TinyWorkload()
        policy = PactPolicy()
        machine = Machine(
            workload, policy, config=config, fast_capacity_override=0, seed=1
        )
        machine.run(max_windows=15)
        tracker = policy.tracker
        half = workload.footprint_pages // 2
        chase_pac = tracker.pac[:half]
        stream_pac = tracker.pac[half:]
        # Same access counts per region; chase pages must carry clearly
        # more attributed stall (MLP 2 vs 16 -> ~8x in aggregate).
        assert chase_pac.mean() > 2.0 * stream_pac.mean()
