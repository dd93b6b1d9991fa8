"""CHA/TOR counters, PEBS sampler, and the perf registry."""

import numpy as np
import pytest

from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.hw.cha import ChaTorCounters, littles_law_mlp
from repro.hw.pebs import PebsBatch, PebsSampler
from repro.hw.perf import PerfCounters
from repro.hw.stall import StallModel
from repro.mem.page import Tier

from oracles import Share, make_batch


def solved_shares(mlp=4.0, misses=40_000, tier=Tier.SLOW, load_fraction=1.0):
    pages = np.arange(64)
    counts = np.full(64, misses // 64, dtype=np.int64)
    share = Share(
        group_index=0, tier=tier, pages=pages, counts=counts, mlp=mlp,
        load_fraction=load_fraction,
    )
    model = StallModel([DRAM_SPEC, CXL_SPEC])
    return model.solve(make_batch([share]), compute_cycles=1e6).shares


class TestTorCounters:
    def test_mlp_recovered_from_deltas(self):
        cha = ChaTorCounters()
        before = cha.read()
        cha.advance(solved_shares(mlp=6.0))
        after = cha.read()
        assert after.mlp_since(before, Tier.SLOW) == pytest.approx(6.0, rel=0.01)

    def test_mlp_with_noise_close(self):
        cha = ChaTorCounters()
        shares = solved_shares(mlp=4.0)
        before = cha.read()
        cha.advance(shares, jitter=np.exp(np.random.default_rng(1).normal(0.0, 0.02, (shares.n, 2))))
        after = cha.read()
        assert after.mlp_since(before, Tier.SLOW) == pytest.approx(4.0, rel=0.15)

    def test_counters_are_cumulative(self):
        cha = ChaTorCounters()
        cha.advance(solved_shares())
        mid = cha.read()
        cha.advance(solved_shares())
        end = cha.read()
        assert end.occupancy[Tier.SLOW] > mid.occupancy[Tier.SLOW]

    def test_idle_tier_reports_unit_mlp(self):
        cha = ChaTorCounters()
        before = cha.read()
        cha.advance(solved_shares(tier=Tier.SLOW))
        after = cha.read()
        assert after.mlp_since(before, Tier.FAST) == 1.0

    def test_mlp_floor_is_one(self):
        cha = ChaTorCounters()
        snap = cha.read()
        assert snap.mlp_since(snap, Tier.SLOW) == 1.0


class TestLittlesLaw:
    def test_matches_formula(self):
        # 64 bytes/ns over 100ns latency -> 100 lines in flight.
        assert littles_law_mlp(64.0 * 1000, 100.0, 1000.0) == pytest.approx(100.0)

    def test_floor(self):
        assert littles_law_mlp(0.0, 100.0, 1000.0) == 1.0
        assert littles_law_mlp(100.0, 100.0, 0.0) == 1.0

    def test_overestimates_with_prefetch_bytes(self):
        demand = littles_law_mlp(1e6, 190.0, 1e5)
        with_prefetch = littles_law_mlp(1.5e6, 190.0, 1e5)
        assert with_prefetch > demand


def sample_entries(sampler, counts, tier=Tier.SLOW, load_fraction=1.0, window=0):
    """One window of ``counts`` on pages 0..n-1, all resident in ``tier``."""
    counts = np.asarray(counts, dtype=np.int64)
    pages = np.arange(counts.size, dtype=np.int64)
    placement = np.full(counts.size, int(tier), dtype=np.int8)
    return sampler.sample(
        window, counts, pages, placement,
        group_ptr=np.array([0, counts.size]), group_lf=np.array([load_fraction]),
    )


class TestPebs:
    def test_sampling_rate_statistics(self):
        sampler = PebsSampler(rate=100)
        batch = sample_entries(sampler, np.full(64, 10_000))
        # ~1% of events sampled.
        assert batch.total_records == pytest.approx(6400, rel=0.1)
        assert batch.estimated_accesses().sum() == pytest.approx(640_000, rel=0.1)

    def test_only_requested_tiers_sampled(self):
        counts = np.full(64, 625)
        batch = sample_entries(PebsSampler(rate=10), counts, tier=Tier.FAST)
        assert batch.total_records == 0
        both = PebsSampler(rate=10, sampled_codes=[1, 0])
        assert sample_entries(both, counts, tier=Tier.FAST).total_records > 0

    def test_loads_only_thins_write_traffic(self):
        counts = np.full(64, 625)
        all_loads = sample_entries(PebsSampler(rate=10), counts)
        half_loads = sample_entries(PebsSampler(rate=10), counts, load_fraction=0.5)
        assert half_loads.total_records < all_loads.total_records * 0.7
        every_miss = PebsSampler(rate=10, loads_only=False)
        assert sample_entries(every_miss, counts, load_fraction=0.5).total_records == (
            all_loads.total_records
        )

    def test_overhead_scales_with_records(self):
        sampler = PebsSampler(rate=10, cycles_per_record=100.0)
        batch = sample_entries(sampler, np.full(64, 625))
        assert batch.overhead_cycles == batch.total_records * 100.0

    def test_empty_batch(self):
        batch = PebsBatch.empty(rate=400)
        assert batch.total_records == 0
        assert batch.rate == 400

    def test_latency_reporting(self):
        sampler = PebsSampler(rate=5, report_latency=True)
        shares = solved_shares(mlp=4.0)
        counts = np.full(64, 40_000 // 64, dtype=np.int64)
        batch = sampler.sample(
            0, counts, np.arange(64), np.ones(64, dtype=np.int8),
            group_ptr=np.array([0, counts.size]), group_lf=np.ones(1), shares=shares,
        )
        assert batch.latencies is not None
        # Exposed latency = effective latency / MLP = unit stall cost.
        assert batch.latencies[0] == pytest.approx(shares.unit_stall_cycles[0], rel=1e-6)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PebsSampler(rate=0)

    def test_merges_duplicate_pages_across_groups(self):
        # The same 8 pages in two groups, the second in reverse order.
        pages = np.concatenate([np.arange(8), np.arange(8)[::-1]])
        counts = np.full(16, 5000, dtype=np.int64)
        sampler = PebsSampler(rate=10)
        drawn = sampler.draw(0, counts)
        batch = sampler.merge(drawn, pages, np.ones(8, dtype=np.int8))
        np.testing.assert_array_equal(batch.pages, np.arange(8))
        expected = np.zeros(8, dtype=np.int64)
        np.add.at(expected, pages[drawn.entries], drawn.records)
        np.testing.assert_array_equal(batch.counts, expected)

    def test_all_zero_counts_yield_empty_batch(self):
        batch = sample_entries(PebsSampler(rate=4), np.zeros(10))
        assert batch.pages.size == 0
        assert batch.overhead_cycles == 0.0


class TestPerfCounters:
    def test_deltas(self):
        model = StallModel([DRAM_SPEC, CXL_SPEC])
        perf = PerfCounters()
        shares = solved_shares()
        out = model.solve(shares, compute_cycles=1e6)
        before = perf.read()
        perf.advance(out)
        delta = perf.read().delta(before)
        assert delta.llc_misses[Tier.SLOW] == pytest.approx(
            out.tier_loads[Tier.SLOW].misses, rel=1e-6
        )
        assert delta.stall_cycles[Tier.SLOW] == pytest.approx(
            out.tier_loads[Tier.SLOW].stall_cycles, rel=1e-6
        )
        assert delta.cycles == pytest.approx(out.duration_cycles)

    def test_totals(self):
        model = StallModel([DRAM_SPEC, CXL_SPEC])
        perf = PerfCounters()
        out = model.solve(solved_shares(), compute_cycles=1e6)
        before = perf.read()
        perf.advance(out)
        delta = perf.read().delta(before)
        assert delta.total_llc_misses == pytest.approx(sum(delta.llc_misses))
        assert delta.total_stall_cycles == pytest.approx(sum(delta.stall_cycles))

    def test_noise_is_small_multiplicative(self):
        model = StallModel([DRAM_SPEC, CXL_SPEC])
        perf = PerfCounters()
        out = model.solve(solved_shares(misses=1_000_000), compute_cycles=1e6)
        before = perf.read()
        perf.advance(out, jitter=np.exp(np.random.default_rng(0).normal(0.0, 0.01, 4)))
        delta = perf.read().delta(before)
        truth = out.tier_loads[Tier.SLOW].misses
        assert delta.llc_misses[Tier.SLOW] == pytest.approx(truth, rel=0.05)
        assert delta.llc_misses[Tier.SLOW] != truth
