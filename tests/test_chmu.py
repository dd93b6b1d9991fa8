"""CHMU (CXL 3.2 hotness-monitoring) access-sampling backend."""

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.core.pact import PactPolicy
from repro.hw.chmu import ChmuSampler
from repro.hw.stall import StallModel
from repro.mem.page import Tier
from repro.sim.config import MachineConfig
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.workloads import make_workload

from oracles import Share, make_batch


def solved_shares(tier=Tier.SLOW, misses=8_000):
    pages = np.arange(16)
    counts = np.full(16, misses // 16, dtype=np.int64)
    share = Share(0, tier, pages, counts, mlp=4.0)
    return StallModel(DRAM_SPEC, CXL_SPEC).solve(make_batch([share]), 1e6).shares


class TestChmuSampler:
    def test_exact_counts(self):
        chmu = ChmuSampler(footprint_pages=64)
        batch = chmu.sample(solved_shares())
        assert batch.rate == 1
        assert batch.total_records == 8_000
        assert np.array_equal(batch.estimated_accesses(), batch.counts)

    def test_only_own_tier_visible(self):
        chmu = ChmuSampler(footprint_pages=64)
        batch = chmu.sample(solved_shares(tier=Tier.FAST))
        assert batch.total_records == 0

    def test_epoch_gating(self):
        chmu = ChmuSampler(footprint_pages=64, epoch_windows=3)
        assert chmu.sample(solved_shares()).total_records == 0
        assert chmu.sample(solved_shares()).total_records == 0
        batch = chmu.sample(solved_shares())
        assert batch.total_records == 3 * 8_000  # whole epoch drained

    def test_hotlist_bounds_report_size(self):
        chmu = ChmuSampler(footprint_pages=64, hotlist_size=4)
        pages = np.arange(16)
        counts = np.arange(1, 17, dtype=np.int64) * 100
        share = Share(0, Tier.SLOW, pages, counts, mlp=4.0)
        shares = StallModel(DRAM_SPEC, CXL_SPEC).solve(make_batch([share]), 1e6).shares
        batch = chmu.sample(shares)
        assert batch.pages.size == 4
        # The hotlist keeps the hottest pages.
        assert set(batch.pages) == {12, 13, 14, 15}

    def test_counters_clear_after_drain(self):
        chmu = ChmuSampler(footprint_pages=64)
        first = chmu.sample(solved_shares())
        second = chmu.sample(solved_shares())
        assert first.total_records == second.total_records

    def test_validation(self):
        with pytest.raises(ValueError):
            ChmuSampler(footprint_pages=8, hotlist_size=0)
        with pytest.raises(ValueError):
            ChmuSampler(footprint_pages=8, epoch_windows=0)


class TestPactOnChmu:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            PactPolicy(access_sampler="telepathy")

    def test_pact_with_chmu_beats_notier(self):
        clear_baseline_cache()
        cfg = MachineConfig()
        workload = make_workload("bc-kron", total_misses=8_000_000)
        base = ideal_baseline(workload, config=cfg)
        chmu_pact = run_policy(
            workload, PactPolicy(access_sampler="chmu"), ratio="1:2", config=cfg
        )
        notier = run_policy(workload, make_policy("NoTier"), ratio="1:2", config=cfg)
        assert chmu_pact.slowdown(base) < notier.slowdown(base)

    def test_chmu_at_least_as_accurate_as_pebs(self):
        """Exact controller-side counts should match or beat 1-in-400
        sampled counts for the same policy."""
        clear_baseline_cache()
        cfg = MachineConfig()
        workload = make_workload("bc-kron", total_misses=8_000_000)
        base = ideal_baseline(workload, config=cfg)
        chmu = run_policy(
            workload, PactPolicy(access_sampler="chmu"), ratio="1:2", config=cfg
        )
        pebs = run_policy(workload, PactPolicy(), ratio="1:2", config=cfg)
        assert chmu.slowdown(base) <= pebs.slowdown(base) + 0.03
