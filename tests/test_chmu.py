"""CHMU (CXL 3.2 hotness-monitoring) access-sampling backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_policy
from repro.core.pact import PactPolicy
from repro.hw.chmu import ChmuSampler, drain_hotlist
from repro.mem.page import UNALLOCATED, Tier
from repro.sim.config import MachineConfig
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.workloads import make_workload


def window(tier=Tier.SLOW, misses=8_000):
    """One window's entries, all resident in ``tier``: (pages, counts, tiers)."""
    pages = np.arange(16)
    counts = np.full(16, misses // 16, dtype=np.int64)
    return pages, counts, np.full(16, int(tier), dtype=np.int8)


class TestChmuSampler:
    def test_exact_counts(self):
        chmu = ChmuSampler(footprint_pages=64)
        batch = chmu.sample(*window())
        assert batch.rate == 1
        assert batch.total_records == 8_000
        assert np.array_equal(batch.estimated_accesses(), batch.counts)

    def test_only_own_tier_visible(self):
        chmu = ChmuSampler(footprint_pages=64)
        batch = chmu.sample(*window(tier=Tier.FAST))
        assert batch.total_records == 0

    def test_epoch_gating(self):
        chmu = ChmuSampler(footprint_pages=64, epoch_windows=3)
        assert chmu.sample(*window()).total_records == 0
        assert chmu.sample(*window()).total_records == 0
        batch = chmu.sample(*window())
        assert batch.total_records == 3 * 8_000  # whole epoch drained

    def test_hotlist_bounds_report_size(self):
        chmu = ChmuSampler(footprint_pages=64, hotlist_size=4)
        pages = np.arange(16)
        counts = np.arange(1, 17, dtype=np.int64) * 100
        batch = chmu.sample(pages, counts, np.full(16, int(Tier.SLOW), dtype=np.int8))
        assert batch.pages.size == 4
        # The hotlist keeps the hottest pages.
        assert set(batch.pages) == {12, 13, 14, 15}

    def test_counters_clear_after_drain(self):
        chmu = ChmuSampler(footprint_pages=64)
        first = chmu.sample(*window())
        second = chmu.sample(*window())
        assert first.total_records == second.total_records

    def test_validation(self):
        with pytest.raises(ValueError):
            ChmuSampler(footprint_pages=8, hotlist_size=0)
        with pytest.raises(ValueError):
            ChmuSampler(footprint_pages=8, epoch_windows=0)


def dense_hotlists(windows, footprint, epoch_windows, hotlist_size, readout, tier):
    """The reference: one footprint-sized counter array per epoch, filled
    by ``np.add.at`` with the entries resident in ``tier``, drained to
    the top ``hotlist_size`` pages at each epoch boundary."""
    out = []
    acc = np.zeros(footprint, dtype=np.int64)
    for w, (pages, counts, tiers) in enumerate(windows):
        mine = tiers == tier
        np.add.at(acc, pages[mine], counts[mine])
        if (w + 1) % epoch_windows:
            out.append(None)
            continue
        touched = np.flatnonzero(acc)
        out.append(drain_hotlist(touched, acc[touched], hotlist_size, readout))
        acc[:] = 0
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    epoch_windows=st.sampled_from([1, 2, 3]),
    num_tiers=st.sampled_from([2, 3]),
    hotlist_size=st.sampled_from([1, 8, 2048]),
)
def test_sampler_matches_dense_accumulation(seed, epoch_windows, num_tiers, hotlist_size):
    """Sparse per-epoch aggregation == dense ``np.add.at`` + top-K drain,
    over windows with repeated pages, zero counts, UNALLOCATED entries
    and entries in every other tier."""
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(8, 300))
    windows = []
    for _ in range(int(rng.integers(1, 8))):
        n = int(rng.integers(0, 200))
        pages = rng.integers(0, footprint, size=n).astype(np.int64)  # repeats allowed
        counts = rng.integers(0, 50, size=n).astype(np.int64)
        tiers = rng.integers(UNALLOCATED, num_tiers, size=n).astype(np.int8)
        windows.append((pages, counts, tiers))
    readout = 123.0
    chmu = ChmuSampler(
        footprint_pages=footprint,
        hotlist_size=hotlist_size,
        epoch_windows=epoch_windows,
        readout_cycles=readout,
    )
    want = dense_hotlists(
        windows, footprint, epoch_windows, hotlist_size, readout, int(chmu.tier)
    )
    for (pages, counts, tiers), ref in zip(windows, want):
        got = chmu.sample(pages, counts, tiers)
        if ref is None:
            assert got.total_records == 0 and got.overhead_cycles == 0.0
            continue
        np.testing.assert_array_equal(got.pages, ref.pages)
        np.testing.assert_array_equal(got.counts, ref.counts)
        assert got.pages.dtype == np.int64 and got.counts.dtype == np.int64
        assert got.overhead_cycles == ref.overhead_cycles
        assert got.pages.size <= hotlist_size


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
