"""Ground-truth stall model: MLP amortisation, latency, contention."""

import numpy as np
import pytest

from repro.common.units import CXL_SPEC, DRAM_SPEC, NUMA_SPEC
from repro.hw.access import AccessGroup, WindowTraffic
from repro.hw.stall import StallModel
from repro.mem.page import Tier

from oracles import Share, make_batch


def make_model():
    return StallModel([DRAM_SPEC, CXL_SPEC])


def share(misses=10_000, mlp=4.0, tier=Tier.SLOW):
    pages = np.arange(16)
    counts = np.full(pages.size, misses // pages.size, dtype=np.int64)
    return Share(group_index=0, tier=tier, pages=pages, counts=counts, mlp=mlp)


def one_share(**kwargs):
    """A one-row batch."""
    return make_batch([share(**kwargs)])


class TestSplitGroups:
    def test_splits_by_placement(self):
        model = make_model()
        placement = np.array([0, 0, 1, 1], dtype=np.int8)
        group = AccessGroup(pages=np.arange(4), counts=np.array([1, 2, 3, 4]), mlp=3.0)
        shares = model.split_groups(WindowTraffic.from_groups([group], 0.0), placement)
        assert shares.n == 2
        [fast] = np.flatnonzero(shares.tier_codes == int(Tier.FAST))
        [slow] = np.flatnonzero(shares.tier_codes == int(Tier.SLOW))
        assert shares.misses[fast] == 3
        assert shares.misses[slow] == 7
        assert shares.mlp[fast] == 3.0

    def test_load_fraction_propagates(self):
        model = make_model()
        placement = np.zeros(2, dtype=np.int8)
        group = AccessGroup(
            pages=np.arange(2), counts=np.ones(2, dtype=np.int64), mlp=2.0, load_fraction=0.5
        )
        shares = model.split_groups(WindowTraffic.from_groups([group], 0.0), placement)
        assert shares.load_fraction[0] == 0.5


class TestSolve:
    def test_mlp_amortises_stalls(self):
        model = make_model()
        low = model.solve(one_share(mlp=2.0), compute_cycles=1e6)
        high = model.solve(one_share(mlp=16.0), compute_cycles=1e6)
        # 8x MLP -> ~8x fewer stall cycles (same traffic, light load).
        ratio = low.total_stall_cycles / high.total_stall_cycles
        assert ratio == pytest.approx(8.0, rel=0.1)

    def test_slow_tier_stalls_exceed_fast(self):
        model = make_model()
        slow = model.solve(one_share(tier=Tier.SLOW), compute_cycles=1e6)
        fast = model.solve(one_share(tier=Tier.FAST), compute_cycles=1e6)
        assert (
            slow.total_stall_cycles / fast.total_stall_cycles
            == pytest.approx(CXL_SPEC.latency_ns / DRAM_SPEC.latency_ns, rel=0.15)
        )

    def test_duration_is_compute_plus_stalls_plus_extra(self):
        model = make_model()
        out = model.solve(one_share(), compute_cycles=5e5, extra_cycles=1e5)
        assert out.duration_cycles == pytest.approx(
            5e5 + 1e5 + out.total_stall_cycles, rel=0.05
        )

    def test_bandwidth_contention_inflates_latency(self):
        model = make_model()
        quiet = model.solve(one_share(), compute_cycles=2e6)
        noisy = model.solve(
            one_share(),
            compute_cycles=2e6,
            extra_bytes=[0.0, 5e7],  # hammer the slow link
        )
        quiet_lat = quiet.tier_loads[Tier.SLOW].effective_latency_cycles
        noisy_lat = noisy.tier_loads[Tier.SLOW].effective_latency_cycles
        assert noisy_lat > quiet_lat * 1.2
        assert noisy.total_stall_cycles > quiet.total_stall_cycles

    def test_utilisation_capped(self):
        model = make_model()
        out = model.solve(
            one_share(), compute_cycles=1e5, extra_bytes=[1e12, 0.0]
        )
        assert out.tier_loads[Tier.FAST].utilisation <= 0.96

    def test_empty_window(self):
        model = make_model()
        out = model.solve(make_batch([]), compute_cycles=1000.0)
        assert out.total_stall_cycles == 0.0
        assert out.duration_cycles >= 1000.0

    def test_per_page_ground_truth_sums_to_share_stalls(self):
        model = make_model()
        record = share(misses=8000, mlp=4.0)
        solved = model.solve(make_batch([record]), compute_cycles=1e6).shares
        unit = solved.unit_stall_cycles[0]
        per_page = record.counts * unit
        assert per_page.sum() == pytest.approx(solved.misses_f[0] * unit, rel=1e-9)

    def test_numa_latency_between_dram_and_cxl(self):
        dram = StallModel([DRAM_SPEC, DRAM_SPEC]).solve(one_share(), 1e6)
        numa = StallModel([DRAM_SPEC, NUMA_SPEC]).solve(one_share(), 1e6)
        cxl = StallModel([DRAM_SPEC, CXL_SPEC]).solve(one_share(), 1e6)
        assert (
            dram.total_stall_cycles < numa.total_stall_cycles < cxl.total_stall_cycles
        )

    def test_harmonic_tier_mlp(self):
        model = make_model()
        shares = make_batch([share(misses=10_000, mlp=2.0), share(misses=10_000, mlp=8.0)])
        out = model.solve(shares, compute_cycles=1e6)
        # Miss-weighted harmonic mean of 2 and 8 with equal misses: 3.2.
        assert out.tier_loads[Tier.SLOW].mlp == pytest.approx(3.2, rel=1e-6)


class TestAccessGroupValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            AccessGroup(pages=np.arange(3), counts=np.arange(2), mlp=2.0)

    def test_nonpositive_mlp_rejected(self):
        with pytest.raises(ValueError):
            AccessGroup(pages=np.arange(2), counts=np.arange(2), mlp=0.0)

    def test_bad_load_fraction_rejected(self):
        with pytest.raises(ValueError):
            AccessGroup(pages=np.arange(2), counts=np.arange(2), mlp=1.0, load_fraction=1.5)
