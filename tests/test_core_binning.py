"""Adaptive binning: Freedman-Diaconis widths, scaling, top-bin selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import AdaptiveBinner


def make_binner(**kwargs):
    kwargs.setdefault("rng", np.random.default_rng(0))
    return AdaptiveBinner(**kwargs)


class TestConstruction:
    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            make_binner(num_bins=1)

    def test_rejects_bad_t_scale(self):
        with pytest.raises(ValueError):
            make_binner(t_scale=1.0)


class TestWidthAdaptation:
    def test_width_set_from_observations(self):
        b = make_binner()
        values = np.random.default_rng(1).uniform(0, 100, size=500)
        b.observe(values, n_tracked=500, n_candidates=10)
        assert b.width > 0.0

    def test_scaling_widens_when_candidates_scarce(self):
        b = make_binner(t_scale=50.0)
        values = np.random.default_rng(1).exponential(10.0, size=1000)
        b.observe(values, n_tracked=1000, n_candidates=100)
        w_balanced = b.width
        # Starved candidate supply (ratio >> t_scale) -> width grows.
        for _ in range(4):
            b.observe(values, n_tracked=1000, n_candidates=1)
        assert b.width > w_balanced

    def test_scaling_narrows_when_candidates_flood(self):
        b = make_binner(t_scale=50.0)
        values = np.random.default_rng(1).exponential(10.0, size=1000)
        b.observe(values, n_tracked=1000, n_candidates=1)
        w_wide = b.width
        for _ in range(6):
            b.observe(values, n_tracked=1000, n_candidates=900)
        assert b.width < w_wide

    def test_static_mode_freezes_first_width(self):
        b = make_binner(adaptive=False)
        values = np.random.default_rng(1).uniform(0, 100, size=400)
        b.observe(values, n_tracked=400, n_candidates=5)
        w0 = b.width
        b.observe(values * 100, n_tracked=400, n_candidates=5)
        assert b.width == w0

    def test_no_scaling_mode_tracks_fd_only(self):
        b = make_binner(scaling=False)
        values = np.random.default_rng(1).uniform(0, 100, size=400)
        b.observe(values, n_tracked=400, n_candidates=1)
        w1 = b.width
        b.observe(values, n_tracked=400, n_candidates=1)
        # Without scaling, starved candidates do not widen the bins.
        assert b.width == pytest.approx(w1, rel=0.2)

    def test_explicit_static_width(self):
        b = make_binner(static_width=5.0)
        values = np.random.default_rng(1).uniform(0, 100, size=400)
        b.observe(values, n_tracked=400, n_candidates=5)
        assert b.width == 5.0


class TestTopBin:
    def test_selects_extreme_slice(self):
        b = make_binner(static_width=10.0)
        values = np.array([1.0, 5.0, 50.0, 95.0, 100.0])
        mask = b.top_bin_mask(values)
        # Slice [90, 100]: the two highest values.
        assert list(values[mask]) == [95.0, 100.0]

    def test_zero_values_never_candidates(self):
        b = make_binner(static_width=1000.0)
        values = np.array([0.0, 0.0, 5.0])
        mask = b.top_bin_mask(values)
        assert not mask[0] and not mask[1]

    def test_empty_input(self):
        b = make_binner()
        assert b.top_bin_mask(np.array([])).size == 0

    def test_all_zero(self):
        b = make_binner(static_width=1.0)
        assert not b.top_bin_mask(np.zeros(5)).any()

    def test_narrower_width_fewer_candidates(self):
        values = np.random.default_rng(3).exponential(10.0, size=2000)
        wide = make_binner(static_width=30.0).top_bin_mask(values).sum()
        narrow = make_binner(static_width=3.0).top_bin_mask(values).sum()
        assert narrow <= wide

    def test_unset_width_selects_all_positive(self):
        b = make_binner()
        values = np.array([0.0, 1.0, 2.0])
        mask = b.top_bin_mask(values)
        assert list(mask) == [False, True, True]

    @settings(max_examples=30)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=100), st.floats(0.1, 1e5))
    def test_candidates_always_include_max(self, values, width):
        values = np.asarray(values)
        b = make_binner(static_width=width)
        mask = b.top_bin_mask(values)
        if (values > 0).any():
            assert mask[np.argmax(values)]


class TestDebugInfo:
    def test_debug_info_keys(self):
        b = make_binner()
        info = b.debug_info()
        assert {"bin_width", "scale_exp", "reservoir_seen"} <= set(info)
