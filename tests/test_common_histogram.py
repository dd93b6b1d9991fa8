"""The Freedman-Diaconis bin-width rule."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.histogram import freedman_diaconis_width


class TestFreedmanDiaconis:
    def test_formula(self):
        # W = 2 * IQR / cbrt(n)
        assert freedman_diaconis_width(1.0, 3.0, 8) == pytest.approx(2 * 2.0 / 2.0)

    def test_zero_iqr_degenerates(self):
        assert freedman_diaconis_width(2.0, 2.0, 100) == 0.0

    def test_no_data_degenerates(self):
        assert freedman_diaconis_width(1.0, 3.0, 0) == 0.0

    @given(
        st.floats(0, 1e6),
        st.floats(0, 1e6),
        st.integers(1, 10**9),
    )
    def test_nonnegative(self, q1, extra, n):
        assert freedman_diaconis_width(q1, q1 + extra, n) >= 0.0

    def test_width_shrinks_with_more_data(self):
        w_small = freedman_diaconis_width(0.0, 10.0, 10)
        w_big = freedman_diaconis_width(0.0, 10.0, 10_000)
        assert w_big < w_small
