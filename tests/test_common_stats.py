"""Statistics helpers: quantiles, pearson, CDFs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import cdf_points, pearson, quantiles_linear


class TestQuantilesLinear:
    """The fast path must be np.quantile bit for bit, not approximately."""

    @settings(max_examples=150)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_matches_numpy_exactly(self, values, qs):
        arr = np.asarray(values, dtype=np.float64)
        q = np.asarray(qs, dtype=np.float64)
        np.testing.assert_array_equal(quantiles_linear(arr, q), np.quantile(arr, q))

    @pytest.mark.parametrize("n", [1, 2, 3, 100])
    def test_edge_quantiles(self, n):
        arr = np.random.default_rng(n).random(n)
        q = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(quantiles_linear(arr, q), np.quantile(arr, q))

    def test_input_not_mutated(self):
        arr = np.array([3.0, 1.0, 2.0])
        quantiles_linear(arr, np.array([0.5]))
        assert arr.tolist() == [3.0, 1.0, 2.0]


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v for v in x]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_zero_variance_returns_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_short_input_returns_zero(self):
        assert pearson([1.0], [2.0]) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_matches_numpy(self, rng):
        x = rng.normal(size=200)
        y = 0.7 * x + rng.normal(scale=0.5, size=200)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-10)


class TestCdf:
    def test_sorted_and_normalised(self):
        xs, fracs = cdf_points([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert fracs[-1] == pytest.approx(1.0)
        assert fracs[0] == pytest.approx(1 / 3)

    def test_empty(self):
        xs, fracs = cdf_points([])
        assert xs.size == 0 and fracs.size == 0
