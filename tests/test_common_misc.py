"""EWMA, RNG derivation, and table formatting."""

import numpy as np
import pytest

from repro.common.ewma import Ewma
from repro.common.rngutil import child_seeds, make_rng
from repro.common.tables import format_count, format_pct, format_series, format_table


class TestEwma:
    def test_first_sample_primes(self):
        e = Ewma(alpha=0.5)
        assert not e.primed
        assert e.update(10.0) == 10.0
        assert e.primed

    def test_smoothing(self):
        e = Ewma(alpha=0.5)
        e.update(0.0)
        assert e.update(10.0) == pytest.approx(5.0)
        assert e.update(10.0) == pytest.approx(7.5)

    def test_alpha_one_tracks_exactly(self):
        e = Ewma(alpha=1.0)
        e.update(3.0)
        assert e.update(9.0) == 9.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    def test_reset(self):
        e = Ewma(alpha=0.3)
        e.update(5.0)
        e.reset()
        assert not e.primed
        assert e.value == 0.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_child_seeds_distinct(self):
        seeds = list(child_seeds(1, 20))
        assert len(set(seeds)) == 20


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["long-cell", 3]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in lines[2]

    def test_format_count_paper_style(self):
        assert format_count(550_000) == "550K"
        assert format_count(1_200_000) == "1.2M"
        assert format_count(42) == "42"
        assert format_count(3_000_000_000) == "3.0B"

    def test_format_pct_signed(self):
        assert format_pct(0.105) == "+10.5%"
        assert format_pct(-0.02) == "-2.0%"

    def test_format_series(self):
        out = format_series("promotions", [1, 2], [10.0, 20.0], unit="pages")
        assert "promotions" in out
        assert out.count("\n") == 2
