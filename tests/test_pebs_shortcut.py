"""PEBS stage-1 shortcut: all-load rows skip the load-thinning draw.

``binomial(n, 1.0)`` returns ``n`` and consumes exactly one double per
nonzero ``n``, so :class:`~repro.hw.pebs.PebsSampler` advances its PCG64
stream instead of calling it, and the schema-2
:class:`~repro.hw.substream.KeyedPebsSampler` consumes the same doubles
with ``random(k)``.  The canaries pin that numpy behaviour by name; the
property tests compare the shortcut draws with numpy's plain two-stage
calls, records *and* the generator position afterwards, including
windows whose all-load and store-carrying entries alternate in runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.rngutil import keyed_generator, philox_key
from repro.hw.pebs import PebsSampler
from repro.hw.substream import KeyedPebsSampler
from repro.mem.page import Tier

from oracles import Share, make_batch

#: Above this ``n * p`` numpy's stage-2 binomial switches from the
#: inversion sampler to BTPE (``p * n > 30`` at ``p = 1/400``).
BTPE_COUNT = 12_001


def next_draws(rng, k=4):
    return rng.random(k)


class TestNumpyCanary:
    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox])
    def test_binomial_p1_returns_n_and_takes_one_double_per_nonzero(self, bitgen):
        counts = np.array([0, 3, 0, 1, 50_000, 7, 0, BTPE_COUNT], dtype=np.int64)
        drawn = np.random.Generator(bitgen(123))
        twin = np.random.Generator(bitgen(123))
        np.testing.assert_array_equal(drawn.binomial(counts, 1.0), counts)
        twin.random(int(np.count_nonzero(counts)))
        np.testing.assert_array_equal(next_draws(drawn), next_draws(twin))

    def test_pcg64_advance_counts_doubles(self):
        drawn = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        drawn.random(9)
        twin.bit_generator.advance(9)
        np.testing.assert_array_equal(next_draws(drawn), next_draws(twin))

    def test_philox_advance_does_not_count_doubles(self):
        # Why the keyed sampler consumes with random(k), not advance(k).
        drawn = np.random.Generator(np.random.Philox(7))
        twin = np.random.Generator(np.random.Philox(7))
        drawn.random(9)
        twin.bit_generator.advance(9)
        assert not np.array_equal(next_draws(drawn), next_draws(twin))


def reference_draw(rng, rows, rate, loads_only):
    """numpy's plain two-stage thinning, one row at a time."""
    out = []
    for counts, lf in rows:
        if loads_only:
            counts = rng.binomial(counts, lf)
        out.append(rng.binomial(counts, 1.0 / rate))
    return out


counts_strategy = st.lists(
    st.one_of(
        st.integers(0, 0),
        st.integers(1, 40),
        st.integers(BTPE_COUNT, 60_000),
    ),
    min_size=0,
    max_size=12,
)
row_strategy = st.tuples(counts_strategy, st.sampled_from([1.0, 1.0, 1.0, 0.7, 0.25]))


@settings(max_examples=60, deadline=None)
@example(rows=[([0, 7, BTPE_COUNT, 0], 1.0), ([], 1.0), ([3, 0, 30_000], 0.7), ([0, 0], 1.0),
               ([BTPE_COUNT, 1], 1.0)], seed=2, loads_only=True, rate=400)
@given(
    rows=st.lists(row_strategy, min_size=0, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    loads_only=st.booleans(),
    rate=st.sampled_from([1, 61, 400]),
)
def test_schema1_shortcut_matches_two_stage_draws(rows, seed, loads_only, rate):
    rows = [(np.asarray(c, dtype=np.int64), lf) for c, lf in rows]
    shares = [
        Share(
            group_index=i, tier=Tier.SLOW, pages=np.arange(c.size, dtype=np.int64),
            counts=c, mlp=4.0, load_fraction=lf,
        )
        for i, (c, lf) in enumerate(rows)
    ]
    # A fast-tier share in between is skipped, as the sampler only walks
    # the requested tiers.
    shares.insert(0, Share(
        group_index=99, tier=Tier.FAST, pages=np.arange(3, dtype=np.int64),
        counts=np.array([5, 0, 9], dtype=np.int64), mlp=1.0, load_fraction=0.5,
    ))
    sampler = PebsSampler(rate=rate, rng=np.random.default_rng(seed), loads_only=loads_only)
    _, records, _ = sampler.draw(make_batch(shares), tiers=(Tier.SLOW,))
    twin = np.random.default_rng(seed)
    expected = reference_draw(twin, rows, rate, loads_only)
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(next_draws(sampler._rng), next_draws(twin))


@settings(max_examples=40, deadline=None)
@example(counts=[0, 5, 0, BTPE_COUNT, 3, 0, 20_000], seed=1, window=3, pattern="all-load",
         loads_only=True, rate=400)
@example(counts=[BTPE_COUNT, 0, 5, 0, 3, 20_000, 0, 9, 40_000], seed=1, window=3,
         pattern="runs", loads_only=True, rate=1)
@given(
    counts=counts_strategy,
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(0, 500),
    pattern=st.sampled_from(["all-load", "alternate", "runs"]),
    loads_only=st.booleans(),
    # rate 1 makes stage 2 the identity too, so records expose stage 1.
    rate=st.sampled_from([1, 400]),
)
def test_schema2_shortcut_matches_two_stage_draws(
    counts, seed, window, pattern, loads_only, rate
):
    counts = np.asarray(counts, dtype=np.int64)
    lf = np.ones(counts.size)
    if pattern == "alternate":
        lf[::2] = 0.6
    elif pattern == "runs":
        # Two store-carrying runs around an all-load run, as windows
        # whose groups differ in load fraction lay them out.
        third = counts.size // 3
        lf[:third] = 0.6
        lf[2 * third :] = 0.3
    sampler = KeyedPebsSampler(
        seed=seed, rate=rate, cycles_per_record=150.0, sampled_codes=[1],
        num_tiers=2, loads_only=loads_only,
    )
    got = sampler.window_records(window, counts, lf)
    rng = keyed_generator(philox_key(seed, "pebs"), window)
    (want,) = reference_draw(rng, [(counts, lf)], rate, loads_only)
    np.testing.assert_array_equal(got, want)
