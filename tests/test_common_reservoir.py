"""Reservoir sampling: capacity, uniformity, quartile estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.reservoir import Reservoir

from oracles import reservoir_offer


def test_fills_to_capacity_then_stays_bounded(rng):
    r = Reservoir(capacity=10, rng=rng)
    for i in range(100):
        r.offer_many([float(i)])
    assert len(r) == 10
    assert r.seen == 100


def test_first_k_enter_directly(rng):
    r = Reservoir(capacity=5, rng=rng)
    for i in range(5):
        r.offer_many([float(i)])
        assert len(r) == i + 1
    assert sorted(r.values()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_invalid_capacity():
    with pytest.raises(ValueError):
        Reservoir(capacity=0)


def test_quartiles_of_empty():
    assert Reservoir(capacity=4).quartiles() == (0.0, 0.0)


def test_uniform_sampling_statistics():
    """Each stream element should appear in the final sample with
    probability ~k/n (Vitter's invariant)."""
    n, k, trials = 400, 20, 600
    first_half_hits = 0
    for t in range(trials):
        r = Reservoir(capacity=k, rng=np.random.default_rng(t))
        r.offer_many(float(i) for i in range(n))
        first_half_hits += int((r.values() < n / 2).sum())
    mean_first_half = first_half_hits / trials
    # Expected k/2 elements from the first half; allow generous slack.
    assert mean_first_half == pytest.approx(k / 2, abs=1.0)


def test_quartiles_approximate_stream_quartiles():
    rng = np.random.default_rng(5)
    r = Reservoir(capacity=100, rng=rng)
    data = rng.exponential(scale=10.0, size=20_000)
    r.offer_many(data)
    q1, q3 = r.quartiles()
    tq1, tq3 = np.percentile(data, [25, 75])
    assert q1 == pytest.approx(tq1, rel=0.5)
    assert q3 == pytest.approx(tq3, rel=0.5)


@settings(max_examples=25)
@given(st.integers(1, 40), st.lists(st.floats(0, 1e6), max_size=200))
def test_size_never_exceeds_capacity(capacity, values):
    r = Reservoir(capacity=capacity, rng=np.random.default_rng(0))
    r.offer_many(values)
    assert len(r) == min(capacity, len(values))
    assert r.seen == len(values)


class TestBatchLoopEquivalence:
    """``offer_many`` must be bit-identical to the one-at-a-time oracle.

    The vectorised batch path replaced a per-value loop on the hot path
    (AdaptiveBinner.observe); identical buffer contents, stream counter,
    AND post-call RNG state guarantee every downstream draw -- and thus
    every simulated result -- is unchanged.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 50),
        st.lists(
            st.lists(st.floats(0, 1e9, allow_nan=False), max_size=80), max_size=5
        ),
    )
    def test_batches_match_loop_exactly(self, seed, capacity, batches):
        looped = Reservoir(capacity=capacity, rng=np.random.default_rng(seed))
        batched = Reservoir(capacity=capacity, rng=np.random.default_rng(seed))
        for batch in batches:
            for value in batch:
                reservoir_offer(looped, value)
            batched.offer_many(batch)
        assert looped.seen == batched.seen
        assert np.array_equal(looped.values(), batched.values())
        # The generators consumed identical streams: their next draws agree.
        assert looped._rng.integers(0, 1 << 62) == batched._rng.integers(0, 1 << 62)

    def test_ndarray_and_iterable_inputs_agree(self):
        a = Reservoir(capacity=8, rng=np.random.default_rng(3))
        b = Reservoir(capacity=8, rng=np.random.default_rng(3))
        data = np.linspace(0.0, 99.0, 100)
        a.offer_many(data)
        b.offer_many(float(v) for v in data)
        assert np.array_equal(a.values(), b.values())
        assert a.seen == b.seen
