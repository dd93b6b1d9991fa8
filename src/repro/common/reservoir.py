"""Reservoir sampling (Vitter's Algorithm R).

PACT uses a fixed-size reservoir of PAC values to estimate the quartiles
that feed the Freedman-Diaconis bin-width rule (§4.5, Algorithm 3).  The
reservoir keeps a uniform sample of all values observed so far without
knowing the stream length in advance: the first ``k`` observations fill
the buffer, after which observation ``n`` replaces a random slot with
probability ``k / n``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.common.stats import _QUARTILE_QS, quantiles_linear


class Reservoir:
    """Fixed-capacity uniform sample over an unbounded stream of floats."""

    def __init__(self, capacity: int = 100, rng: Optional[np.random.Generator] = None):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Preallocated sample buffer; only the first ``_size`` slots are
        # live.  An ndarray (rather than a list) keeps quartiles() free
        # of a per-call list-to-array conversion.
        self._data = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._seen = 0

    def __len__(self) -> int:
        return self._size

    @property
    def seen(self) -> int:
        """Total number of observations offered to the reservoir."""
        return self._seen

    def offer_many(self, values: Iterable[float]) -> None:
        """Offer a batch of observations, in order.

        Bit-identical to offering them one at a time (Algorithm 3, lines
        4-6: observation ``n`` replaces slot ``integers(0, n)`` when that
        slot exists; ``tests/oracles.py`` keeps that loop).  The
        steady-state loop draws one bounded integer per observation, with
        the bound advancing by one each draw.  numpy's broadcast
        ``integers(0, highs)`` consumes the generator stream exactly as
        the equivalent sequence of scalar calls does (same values, same
        state afterwards), so the whole batch collapses into a single
        vectorised draw; only the rare replacement hits (``capacity/seen``
        each, i.e. O(capacity * log(seen)) in total) touch the buffer.
        """
        if isinstance(values, np.ndarray):
            values = values.astype(np.float64, copy=False).ravel()
        else:
            values = np.asarray(list(values), dtype=np.float64)
        if values.size == 0:
            return
        start = 0
        room = self.capacity - self._size
        if room > 0:
            take = min(room, values.size)
            self._data[self._size : self._size + take] = values[:take]
            self._size += take
            self._seen += take
            start = take
        rest = values[start:]
        if rest.size == 0:
            return
        highs = self._seen + 1 + np.arange(rest.size, dtype=np.int64)
        slots = self._rng.integers(0, highs)
        self._seen += int(rest.size)
        hit = slots < self.capacity
        # Duplicate slots resolve last-write-wins, exactly as in the loop.
        self._data[slots[hit]] = rest[hit]

    def values(self) -> np.ndarray:
        """Copy of the current sample."""
        return self._data[: self._size].copy()

    def quartiles(self) -> "tuple[float, float]":
        """(Q1, Q3) of the current sample; (0, 0) when empty."""
        if self._size == 0:
            return (0.0, 0.0)
        q1, q3 = quantiles_linear(self._data[: self._size], _QUARTILE_QS)
        return float(q1), float(q3)
