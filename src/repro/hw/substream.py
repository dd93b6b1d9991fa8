"""Counter-keyed RNG substreams: the simulator's one draw convention.

Every stochastic hardware signal is keyed by *identity*, not stream
position: a Philox generator keyed by (seed, purpose) with the window
index in its counter word (:class:`repro.common.rngutil.KeyedStream`).
Per window, each consumer draws a trace-determined set in one
vectorised pass:

* **PEBS** (:class:`repro.hw.pebs.PebsSampler`) draws a Bernoulli
  1-in-``rate`` process over the window's miss stream as geometric
  gaps, maps the sampled misses to their trace entries, and thins
  store traffic by the groups' load fractions.  Placement only selects
  among the sampled entries afterwards.
* **CHA jitter** draws one (occupancy, busy) factor pair per
  (group, tier) cell of the window; rows of the solved share batch
  gather their pair by ``group_index * T + tier_code``.
* **perf jitter** draws one (miss, stall) factor pair per tier.

A draw therefore depends only on (seed, purpose, window, the window's
trace entries) and its consumer's parameters (PEBS rate and load
thinning; jitter noise and length).  Draws are invariant to window
order, to which other windows were drawn, to lockstep grouping, and to
live versus replayed traffic.  Policies compared at one seed see
*common random numbers*: identical PEBS samples and jitter wherever
their placements agree.

So a draw need only be made once per stream.  A live run draws every
window as it reaches it.  A replayed run asks its stream's
:class:`~repro.hw.drawplan.StreamMemo` first, keyed by exactly those
inputs: the first run to reach a window draws it, and every later run
replaying the stream in the process (any policy, ratio or lockstep
group at the same seed) reads the stored value.  Nothing is drawn
before the window that first asks for it.
"""

from __future__ import annotations

import numpy as np

from repro.common.rngutil import KeyedStream
from repro.hw.pebs import PebsSampler

#: The keyed PEBS sampler is :class:`~repro.hw.pebs.PebsSampler` itself.
#: The name stays because the end-to-end benchmark's tracer imports it;
#: a later benchmark change retargets the tracer and retires the alias.
KeyedPebsSampler = PebsSampler


class KeyedJitter:
    """Keyed multiplicative jitter factors, one substream per window.

    Serves ``exp(Normal(0, noise))`` factors whose values depend only
    on (seed, purpose, window, position-in-window).  With ``memo`` (a
    replayed stream's :class:`~repro.hw.drawplan.StreamMemo`) each
    (window, length) is drawn once per stream.
    """

    __slots__ = ("noise", "_stream", "_memo", "_memo_key")

    def __init__(self, seed: int, purpose: str, noise: float, memo=None):
        if noise <= 0.0:
            raise ValueError("keyed jitter needs a positive noise scale")
        self.noise = noise
        self._stream = KeyedStream(seed, purpose)
        self._memo = memo
        # The memo key is every input of _draw but the window and the
        # length: a new input to the draw must enter it.
        self._memo_key = ("jitter", purpose, seed, noise)

    def window_values(self, window: int, n: int) -> np.ndarray:
        if self._memo is None:
            return self._draw(window, n)
        # The length enters the key: the CHA draw spans the window's
        # (group, tier) cells, and tier elision changes the tier count
        # of runs at one seed.
        return self._memo.recall((self._memo_key, n, window), self._draw, window, n)

    def _draw(self, window: int, n: int) -> np.ndarray:
        return np.exp(self._stream.at(window).normal(0.0, self.noise, size=n))


__all__ = ["KeyedJitter", "KeyedPebsSampler"]
