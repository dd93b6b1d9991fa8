"""Deterministic random-number utilities.

Every stochastic component of the simulator draws from a
``numpy.random.Generator`` that is derived from an explicit seed so that
runs are reproducible.  Hardware draws (PEBS samples, counter jitter)
come from :class:`KeyedStream`: one Philox family per ``(seed,
purpose)``, positioned by window, so no subsystem perturbs another's
stream.
"""

from __future__ import annotations

import numpy as np


#: Domain tag mixed into every keyed derivation.  Part of the key
#: material: changing it changes every keyed draw (and every digest).
_KEYED_DOMAIN = 0x52E2


def philox_key(seed: int, purpose: str) -> np.ndarray:
    """A 128-bit Philox key for one ``(seed, purpose)`` substream family.

    Keyed hardware draws (:mod:`repro.hw.substream`) identify every
    draw by *what it is*, not by when it happens: the key fixes the
    (seed, purpose) family and the Philox counter word selects the
    window (:class:`KeyedStream`).  The derivation hashes the purpose
    label with a platform-stable hash, together with the seed and a
    fixed domain tag.
    """
    ss = np.random.SeedSequence((seed, _KEYED_DOMAIN, _stable_hash(purpose)))
    return ss.generate_state(2, dtype=np.uint64)


class KeyedStream:
    """One ``(seed, purpose)`` substream family, repositioned per counter.

    :meth:`at` returns the family's generator at one counter position:
    the counter occupies the highest of Philox's four 64-bit counter
    words, leaving the low words free for the generator's own
    in-stream advancement.  Same ``(key, counter)``, same draws --
    Philox is a pure function of both -- so a value drawn here is
    reproducible from its identity alone.  Writing the counter into one
    bit generator's state is bit-identical to building a fresh
    ``Philox(counter=..., key=...)`` (a Philox state *is* its key,
    counter and empty output buffer) at about a fifth of the cost.  The
    returned generator is shared: each call repositions it, so draw
    from it before the next call.
    """

    __slots__ = ("_bitgen", "_gen", "_state", "_counter")

    def __init__(self, seed: int, purpose: str):
        self._bitgen = np.random.Philox(key=philox_key(seed, purpose))
        self._gen = np.random.Generator(self._bitgen)
        #: The fresh state (empty output buffer), reused for every
        #: window: only its counter word changes, and the setter copies.
        self._state = self._bitgen.state
        self._counter = self._state["state"]["counter"]

    def at(self, counter: int) -> np.random.Generator:
        self._counter[3] = counter
        self._bitgen.state = self._state
        return self._gen


def _stable_hash(label: str) -> int:
    """A platform-stable 64-bit hash of ``label`` (``hash()`` is salted)."""
    acc = 1469598103934665603  # FNV-1a offset basis
    for byte in label.encode("utf-8"):
        acc ^= byte
        acc = (acc * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return acc
