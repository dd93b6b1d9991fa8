"""Sort-based set primitives: the only kind of set algebra ``repro`` uses.

Since numpy 2.3 a plain ``np.unique`` (and the ``np.*1d`` set operations,
which call it) hashes; at window-loop sizes that is ~17x slower than one
sort + run-flag pass, which returns the same array.  So sorted-unique sets
come from the helpers below; ``np.intersect1d``/``np.setdiff1d``/
``np.setxor1d`` pass ``assume_unique=True`` where their operands are
sorted-unique by construction (masked subsets of a ``sorted_unique``
result, or an ``np.arange``); and ``np.union1d`` is not used.
``tests/test_set_algebra.py`` checks each rewrite against numpy and fails
on any call in ``src/repro`` that can take the hash path.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer arrays, via sort + run flags."""
    values = np.ravel(values)
    if values.size <= 1:
        return values.copy()
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def sorted_unique_counts(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``np.unique(values, return_counts=True)`` via sort + run flags."""
    return run_lengths(np.sort(values))


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a non-empty sorted array."""
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return np.flatnonzero(keep)


def run_lengths(ordered: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The distinct values of a sorted array and the length of each run."""
    if ordered.size == 0:
        return ordered.copy(), np.zeros(0, dtype=np.intp)
    starts = run_starts(ordered)
    lengths = np.empty(starts.size, dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = ordered.size - starts[-1]
    return ordered[starts], lengths


def merge_sorted_unique(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Union of two sorted-unique arrays, sorted ascending.

    ``extra`` may contain values already in ``base``; the result is the
    sorted set union (what rebuilding via ``np.flatnonzero`` over a
    membership mask would produce).  O(base + extra) via a positional
    merge instead of a full re-sort.
    """
    if extra.size == 0:
        return base
    if base.size == 0:
        return extra
    # Positional merge: find each extra value's insertion point, drop
    # duplicates, then interleave with one allocation.
    pos = np.searchsorted(base, extra)
    hit = (pos < base.size) & (base[np.minimum(pos, base.size - 1)] == extra)
    fresh = extra[~hit]
    if fresh.size == 0:
        return base
    pos = pos[~hit]
    out = np.empty(base.size + fresh.size, dtype=base.dtype)
    dest = pos + np.arange(fresh.size)
    out[dest] = fresh
    mask = np.ones(out.size, dtype=bool)
    mask[dest] = False
    out[mask] = base
    return out
