"""Small statistics helpers shared across the library.

These are deliberately dependency-light (numpy only) so that the core
policies do not require scipy at runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Returns 0.0 for degenerate inputs (fewer than two points or zero
    variance) rather than raising, since the model-fit benches feed it
    arbitrary workload populations.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.size != ay.size:
        raise ValueError("pearson() requires equal-length samples")
    if ax.size < 2:
        return 0.0
    sx = ax.std()
    sy = ay.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((ax - ax.mean()) * (ay - ay.mean())).mean() / (sx * sy))


def quantiles_linear(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` bit for bit, minus the generic machinery.

    ``np.quantile`` spends more time in axis/dtype dispatch than in the
    partition for the small arrays the policies feed it every window.
    This replica implements only the default ``'linear'`` method for a
    non-empty 1-D float64 array with no NaNs, reproducing numpy's
    arithmetic exactly: virtual index ``q * (n - 1)``, a partition at the
    floor and ceil positions, then numpy's ``_lerp`` including its
    ``t >= 0.5`` rewrite (``b - diff * (1 - t)``) so rounding matches in
    every bit.  The arithmetic runs on Python floats (IEEE doubles, as
    numpy's), which skips a dozen small-array dispatches for the one or
    two quantiles every per-window caller asks for.
    """
    n = values.size
    kth = []
    pos = []
    for q in qs.tolist():
        virtual = q * (n - 1.0)
        prev = float(np.floor(virtual))
        lo = int(prev)
        hi = min(lo + 1, n - 1)
        kth.append(lo)
        kth.append(hi)
        pos.append((lo, hi, virtual - prev))
    part = np.partition(values, kth)
    out = np.empty(qs.size, dtype=np.float64)
    for i, (lo, hi, gamma) in enumerate(pos):
        a = float(part[lo])
        b = float(part[hi])
        diff = b - a
        if gamma >= 0.5:
            out[i] = b - diff * (1.0 - gamma)
        else:
            out[i] = a + diff * gamma
    return out


_QUARTILE_QS = np.array([0.25, 0.75])


def cdf_points(values: Sequence[float]) -> "tuple[np.ndarray, np.ndarray]":
    """Empirical CDF of ``values`` as (sorted values, cumulative fraction)."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        return arr, arr
    frac = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return arr, frac
