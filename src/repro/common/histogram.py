"""Histogram binning rules used by the adaptive promotion policy.

The Freedman-Diaconis rule picks a bin width from the interquartile
range, which makes it robust to the heavy right tails that PAC
distributions exhibit (§4.5):

    W = 2 * (Q3 - Q1) / cbrt(n)
"""

from __future__ import annotations


def freedman_diaconis_width(q1: float, q3: float, n: int) -> float:
    """Bin width from the Freedman-Diaconis rule.

    Returns 0.0 when the rule degenerates (no spread or no data); the
    caller is expected to fall back to its previous width in that case.
    """
    if n <= 0:
        return 0.0
    iqr = q3 - q1
    if iqr <= 0.0:
        return 0.0
    return 2.0 * iqr / float(n) ** (1.0 / 3.0)
