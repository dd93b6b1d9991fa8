"""Adaptive binning for promotion candidate selection (§4.5, Algorithm 3).

PAC distributions are heavily skewed and drift over time, so static
thresholds either starve promotion or cause migration storms.  PACT
instead keeps a histogram over PAC values whose bin width adapts:

* a fixed-size **reservoir** maintains a uniform sample of observed PAC
  values without tracking the full distribution,
* the **Freedman-Diaconis rule** turns the reservoir's interquartile
  range into a robust base bin width,
* a symmetric **scaling** loop doubles/halves the width to keep the
  highest-priority bin at a small, stable fraction of tracked pages
  (the top 1-5%), bounding the promotion-candidate supply.

Pages in the highest non-empty bin are the promotion candidates.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.histogram import freedman_diaconis_width
from repro.common.reservoir import Reservoir

DEFAULT_NUM_BINS = 20
DEFAULT_RESERVOIR = 100

#: Target ratio N_page / N_candidates; the scaling rule keeps the top
#: bin near 1/T_scale of tracked pages (~2%).
DEFAULT_T_SCALE = 50.0

_MIN_SCALE_EXP = -12
_MAX_SCALE_EXP = 12


class AdaptiveBinner:
    """Histogram binning with reservoir-fed Freedman-Diaconis widths."""

    def __init__(
        self,
        num_bins: int = DEFAULT_NUM_BINS,
        reservoir_size: int = DEFAULT_RESERVOIR,
        t_scale: float = DEFAULT_T_SCALE,
        adaptive: bool = True,
        scaling: bool = True,
        rng: Optional[np.random.Generator] = None,
        static_width: Optional[float] = None,
    ):
        if num_bins < 2:
            raise ValueError("need at least two bins")
        if t_scale <= 1.0:
            raise ValueError("t_scale must exceed 1")
        self.num_bins = num_bins
        self.t_scale = t_scale
        #: False = '+Static' ablation: keep the first width forever.
        self.adaptive = adaptive
        #: False = '+Adaptive' ablation: Freedman-Diaconis without scaling.
        self.scaling = scaling
        self.reservoir = Reservoir(reservoir_size, rng=rng)
        self._scale_exp = 0
        self._width = static_width if static_width is not None else 0.0
        self._frozen = static_width is not None

    @property
    def width(self) -> float:
        """Current bin width (Figure 8b's adapted quantity)."""
        return self._width

    # -- updates -------------------------------------------------------------------

    def observe(
        self,
        pac_values: np.ndarray,
        n_tracked: int,
        n_candidates: int,
        positive_values: Optional[np.ndarray] = None,
    ) -> None:
        """Fold sampled PAC values in and adapt the bin width.

        ``n_tracked`` is N_page (tracked pages); ``n_candidates`` is the
        current promotion-candidate count N_c used by the scaling rule.
        ``positive_values`` optionally passes the strictly-positive
        subset of ``pac_values`` (in the same order) when the caller has
        already computed it, skipping a second compress pass.
        """
        if positive_values is None:
            values = np.asarray(pac_values, dtype=float)
            positive_values = values[values > 0.0]
        self.reservoir.offer_many(positive_values)
        if self._frozen and self._width > 0.0:
            return
        q1, q3 = self.reservoir.quartiles()
        base = freedman_diaconis_width(q1, q3, max(n_tracked, 1))
        if base <= 0.0:
            if self._width <= 0.0 and self.reservoir.seen:
                # Degenerate spread: fall back to a width that puts the
                # median in a mid bin.
                median = float(np.median(self.reservoir.values())) if len(self.reservoir) else 0.0
                self._width = median / max(self.num_bins // 2, 1) if median > 0 else 0.0
            if self._frozen:
                self._frozen = self._width <= 0.0  # freeze once a width exists
            return
        if not self.adaptive:
            # '+Static': lock in the first Freedman-Diaconis width.
            if self._width <= 0.0:
                self._width = base
            return
        if self.scaling and n_candidates >= 0 and n_tracked > 0:
            ratio = n_tracked / max(n_candidates, 1)
            if ratio > self.t_scale and self._scale_exp < _MAX_SCALE_EXP:
                self._scale_exp += 1  # too few candidates: widen bins
            elif ratio < self.t_scale and self._scale_exp > _MIN_SCALE_EXP:
                self._scale_exp -= 1  # too many candidates: restore sensitivity
        self._width = base * 2.0**self._scale_exp

    # -- selection -----------------------------------------------------------------

    def top_bin_threshold(self, vmax: float) -> float:
        """Lower edge of the top bin for a distribution peaking at ``vmax``.

        Returns 0.0 when the binner has no prioritisation signal yet
        (no width, or the whole distribution fits one bin): every
        positive value is then a candidate.  With a threshold in hand,
        candidate selection is a single ``values >= threshold`` compare
        -- the cached-edge fast path :class:`~repro.core.pact.PactPolicy`
        uses instead of re-deriving the positive set and maximum inside
        :meth:`top_bin_mask` each planning window.
        """
        if self._width <= 0.0 or vmax <= self._width:
            return 0.0
        return vmax - self._width

    def top_bin_mask(self, values: np.ndarray) -> np.ndarray:
        """Mask of values in the highest-priority bin (the candidates).

        The top bin is the width-W slice anchored at the distribution's
        maximum: ``[max - W, max]``.  Anchoring at the maximum (rather
        than quantising from zero) keeps the scaling rule monotone under
        the heavy right tails PAC exhibits: halving W always narrows the
        candidate slice, doubling always widens it, so the
        N_page/N_candidates feedback loop converges to the target
        top-bin occupancy (~1/T_scale of tracked pages) instead of
        oscillating around outliers.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return np.zeros(0, dtype=bool)
        positive = values > 0.0
        if not positive.any():
            return np.zeros(values.size, dtype=bool)
        if self._width <= 0.0:
            return positive
        vmax = float(values[positive].max())
        threshold = self.top_bin_threshold(vmax)
        if threshold <= 0.0:
            # The whole distribution fits one bin: no prioritisation
            # signal yet; everything positive is a candidate, and the
            # scaling rule will shrink W next round.
            return positive
        return positive & (values >= threshold)

    def debug_info(self) -> Dict[str, float]:
        return {
            "bin_width": self._width,
            "scale_exp": float(self._scale_exp),
            "reservoir_seen": float(self.reservoir.seen),
        }
