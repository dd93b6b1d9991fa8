"""PACT: the criticality-first tiered memory policy (§4).

Ties the pieces together into a :class:`repro.sim.policy_api.TieringPolicy`:

* :class:`~repro.core.sampling.PacSampler` -- Algorithm 1 PAC profiling
  from PEBS samples plus TOR/perf counter deltas,
* :class:`~repro.core.tracker.PacTracker` -- per-page PAC state,
* :class:`~repro.core.binning.AdaptiveBinner` -- Algorithm 3 reservoir +
  Freedman-Diaconis + scaling candidate selection,
* :class:`~repro.core.policy.MigrationPlanner` -- Algorithm 2 eager
  demotion and immediate top-bin promotion.

PACT migrates in the background (two dedicated threads in the kernel
prototype, §4.6), so only an interference fraction of migration cost
lands on the application's critical path.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.stats import quantiles_linear
from repro.common.units import PAGES_PER_HUGE_PAGE
from repro.core.binning import AdaptiveBinner
from repro.core.cooling import CoolingConfig
from repro.core.pac import PacModelCoefficients
from repro.core.policy import MigrationPlanner
from repro.core.sampling import PacSampler
from repro.core.tracker import PacTracker
from repro.mem.page import Tier
from repro.obs.profiler import null_profile as _null_profile
from repro.sim.policy_api import Decision, Observation, TieringPolicy

#: Swap-profitability bar samples the 90th percentile of demoted values.
_BAR_QS = np.array([0.9])


def _top_k_indices(values: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Indices of the ``k`` largest ``values`` via partial selection.

    Returns ``None`` when values equal to the k-th largest straddle the
    selection boundary: the winning subset is then decided by sort-order
    tie-breaking, so the caller must fall back to the legacy full sort to
    keep the selected *set* identical to the pre-top-k code.  With no
    boundary tie the partitioned set provably equals the sorted prefix
    (everything excluded is strictly smaller than everything included),
    and downstream consumers only use the set -- ``MigrationEngine``
    re-sorts via ``np.unique`` before moving pages.
    """
    n = values.size
    if k >= n:
        return np.argsort(values)[::-1]
    split = n - k
    part = np.argpartition(values, split)
    kth = values[part[split]]
    if (values[part[:split]] == kth).any():
        return None
    top = part[split:]
    return top[np.argsort(values[top])[::-1]]


class PactPolicy(TieringPolicy):
    """The full PACT system as a pluggable tiering policy."""

    name = "PACT"
    synchronous_migration = False  # background migration thread (§4.6)
    #: PACT's candidates come from PEBS/CHMU samples and LRU state, not
    #: from the per-window touched-page sets.
    needs_touched_pages = False

    def __init__(
        self,
        metric: str = "pac",
        period_windows: int = 1,
        m: int = 0,
        num_bins: int = 20,
        reservoir_size: int = 100,
        t_scale: float = 50.0,
        cooling: Optional[CoolingConfig] = None,
        adaptive_binning: bool = True,
        scaling: bool = True,
        latency_weighted: bool = False,
        coefficients: Optional[PacModelCoefficients] = None,
        promotion_cooldown_windows: int = 20,
        mlp_source: str = "tor",
        access_sampler: str = "pebs",
        seed: int = 42,
    ):
        if metric not in ("pac", "frequency"):
            raise ValueError("metric must be 'pac' or 'frequency'")
        if access_sampler not in ("pebs", "chmu"):
            raise ValueError("access_sampler must be 'pebs' or 'chmu'")
        self.metric = metric
        #: "tor" (Intel CHA/TOR counters) or "littles_law" (the AMD
        #: portability path of §4.2.2 -- latency x bandwidth / 64B).
        self.mlp_source = mlp_source
        #: "pebs" host sampling or "chmu" controller-side counting
        #: (CXL 3.2 Hotness Monitoring Unit, §4.3.5).
        self.access_sampler = access_sampler
        self.period_windows = period_windows
        self.m = m
        self.num_bins = num_bins
        self.reservoir_size = reservoir_size
        self.t_scale = t_scale
        self.cooling = cooling if cooling is not None else CoolingConfig.none()
        self.adaptive_binning = adaptive_binning
        self.scaling = scaling
        self.latency_weighted = latency_weighted
        self.wants_pebs_latency = latency_weighted
        self._coefficients = coefficients
        #: A page promoted once is not re-promoted for this many windows
        #: if it gets demoted again -- bounds promotion/demotion cycling
        #: when PAC accumulation races placement.
        self.promotion_cooldown_windows = promotion_cooldown_windows
        self._seed = seed
        # Built at attach time (they need the footprint / tier specs).
        self.tracker: Optional[PacTracker] = None
        self.sampler: Optional[PacSampler] = None
        self.binner: Optional[AdaptiveBinner] = None
        self.planner: Optional[MigrationPlanner] = None
        self._last_candidate_count = 0
        self._last_top_occupancy = 0
        self._profile = _null_profile

    # -- lifecycle ------------------------------------------------------------------

    def attach(self, machine) -> None:
        # Eq. 1 models the nearest lower tier of the built machine (after
        # interior-tier elision): the CXL link on the paper's testbed.
        lower = machine.stall_model.spec[1]
        coefficients = self._coefficients
        if coefficients is None:
            coefficients = PacModelCoefficients.default_for(lower)
        self.tracker = PacTracker(machine.workload.footprint_pages)
        self.sampler = PacSampler(
            tracker=self.tracker,
            coefficients=coefficients,
            cooling=self.cooling,
            period_windows=self.period_windows,
            latency_weighted=self.latency_weighted,
            mlp_source=self.mlp_source,
            slow_latency_ns=lower.latency_ns,
            freq_ghz=machine.config.freq_ghz,
        )
        self.binner = AdaptiveBinner(
            num_bins=self.num_bins,
            reservoir_size=self.reservoir_size,
            t_scale=self.t_scale,
            adaptive=self.adaptive_binning,
            scaling=self.scaling,
            rng=np.random.default_rng(self._seed),
        )
        self.planner = MigrationPlanner(m=self.m)
        self._thp = machine.config.thp
        self.planner.unit_pages = 512 if self._thp else 1
        #: THP promotion budget carried across planning windows, in 4KB
        #: pages (see :meth:`_rank_candidates`).
        self._promotion_credit = 0
        self._last_candidate_count = 0
        self._last_top_occupancy = 0
        self._promoted_at = np.full(machine.workload.footprint_pages, -(10**9), dtype=np.int64)
        self._current_window = 0
        self._eviction_bar = 0.0
        self._bar_margin = 1.25
        #: EWMA gain shared by the bar's victim-value updates and its
        #: decay on demotion-free planning windows.
        self._bar_gain = 0.2
        self._demoted_since_plan = False
        # Publish adaptivity gauges when the machine carries observability.
        obs = getattr(machine, "obs", None)
        self._obs = obs if obs is not None and obs.enabled else None
        #: Span handle for the policy_track/policy_bin/policy_select
        #: children of the machine's policy_observe span (a no-op span
        #: factory when observability is off).
        self._profile = obs.profile if obs is not None else _null_profile

    # -- per-window policy -------------------------------------------------------------

    def observe(self, obs: Observation) -> Decision:
        with self._profile("policy_track"):
            period_complete = self.sampler.ingest(obs)
        if not period_complete:
            return Decision.none()
        self._decay_eviction_bar()
        with self._profile("policy_bin"):
            binned = self._bin_values()
        with self._profile("policy_select"):
            candidates = self._rank_candidates(obs, binned)
            decision = self.planner.plan(candidates, obs)
        if self._obs is not None:
            self._obs.gauge("pact/eviction_bar", self._eviction_bar)
            self._obs.gauge("pact/top_bin_occupancy", float(self._last_top_occupancy))
            self._obs.gauge("pact/candidates", float(self._last_candidate_count))
        return decision

    def _decay_eviction_bar(self) -> None:
        """Relax the swap-profitability bar on demotion-free windows.

        The bar is EWMA-updated only when demotions occur, so a single
        demotion burst used to pin it high through arbitrarily long
        quiet phases, suppressing promotions indefinitely.  Planning
        windows that saw no demotions now pull it toward zero with the
        same gain, modelling the victim-value estimate going stale.
        """
        if not self._demoted_since_plan and self._eviction_bar > 0.0:
            self._eviction_bar += self._bar_gain * (0.0 - self._eviction_bar)
            if self._eviction_bar < 1e-12:
                self._eviction_bar = 0.0
        self._demoted_since_plan = False

    def _bin_values(self) -> "Optional[tuple]":
        """The binning stage: fold tracked values into the reservoir,
        adapt the width, and mark the highest-priority bin.

        The positive mask is computed once and shared between the
        reservoir feed and the top-bin selection, and the bin edge comes
        from :meth:`AdaptiveBinner.top_bin_threshold` -- one threshold
        compare instead of re-deriving the positive set and maximum a
        second time inside ``top_bin_mask``.  Returns ``(tracked,
        values, top_mask)`` or ``None`` when nothing is tracked yet.
        """
        tracked = self.tracker.tracked_pages()
        if tracked.size == 0:
            return None
        values = self.tracker.values_for(tracked, metric=self.metric)
        positive = values > 0.0
        n_positive = int(np.count_nonzero(positive))
        all_positive = n_positive == values.size
        positive_values = values if all_positive else values[positive]
        self.binner.observe(
            values,
            n_tracked=tracked.size,
            n_candidates=max(self._last_top_occupancy, 1),
            positive_values=positive_values,
        )
        if n_positive == 0:
            top_mask = np.zeros(values.size, dtype=bool)
        else:
            threshold = self.binner.top_bin_threshold(float(positive_values.max()))
            if threshold <= 0.0:
                top_mask = positive
            elif all_positive:
                # values >= threshold > 0 already implies positivity.
                top_mask = values >= threshold
            else:
                top_mask = positive & (values >= threshold)
        self._last_top_occupancy = int(np.count_nonzero(top_mask))
        return tracked, values, top_mask

    def _rank_candidates(self, obs: Observation, binned: "Optional[tuple]") -> np.ndarray:
        """Adaptive promotion: pages in the highest-priority bin that are
        currently resident in the slow tier (§4.5).

        The scaling feedback targets *top-bin occupancy* over all
        tracked pages (already-promoted pages keep their accumulated PAC
        and anchor the bin): a slow page is promoted only when its PAC
        genuinely climbs into the top bin, not because the policy must
        manufacture a steady candidate stream.
        """
        if binned is None:
            return np.empty(0, dtype=np.int64)
        tracked, values, top_mask = binned
        in_slow = obs.memory.tier_of(tracked) >= 1
        cooled_down = (
            obs.window - self._promoted_at[tracked] > self.promotion_cooldown_windows
        )
        eligible = in_slow & cooled_down
        if self._eviction_bar > 0.0:
            # Swap profitability: promoting a page whose criticality is
            # no higher than what eager demotion is currently evicting
            # just rotates interchangeable pages.  The bar tracks the
            # value of recent demotion victims; candidates must beat it.
            eligible &= values > self._eviction_bar * self._bar_margin
        self._current_window = obs.window

        # Algorithm 2 keeps pulling pages while B_priority is non-empty:
        # once the top bin's slow pages promote, the next bin becomes the
        # highest non-empty one.  Equivalent batched form: take the top
        # bin, then extend down the PAC ranking while reclaimable
        # fast-tier space remains this window.  The extension is part of
        # the scaling optimisation ('+Both', §4.5): without it,
        # promotion supply depends entirely on the histogram width and
        # becomes erratic under skew -- exactly the instability the
        # paper's breakdown study demonstrates.
        core = int((top_mask & eligible).sum())
        cap = self._window_promotion_cap(obs)
        if self.scaling:
            # The scaling optimisation stabilises candidate supply: offer
            # up to the per-window cap from the PAC ranking.  Actual
            # promotions stay profitable because eligibility already
            # requires beating the eviction bar (and the cooldown).
            want = cap
        else:
            want = core
        # §4.5: the highest-priority bin supplies a *bounded* stream of
        # candidates -- no sudden migration storms even when the width
        # adaptation transiently degenerates (uniform PAC, cold start).
        want = min(want, cap)
        if self._thp:
            # Migration moves whole 2MB regions, so the budget is a
            # credit in 4KB pages: each planning window adds ``want``,
            # clamps the credit to one window's cap or one huge page,
            # whichever is larger, and each huge-page candidate spends
            # 512.  With the full-cap offer, a cap of at least 512 pages
            # budgets ``cap // 512`` huge pages every window; a smaller
            # one (a small fast tier) earns one huge page every
            # ceil(512 / cap) windows, and the long-run rate stays
            # within the cap.
            self._promotion_credit = min(
                self._promotion_credit + want, max(cap, PAGES_PER_HUGE_PAGE)
            )
        elig_pages = tracked[eligible]
        elig_values = values[eligible]
        if elig_pages.size == 0 or want <= 0:
            self._last_candidate_count = 0
            return np.empty(0, dtype=np.int64)
        if self._thp:
            # Rank huge pages by their hottest constituent page.
            # ``elig_pages`` is ascending (tracked_pages order), so each
            # huge page is one contiguous run and reduceat yields its
            # peak PAC without sorting all pages.
            want = self._promotion_credit // PAGES_PER_HUGE_PAGE
            huge = elig_pages >> 9
            starts = np.flatnonzero(np.r_[True, huge[1:] != huge[:-1]])
            if want <= 0:
                candidates = np.empty(0, dtype=np.int64)
            else:
                peaks = np.maximum.reduceat(elig_values, starts)
                top = _top_k_indices(peaks, want)
                if top is None:
                    # Peak ties straddle the boundary: reproduce the
                    # legacy full ranking (sort pages, dedupe per huge
                    # page by first occurrence) bit-for-bit.
                    order = np.argsort(elig_values)[::-1]
                    ranked = elig_pages[order]
                    _, first = np.unique(ranked >> 9, return_index=True)
                    candidates = ranked[np.sort(first)][:want]
                else:
                    # Any resident page stands for its huge page: the
                    # engine expands promotions to the whole 2MB region.
                    candidates = elig_pages[starts[top]]
            self._promotion_credit -= PAGES_PER_HUGE_PAGE * int(candidates.size)
        else:
            top = _top_k_indices(elig_values, want)
            if top is None:
                candidates = elig_pages[np.argsort(elig_values)[::-1]][:want]
            else:
                candidates = elig_pages[top]
        self._last_candidate_count = int(candidates.size)
        return candidates

    def _window_promotion_cap(self, obs: Observation) -> int:
        """Per-window migration bound: a few percent of the fast tier
        (with a floor for tiny configurations), keeping promotion bursts
        spread over multiple windows."""
        return max(int(0.08 * obs.memory.capacity[Tier.FAST]), 64)

    def on_migration(self, outcome) -> None:
        """Stamp the cooldown clock and update the swap-profitability bar."""
        if outcome.promoted_pages.size:
            self._promoted_at[outcome.promoted_pages] = self._current_window
        if outcome.demoted_pages.size and self.tracker is not None:
            self._demoted_since_plan = True
            victim_values = self.tracker.values_for(outcome.demoted_pages, metric=self.metric)
            bar_sample = float(quantiles_linear(victim_values, _BAR_QS)[0])
            self._eviction_bar += self._bar_gain * (bar_sample - self._eviction_bar)

    # -- introspection -------------------------------------------------------------------

    def debug_info(self) -> Dict[str, float]:
        info: Dict[str, float] = {
            "candidates": float(self._last_candidate_count),
            "tracked": float(len(self.tracker)) if self.tracker else 0.0,
            "eviction_bar": float(getattr(self, "_eviction_bar", 0.0)),
        }
        if self.binner is not None:
            info.update(self.binner.debug_info())
        if self.sampler is not None:
            info["est_slow_stalls"] = self.sampler.last_stall_estimate
            info["est_slow_mlp"] = self.sampler.last_mlp
        return info


class FrequencyPolicy(PactPolicy):
    """The §5.6 ablation: PACT's framework, ranking by access frequency.

    Everything -- sampling, binning, eager demotion -- is identical;
    only the per-page metric fed to the binner changes from accumulated
    PAC to accumulated PEBS access counts, mirroring conventional
    hotness-based selection.
    """

    name = "Frequency"

    def __init__(self, **kwargs):
        kwargs["metric"] = "frequency"
        super().__init__(**kwargs)
