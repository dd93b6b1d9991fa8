"""Alto: MLP-regulated promotion (Liu et al., OSDI '25), atop Colloid.

Alto observes that when system-wide MLP is high, slow-tier latency is
already being hidden and aggressive promotion buys little, so it
throttles the promotion rate as MLP rises.  The paper runs Alto layered
on Colloid (§5.4); it lands between Colloid and PACT in migration volume
(Table 2) because its MLP signal is *system-wide* and period-level --
it cannot tell which tier, or which pages, the parallelism comes from.
"""

from __future__ import annotations

from repro.baselines.colloid import ColloidPolicy
from repro.sim.policy_api import Decision, Observation


class AltoPolicy(ColloidPolicy):
    """Colloid whose promotion gain is scaled down by aggregate MLP."""

    name = "Alto"

    def __init__(self, mlp_reference: float = 2.0, min_throttle: float = 0.1, **kwargs):
        super().__init__(**kwargs)
        #: MLP at which promotion runs at full Colloid aggressiveness.
        self.mlp_reference = mlp_reference
        #: Lower bound on the throttle (never fully stops promotion).
        self.min_throttle = min_throttle
        self._base_gain = self.gain
        self._base_batch = self.max_batch_fraction

    def observe(self, obs: Observation) -> Decision:
        # System-wide MLP: miss-weighted across all tiers, as a single
        # offcore counter would report it.
        total = 0.0
        weighted = 0.0
        for misses, mlp in zip(obs.perf.llc_misses, obs.tor_mlp):
            total += misses
            weighted += misses * mlp
        mlp = weighted / total if total > 0 else 1.0
        throttle = max(min(self.mlp_reference / mlp, 1.0), self.min_throttle)
        self.gain = self._base_gain * throttle
        self.max_batch_fraction = self._base_batch * throttle
        return super().observe(obs)
