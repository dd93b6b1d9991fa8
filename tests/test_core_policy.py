"""Migration planner (Algorithm 2), cooling config, and PACT policy units."""

import numpy as np
import pytest

from repro.core.cooling import CoolingConfig
from repro.core.pact import FrequencyPolicy, PactPolicy
from repro.core.policy import MigrationPlanner
from repro.core.tracker import PacTracker
from repro.mem.page import Tier
from repro.sim.machine import Machine
from repro.sim.policy_api import Observation

from conftest import TinyWorkload


class _FakeMemory:
    def __init__(self, free):
        self._free = free

    def free_pages(self, tier):
        return self._free


def fake_obs(free=100):
    return Observation(
        window=0,
        window_cycles=1e6,
        perf=None,
        tor_mlp=[],
        pebs=None,
        memory=_FakeMemory(free),
    )


class TestMigrationPlanner:
    def test_balanced_demotion_with_m_zero(self):
        p = MigrationPlanner(m=0)
        decision = p.plan(np.arange(10), fake_obs(free=100))
        # Enough free space, but the balancing rule still keeps
        # N_demoted >= N_promoted (Algorithm 2, m = 0).
        assert decision.promote.size == 10
        assert decision.demote_lru == 10

    def test_proactive_margin(self):
        p = MigrationPlanner(m=5)
        decision = p.plan(np.arange(10), fake_obs(free=100))
        assert decision.demote_lru == 15

    def test_space_deficit_forces_demotion(self):
        p = MigrationPlanner(m=0)
        decision = p.plan(np.arange(50), fake_obs(free=10))
        assert decision.demote_lru >= 40

    def test_no_candidates_no_orders(self):
        p = MigrationPlanner(m=0)
        assert p.plan(np.array([], dtype=np.int64), fake_obs()).empty

    def test_victims_come_from_lru_tail(self):
        p = MigrationPlanner(m=0)
        decision = p.plan(np.arange(3), fake_obs())
        assert decision.demote_victim_mode == "lru_tail"

    def test_totals_accumulate(self):
        p = MigrationPlanner(m=0)
        p.plan(np.arange(3), fake_obs())
        p.plan(np.arange(2), fake_obs())
        assert p.promoted_total == 5
        assert p.demoted_total >= 5


class TestCoolingConfig:
    def test_default_is_pure_accumulation(self):
        c = CoolingConfig.none()
        assert c.alpha == 1.0
        assert c.distance_threshold is None

    def test_halving_and_reset_factories(self):
        assert CoolingConfig.halving(100).distance_factor == 0.5
        assert CoolingConfig.reset(100).distance_factor == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoolingConfig(alpha=2.0)
        with pytest.raises(ValueError):
            CoolingConfig(distance_threshold=0)
        with pytest.raises(ValueError):
            CoolingConfig(distance_factor=-0.1)

    def test_apply_distance_cooling_noop_when_disabled(self):
        t = PacTracker(8)
        t.update(np.array([0]), np.array([5.0]), np.array([1]))
        assert CoolingConfig.none().apply_distance_cooling(t) == 0


class TestPactPolicyConstruction:
    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            PactPolicy(metric="hotness")

    def test_frequency_variant_forces_metric(self):
        assert FrequencyPolicy().metric == "frequency"

    def test_latency_weighted_requests_pebs_latency(self):
        assert PactPolicy(latency_weighted=True).wants_pebs_latency
        assert not PactPolicy().wants_pebs_latency

    def test_background_migration(self):
        assert not PactPolicy().synchronous_migration


class TestPactPolicyBehaviour:
    def test_promotes_critical_region_first(self, config):
        workload = TinyWorkload()
        policy = PactPolicy()
        machine = Machine(workload, policy, config=config, ratio="1:3", seed=2)
        machine.run(max_windows=20)
        fast = machine.memory.pages_in_tier(Tier.FAST)
        half = workload.footprint_pages // 2
        chase_in_fast = int((fast < half).sum())
        stream_in_fast = int((fast >= half).sum())
        # The chase region was allocated last (slow tier), but PACT must
        # have pulled it into the fast tier ahead of the stream pages.
        assert chase_in_fast > stream_in_fast

    def test_debug_info_exposes_internals(self, config):
        workload = TinyWorkload()
        policy = PactPolicy()
        machine = Machine(workload, policy, config=config, ratio="1:1", seed=2)
        machine.run(max_windows=5)
        info = policy.debug_info()
        assert "bin_width" in info and "tracked" in info
        assert info["tracked"] > 0

    def test_cooldown_blocks_repromotions(self, config):
        workload = TinyWorkload()
        policy = PactPolicy(promotion_cooldown_windows=10**6)
        machine = Machine(workload, policy, config=config, ratio="1:3", seed=2)
        machine.run(max_windows=40)
        promoted_once = machine.engine.total_promoted
        # With an infinite cooldown each page promotes at most once.
        assert promoted_once <= workload.footprint_pages

    def test_eviction_bar_limits_churn(self, config):
        workload = TinyWorkload()
        relaxed = PactPolicy(promotion_cooldown_windows=0)
        machine = Machine(workload, relaxed, config=config, ratio="1:3", seed=2)
        result = machine.run(max_windows=40)
        # Even with no cooldown the swap-profitability bar keeps total
        # promotions well below footprint-sized rotation per window.
        assert result.promoted < workload.footprint_pages * 3
