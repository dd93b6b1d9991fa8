"""Fine-grained behaviours of individual baseline policies."""

import numpy as np
import pytest

from repro.baselines.alto import AltoPolicy
from repro.baselines.colloid import ColloidPolicy
from repro.baselines.memtis import MemtisPolicy
from repro.baselines.nomad import NomadPolicy
from repro.hw.pebs import PebsBatch
from repro.hw.perf import PerfDelta
from repro.mem.tiered import TieredMemory
from repro.sim.config import MachineConfig
from repro.sim.policy_api import Observation


def make_obs(
    memory,
    window=0,
    fast_latency=200.0,
    slow_latency=450.0,
    slow_misses=50_000.0,
    pebs_pages=None,
    pebs_counts=None,
    tor_mlp=None,
    touched_slow=None,
):
    if pebs_pages is None:
        pebs_pages = np.arange(100, 160)
        pebs_counts = np.ones(60, dtype=np.int64)
    perf = PerfDelta(
        cycles=4.4e7,
        llc_misses=[100_000.0, slow_misses],
        stall_cycles=[1e6, 8e6],
        bytes=[1e7, 5e6],
        effective_latency_cycles=[fast_latency, slow_latency],
    )
    return Observation(
        window=window,
        window_cycles=4.4e7,
        perf=perf,
        tor_mlp=tor_mlp or [8.0, 3.0],
        pebs=PebsBatch(pages=pebs_pages, counts=pebs_counts, rate=400, overhead_cycles=0.0),
        memory=memory,
        touched_slow=touched_slow if touched_slow is not None else np.arange(200, 260),
    )


@pytest.fixture
def mem256():
    memory = TieredMemory(256, [128, 256])
    memory.allocate_first_touch(np.arange(256))
    return memory


class TestColloidMechanics:
    def test_no_promotion_when_balanced(self, mem256):
        policy = ColloidPolicy()
        obs = make_obs(mem256, fast_latency=450.0, slow_latency=450.0)
        assert policy.observe(obs).empty

    def test_no_promotion_when_fast_slower(self, mem256):
        policy = ColloidPolicy()
        obs = make_obs(mem256, fast_latency=600.0, slow_latency=450.0)
        assert policy.observe(obs).empty

    def test_promotes_hottest_sampled_pages(self, mem256):
        policy = ColloidPolicy()
        counts = np.ones(60, dtype=np.int64)
        counts[10] = 50  # page 138 is the hottest sampled slow page
        obs = make_obs(mem256, pebs_pages=np.arange(128, 188), pebs_counts=counts)
        decision = policy.observe(obs)
        assert 138 in decision.promote

    def test_volume_scales_with_imbalance(self, mem256):
        small = ColloidPolicy().observe(make_obs(mem256, slow_latency=250.0,
                                                 pebs_pages=np.arange(128, 250),
                                                 pebs_counts=np.ones(122, dtype=np.int64)))
        big = ColloidPolicy().observe(make_obs(mem256, slow_latency=900.0,
                                               pebs_pages=np.arange(128, 250),
                                               pebs_counts=np.ones(122, dtype=np.int64)))
        assert big.promote.size >= small.promote.size


class TestAltoMechanics:
    def test_high_mlp_throttles(self, mem256):
        shared = dict(
            pebs_pages=np.arange(128, 250),
            pebs_counts=np.ones(122, dtype=np.int64),
        )
        colloid = ColloidPolicy().observe(make_obs(mem256, **shared))
        alto = AltoPolicy().observe(
            make_obs(mem256, tor_mlp=[16.0, 16.0], **shared)
        )
        assert alto.promote.size < max(colloid.promote.size, 1)

    def test_low_mlp_runs_at_full_gain(self, mem256):
        policy = AltoPolicy(mlp_reference=2.0)
        policy.observe(make_obs(mem256, tor_mlp=[1.5, 1.5]))
        assert policy.gain == pytest.approx(policy._base_gain)


class TestMemtisMechanics:
    def test_cooling_halves_counters(self, mem256):
        policy = MemtisPolicy(cooling_period_windows=2)

        class _M:
            config = MachineConfig()
            class workload:
                footprint_pages = 256
        policy.attach(_M())
        policy.observe(make_obs(mem256, window=1))
        before = policy._hotness.sum()
        policy.observe(
            make_obs(mem256, window=2, pebs_pages=np.array([0]), pebs_counts=np.array([0]))
        )
        assert policy._hotness.sum() <= before * 0.55


class TestNomadMechanics:
    def test_abort_rate_grows_with_pressure(self):
        policy = NomadPolicy(seed=1)
        # Pressure 1.0 (full fast tier) vs 0.5: fewer survivors at 1.0.
        full = min(0.9, max(1.0 - 0.5, 0.0) * policy.abort_pressure_scale / 4.0)
        empty = min(0.9, max(0.5 - 0.5, 0.0) * policy.abort_pressure_scale / 4.0)
        assert full > empty == 0.0

    def test_window_overhead_scales_with_touched(self):
        policy = NomadPolicy()

        class _Obs:
            touched_slow = np.arange(100)
            touched_fast = np.arange(0)

        class _Obs2:
            touched_slow = np.arange(1000)
            touched_fast = np.arange(0)

        assert policy.window_overhead_cycles(_Obs2()) == pytest.approx(
            10 * policy.window_overhead_cycles(_Obs())
        )
