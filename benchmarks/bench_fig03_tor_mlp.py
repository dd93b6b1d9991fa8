"""Figure 3: TOR-derived per-tier MLP -- accuracy and phase stability.

(a) TOR-MLP (dT1/dT2) must track the ground-truth MLP trend;
(b) MLP must be stable within sampling windows but evolve across
    phases (the property uniform attribution relies on);
the gray line check: the Little's-law estimate (latency x bandwidth)
captures the trend but overestimates absolute MLP because link bytes
include prefetch traffic.
"""

from __future__ import annotations

import numpy as np

from repro.common.stats import pearson
from repro.common.tables import format_series, format_table
from repro.hw.cha import littles_law_mlp
from repro.mem.page import Tier
from repro.obs import Observability
from repro.sim.machine import Machine
from repro.sim.policy_api import Decision, Observation, TieringPolicy
from repro.workloads import make_workload

from conftest import BENCH_WORK, emit, once


class _MlpProbe(TieringPolicy):
    """Records TOR-MLP, ground-truth MLP, and Little's-law MLP per window."""

    name = "mlp-probe"
    synchronous_migration = False
    needs_pebs = False

    def __init__(self, machine_getter):
        self.tor_mlp = []
        self.true_mlp = []
        self.littles = []
        self._machine_getter = machine_getter

    def observe(self, obs: Observation) -> Decision:
        machine = self._machine_getter()
        self.tor_mlp.append(obs.tor_mlp[Tier.SLOW])
        duration_ns = obs.window_cycles / machine.config.freq_ghz
        slow_bytes = obs.perf.bytes[Tier.SLOW]
        latency_ns = machine.stall_model.spec[Tier.SLOW].latency_ns
        self.littles.append(littles_law_mlp(slow_bytes, latency_ns, duration_ns))
        return Decision.none()


def test_fig03_tor_mlp(benchmark, config):
    workload = make_workload("bc-kron", total_misses=BENCH_WORK)

    def run():
        holder = {}
        probe = _MlpProbe(lambda: holder["m"])
        machine = Machine(workload, probe, config=config, fast_capacity_override=0,
                          seed=4, obs=Observability())
        holder["m"] = machine
        result = machine.run()
        truth = [rec.mlp_slow for rec in result.trace]
        return probe, truth

    probe, truth = once(benchmark, run)
    tor = np.array(probe.tor_mlp)
    true_mlp = np.array(truth)
    littles = np.array(probe.littles)

    r_tor = pearson(tor, true_mlp)
    r_littles = pearson(littles, true_mlp)
    overestimate = float(np.mean(littles / true_mlp))

    # Phase stability: per-window changes are small relative to the
    # overall dynamic range (tens-of-ms stability, §4.2.3).
    step_change = np.abs(np.diff(tor)) / tor[:-1]
    dynamic_range = tor.max() / tor.min()

    report = format_table(
        ["metric", "value", "paper"],
        [
            ["pearson(TOR-MLP, true MLP)", f"{r_tor:.3f}", "tracks closely (Fig 3a)"],
            ["pearson(Little's-law, true MLP)", f"{r_littles:.3f}", "tracks trend (gray line)"],
            ["Little's-law overestimate factor", f"{overestimate:.2f}x", ">1 (prefetch bytes)"],
            ["median window-to-window MLP change", f"{np.median(step_change):.1%}", "small (stable)"],
            ["MLP dynamic range across phases", f"{dynamic_range:.1f}x", "evolves over phases"],
        ],
    )
    report += "\n\n" + format_series(
        "slow-tier TOR-MLP (first 24 windows)", list(range(24)), list(tor[:24])
    )
    emit("fig03_tor_mlp", report)

    assert r_tor > 0.95
    assert overestimate > 1.0
    assert dynamic_range > 1.5
