"""The repro.obs layer and the simulator-loop edge-case fixes.

Covers the PR's two halves together, because each guards the other:

* observability primitives (registry, bounded trace ring, profiler) and
  their zero-perturbation / deterministic-telemetry guarantees,
* the loop fixes the instrumentation exists to catch -- empty windows
  that must count toward ``max_windows``, the eviction bar that must
  decay in quiet phases, and the THP budget that must never overshoot
  the per-window promotion cap.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pact import PactPolicy
from repro.exp.cache import ResultStore, result_from_dict, result_to_dict
from repro.exp.runner import run_requests
from repro.exp.report import metrics_table
from repro.exp.spec import RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.hw.access import WindowTraffic
from repro.mem.page import Tier
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    NullRecorder,
    Observability,
    SpanProfiler,
    TraceRecorder,
)
from repro.sim.machine import Machine
from repro.sim.metrics import WindowRecord
from repro.sim.config import MachineConfig
from repro.sim.policy_api import NoTierPolicy
from repro.workloads.base import Workload

from conftest import TinyWorkload


# ---------------------------------------------------------------------------
# Workload stubs.
# ---------------------------------------------------------------------------


class StuckWorkload(Workload):
    """Emits empty windows forever without consuming its work budget.

    Models an app stalled on I/O: the regression this guards against is
    ``Machine.run`` spinning forever because empty windows skipped the
    window counter and ``max_windows`` never bound.
    """

    def __init__(self):
        super().__init__(
            name="stuck", footprint_pages=64, total_misses=1000,
            misses_per_window=100, seed=3,
        )

    def _emit(self, budget, rng):  # pragma: no cover - next_window overridden
        return []

    def next_window(self) -> WindowTraffic:
        return WindowTraffic(groups=[], compute_cycles=0.0, done=False)


class BurstyWorkload(TinyWorkload):
    """A tiny workload that idles (no traffic) every other window."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._calls = 0

    def _on_reset(self):
        super()._on_reset()
        self._calls = 0

    def next_window(self) -> WindowTraffic:
        self._calls += 1
        if self._calls % 2 == 0:
            return WindowTraffic(groups=[], compute_cycles=0.0, done=self.done)
        return super().next_window()


# ---------------------------------------------------------------------------
# Primitives.
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        assert reg.counter_value("a") == 5.0

    def test_gauges_hold_latest(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.gauge_value("g") == 7.5

    def test_bulk_accessors_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("z", 1.0)
        reg.gauge("a", 2.0)
        reg.count("y", 3.0)
        reg.count("b")
        assert list(reg.gauges()) == ["a", "z"]
        assert reg.counters() == {"b": 1.0, "y": 3.0}
        assert list(reg.counters()) == ["b", "y"]

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 8.0):
            reg.observe("h", v)
        snap = reg.snapshot()
        assert snap["h/count"] == 3.0
        assert snap["h/mean"] == pytest.approx(4.0)
        assert snap["h/min"] == 1.0 and snap["h/max"] == 8.0

    def test_snapshot_sorted_and_flat(self):
        reg = MetricsRegistry()
        reg.gauge("z", 1.0)
        reg.count("a", 2.0)
        reg.observe("m", 5.0)
        keys = list(reg.snapshot().keys())
        assert keys == sorted(keys)


def _record(window: int) -> WindowRecord:
    return WindowRecord(
        window=window, duration_cycles=1.0, stall_cycles=0.0, slow_misses=0,
        fast_misses=0, promoted=0, demoted=0, mlp_slow=1.0, mlp_fast=1.0,
        fast_resident_fraction=0.5,
    )


class TestTraceRecorder:
    def test_ring_bounds_memory(self):
        rec = TraceRecorder(capacity=8)
        for i in range(20):
            rec.append(_record(i))
        assert len(rec) == 8
        assert rec.dropped == 12
        assert [r.window for r in rec.records()] == list(range(12, 20))

    def test_downsampling(self):
        rec = TraceRecorder(capacity=100, downsample=4)
        for i in range(20):
            rec.append(_record(i))
        assert [r.window for r in rec.records()] == [0, 4, 8, 12, 16]
        assert rec.skipped == 15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
        with pytest.raises(ValueError):
            TraceRecorder(downsample=0)

    def test_jsonl_export(self, tmp_path):
        rec = TraceRecorder(capacity=4)
        for i in range(3):
            rec.append(_record(i))
        path = tmp_path / "trace.jsonl"
        assert rec.write_jsonl(path) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["window"] for r in rows] == [0, 1, 2]

    def test_csv_export(self, tmp_path):
        rec = TraceRecorder(capacity=4)
        rec.append(_record(0))
        path = tmp_path / "trace.csv"
        assert rec.write_csv(path) == 1
        header = path.read_text().splitlines()[0]
        assert "window" in header and "duration_cycles" in header

    def test_null_recorder_stores_nothing(self):
        rec = NullRecorder()
        rec.append(_record(0))
        assert len(rec) == 0 and rec.records() == []


class TestSpanProfiler:
    def test_accumulates_spans(self):
        prof = SpanProfiler()
        with prof.profile("work"):
            pass
        with prof.profile("work"):
            pass
        timings = prof.timings()
        assert timings["work"]["calls"] == 2.0
        assert timings["work"]["seconds"] >= 0.0

    def test_disabled_is_noop(self):
        prof = SpanProfiler(enabled=False)
        with prof.profile("work"):
            pass
        assert prof.timings() == {}

    def test_timings_never_in_summary(self):
        obs = Observability()
        with obs.profile("hot"):
            pass
        assert "hot" not in obs.summary()
        assert "hot" in obs.timings()


# ---------------------------------------------------------------------------
# Loop fix: empty windows.
# ---------------------------------------------------------------------------


class TestEmptyWindows:
    def test_stuck_workload_terminates_at_max_windows(self, config):
        machine = Machine(StuckWorkload(), NoTierPolicy(), config=config)
        result = machine.run(max_windows=50)
        assert result.windows == 50
        assert result.empty_windows == 50

    def test_pending_overhead_flushed_not_dropped(self, config):
        machine = Machine(StuckWorkload(), NoTierPolicy(), config=config)
        machine._pending_overhead_cycles = 12_345.0
        result = machine.run(max_windows=10)
        assert result.runtime_cycles == pytest.approx(12_345.0)

    def test_bursty_workload_still_finishes(self, config):
        workload = BurstyWorkload()
        result = Machine(workload, NoTierPolicy(), config=config).run()
        assert workload.done
        # Idle windows count toward the window clock and are reported.
        assert result.empty_windows > 0
        assert result.windows > result.empty_windows

    def test_empty_windows_metric_published(self, config):
        obs = Observability(trace=False)
        machine = Machine(StuckWorkload(), NoTierPolicy(), config=config, obs=obs)
        machine.run(max_windows=7)
        summary = obs.summary()
        assert summary["machine/empty_windows"] == 7.0
        assert summary["machine/windows"] == 7.0


# ---------------------------------------------------------------------------
# Loop fix: eviction-bar decay.
# ---------------------------------------------------------------------------


class TestEvictionBarDecay:
    def _attached_policy(self, config):
        policy = PactPolicy()
        machine = Machine(TinyWorkload(), policy, config=config, ratio="1:2")
        return machine, policy

    def test_bar_decays_geometrically_when_quiet(self, config):
        _, policy = self._attached_policy(config)
        policy._eviction_bar = 100.0
        policy._demoted_since_plan = False
        policy._decay_eviction_bar()
        assert policy._eviction_bar == pytest.approx(80.0)
        policy._decay_eviction_bar()
        assert policy._eviction_bar == pytest.approx(64.0)

    def test_bar_snaps_to_zero(self, config):
        _, policy = self._attached_policy(config)
        policy._eviction_bar = 1e-10
        for _ in range(50):
            policy._decay_eviction_bar()
        assert policy._eviction_bar == 0.0

    def test_demotion_windows_do_not_decay(self, config):
        _, policy = self._attached_policy(config)
        policy._eviction_bar = 100.0
        policy._demoted_since_plan = True
        policy._decay_eviction_bar()
        assert policy._eviction_bar == 100.0
        # ... and the flag resets so the *next* quiet window decays.
        policy._decay_eviction_bar()
        assert policy._eviction_bar == pytest.approx(80.0)

    def test_promotions_resume_after_demotion_burst(self, config):
        """A huge bar (one demotion burst's residue) no longer suppresses
        promotions indefinitely: quiet windows decay it back down."""
        policy = PactPolicy()
        machine = Machine(
            TinyWorkload(total_misses=6_000_000), policy, config=config, ratio="1:2"
        )
        for _ in range(3):
            machine.step()
        policy._eviction_bar = 1e12
        before = machine.engine.total_promoted
        for _ in range(12):
            machine.step()
        assert policy._eviction_bar < 1e12 * 0.8**5
        machine.run(max_windows=400)
        assert machine.engine.total_promoted > before

    def test_bar_exposed_in_debug_info(self, config):
        _, policy = self._attached_policy(config)
        policy._eviction_bar = 3.5
        assert policy.debug_info()["eviction_bar"] == 3.5


# ---------------------------------------------------------------------------
# Loop fix: THP promotion budget.
# ---------------------------------------------------------------------------


class TestThpPromotionBudget:
    def test_tiny_fast_tier_never_overshoots_cap(self):
        """Cap below one huge page: the old ``max(want // 512, 1)`` floor
        promoted a whole 2MB region anyway; now nothing is promoted."""
        config = MachineConfig(thp=True)
        workload = TinyWorkload(footprint_pages=4096, total_misses=300_000)
        machine = Machine(
            workload, PactPolicy(), config=config, fast_capacity_override=768
        )
        # Sanity: the per-window cap genuinely cannot fit one huge page.
        cap = max(int(0.08 * machine.memory.capacity[Tier.FAST]), 64)
        assert cap < 512
        result = machine.run(max_windows=20)
        assert result.promoted == 0

    def test_promotions_stay_within_cap_per_window(self):
        config = MachineConfig(thp=True)
        workload = TinyWorkload(footprint_pages=25_600, total_misses=300_000)
        machine = Machine(
            workload, PactPolicy(), config=config, ratio="1:1", trace=True
        )
        result = machine.run(max_windows=20)
        cap = max(int(0.08 * machine.memory.capacity[Tier.FAST]), 64)
        assert result.promoted > 0
        for rec in result.trace:
            assert rec.promoted <= cap


# ---------------------------------------------------------------------------
# Zero perturbation + cache/parallel telemetry.
# ---------------------------------------------------------------------------


class TestZeroPerturbation:
    def test_obs_off_run_is_bit_identical_to_obs_on(self, config):
        plain = Machine(TinyWorkload(), PactPolicy(), config=config, ratio="1:2").run()
        observed = Machine(
            TinyWorkload(), PactPolicy(), config=config, ratio="1:2",
            obs=Observability(),
        ).run()
        assert observed.runtime_cycles == plain.runtime_cycles
        assert observed.promoted == plain.promoted
        assert observed.demoted == plain.demoted
        assert observed.total_misses == plain.total_misses
        assert plain.metrics_summary == {}
        assert observed.metrics_summary["machine/windows"] == observed.windows

    def test_null_obs_is_disabled_and_shared(self, config):
        machine = Machine(TinyWorkload(), NoTierPolicy(), config=config)
        assert machine.obs is NULL_OBS
        assert not machine.obs.enabled
        assert machine.result().metrics_summary == {}

    def test_obs_flag_absent_from_disabled_fingerprint(self):
        spec = WorkloadSpec.registry("gups", total_misses=600_000)
        off = RunRequest(workload=spec, policy="PACT", ratio="1:2")
        on = RunRequest(workload=spec, policy="PACT", ratio="1:2", obs=True)
        assert "obs" not in off.fingerprint()
        assert on.fingerprint()["obs"] is True
        assert on.key != off.key

    def test_summary_roundtrips_through_result_serialisation(self, config):
        obs = Observability(trace=False)
        machine = Machine(BurstyWorkload(), NoTierPolicy(), config=config, obs=obs)
        result = machine.run()
        back = result_from_dict(result_to_dict(result))
        assert back.metrics_summary == result.metrics_summary
        assert back.empty_windows == result.empty_windows


def _obs_requests():
    spec = WorkloadSpec.registry("gups", total_misses=600_000)
    return [
        RunRequest(workload=spec, policy="PACT", ratio="1:2", obs=True),
        RunRequest(workload=spec, policy="NoTier", ratio="1:2", obs=True),
    ]


class TestExpTelemetry:
    def test_serial_equals_parallel_telemetry(self):
        serial = run_requests(
            _obs_requests(), jobs=1, store=ResultStore(), use_cache=False
        )
        fanned = run_requests(
            _obs_requests(), jobs=2, store=ResultStore(), use_cache=False
        )
        for req_s, req_p in zip(_obs_requests(), _obs_requests()):
            summary_s = serial[req_s].metrics_summary
            summary_p = fanned[req_p].metrics_summary
            assert summary_s and summary_s == summary_p

    def test_telemetry_survives_disk_cache(self, tmp_path):
        requests = _obs_requests()
        first = run_requests(requests, store=SqliteResultStore(tmp_path / "cache"))
        # A fresh store instance reading the same database: pure disk hit.
        store = SqliteResultStore(tmp_path / "cache")
        second = run_requests(requests, store=store)
        assert store.disk_hits == len(requests)
        for req in requests:
            assert second[req].metrics_summary == first[req].metrics_summary
            assert second[req].metrics_summary["machine/windows"] > 0

    def test_metrics_table_renders(self):
        result = run_requests(_obs_requests(), store=ResultStore(), use_cache=False)
        table = metrics_table(result, "gups", ["PACT", "NoTier"], "1:2")
        assert "machine/windows" in table
        assert "PACT" in table and "NoTier" in table
