"""Trace-driven replay of ``.npt`` files and multi-seed statistics."""

import numpy as np
import pytest

from repro.analysis.repeat import RepeatedResult, repeat_runs, significantly_better
from repro.exp.cache import result_to_dict, workload_fingerprint
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
from repro.workloads import make_workload
from repro.workloads.tracestore import (
    ReplayWorkload,
    TraceFormatError,
    record_stream,
    record_to_file,
    write_npt,
)

from conftest import TinyWorkload


def two_window_workload():
    return TinyWorkload(total_misses=60_000, misses_per_window=30_000)


def recorded(tmp_path, workload=None):
    """Record ``workload`` (default: two windows of TinyWorkload) to ``.npt``."""
    path = tmp_path / "t.npt"
    record_to_file(workload if workload is not None else two_window_workload(), path)
    return path


def tampered(tmp_path, change):
    """A recorded two-window trace whose columns ``change`` edits in place."""
    data = record_stream(two_window_workload())
    data.columns = {key: np.array(col) for key, col in data.columns.items()}
    change(data)
    return write_npt(data, tmp_path / "bad.npt")


class TestTraceWorkload:
    """Trace-driven evaluation: a user's ``.npt`` file through ``ReplayWorkload``."""

    def test_replays_windows_exactly(self, tmp_path):
        live = two_window_workload()
        live.reset()
        expected = [live.next_window(), live.next_window()]
        assert live.done
        w = ReplayWorkload.from_file(recorded(tmp_path))
        w.reset()
        for want in expected:
            got = w.next_window()
            for column in ("pages", "counts", "group_ptr", "mlp", "load_fraction"):
                np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
            assert list(got.labels) == list(want.labels)
        assert w.done

    def test_validation(self, tmp_path):
        def outside(data):
            data.columns["pages"][0] = data.workload["footprint_pages"]

        with pytest.raises(TraceFormatError, match="outside"):
            ReplayWorkload.from_file(tampered(tmp_path, outside))
        empty = tmp_path / "empty.npt"
        write_npt(record_stream(two_window_workload(), max_windows=0), empty)
        with pytest.raises(TraceFormatError, match="no windows"):
            ReplayWorkload.from_file(empty)

    def test_record_and_replay_round_trip(self, tmp_path, config):
        source = TinyWorkload(total_misses=4 * 30_000)
        replay = ReplayWorkload.from_file(recorded(tmp_path, source))
        result = Machine(replay, NoTierPolicy(), config=config).run()
        assert result.windows == 4
        assert result.total_misses > 0

    def test_file_round_trip(self, tmp_path):
        w = ReplayWorkload.from_file(recorded(tmp_path))
        assert w.footprint_pages == two_window_workload().footprint_pages
        assert w.trace_windows == 2

    def test_runs_under_pact(self, tmp_path, config):
        clear_baseline_cache()
        path = recorded(tmp_path, TinyWorkload(total_misses=12 * 30_000))
        from repro.baselines import make_policy

        workload = ReplayWorkload.from_file(path)
        baseline = ideal_baseline(ReplayWorkload.from_file(path), config=config)
        result = run_policy(workload, make_policy("PACT"), ratio="1:2", config=config)
        assert result.slowdown(baseline) < 1.5


def gups_2m():
    return make_workload("gups", total_misses=2_000_000)


class TestTruncatedReplayIdentity:
    """A replay of a recording that stops before its workload is done
    (one recorded under a window budget) is keyed as its own stream: it
    names the recording and its window count, so it shares no cached
    result or recorded stream with the full workload."""

    @pytest.fixture
    def short(self, tmp_path):
        path = tmp_path / "short.npt"
        record_to_file(gups_2m(), path, max_windows=3)
        return path

    def test_fingerprint_names_the_window_count(self, short, tmp_path):
        assert workload_fingerprint(ReplayWorkload.from_file(short)) == {
            "replay_of": workload_fingerprint(gups_2m()),
            "windows": 3,
        }
        # A complete recording keeps the passthrough (and its keys).
        full = tmp_path / "full.npt"
        record_to_file(gups_2m(), full)
        assert workload_fingerprint(ReplayWorkload.from_file(full)) == (
            workload_fingerprint(gups_2m())
        )

    @pytest.mark.parametrize("short_first", [True, False])
    def test_short_replay_and_live_workload_do_not_alias(
        self, short, config, isolated_stores, short_first
    ):
        cases = [(lambda: ReplayWorkload.from_file(short), True, 3), (gups_2m, False, 8)]
        if not short_first:
            cases.reverse()
        for make, use_cache, windows in cases:
            got = ideal_baseline(make(), config=config, use_cache=use_cache)
            workload = make()
            live = Machine(
                workload, NoTierPolicy(), config=config,
                fast_capacity_override=workload.footprint_pages,
            ).run()
            assert got.windows == live.windows == windows
            assert result_to_dict(got) == result_to_dict(live)


def set_first(column, value):
    """A :func:`tampered` edit writing ``value`` into ``column``'s first row."""

    def change(data):
        data.columns[column][0] = value

    return change


def no_footprint(data):
    data.workload = dict(data.workload, footprint_pages=0)
    data.columns["alloc_order"] = np.empty(0, dtype=np.int64)


class TestTraceValidation:
    """``ReplayWorkload.from_file`` rejects values no run can replay."""

    @pytest.mark.parametrize(
        "change, message",
        [
            (set_first("pages", -1), "outside"),
            (set_first("counts", -1), "negative access count"),
            (set_first("group_mlp", 0.0), "mlp"),
            (set_first("group_mlp", -2.0), "mlp"),
            (set_first("group_mlp", np.nan), "mlp"),
            (set_first("group_mlp", np.inf), "mlp"),
            (no_footprint, "footprint_pages"),
            (set_first("alloc_order", 1), "alloc_order"),
            (set_first("alloc_order", -1), "alloc_order"),
            (set_first("alloc_order", 10**6), "alloc_order"),
            (set_first("group_load_fraction", 1.5), "load_fraction"),
            (set_first("group_load_fraction", -0.5), "load_fraction"),
            (set_first("group_load_fraction", np.nan), "load_fraction"),
            (set_first("group_label", 99), "group_label"),
            (set_first("window_phase", 99), "window_phase"),
        ],
        ids=[
            "negative-page", "negative-count", "zero-mlp", "negative-mlp",
            "nan-mlp", "inf-mlp", "zero-footprint", "alloc-order-duplicate",
            "alloc-order-negative", "alloc-order-outside", "load-fraction-above-one",
            "load-fraction-negative", "nan-load-fraction", "label-past-table",
            "phase-past-table",
        ],
    )
    def test_rejects_bad_values(self, tmp_path, change, message):
        with pytest.raises(TraceFormatError, match=message):
            ReplayWorkload.from_file(tampered(tmp_path, change))


class TestRepeat:
    def test_statistics(self):
        clear_baseline_cache()
        rep = repeat_runs(TinyWorkload, "PACT", ratio="1:2", seeds=(0, 1, 2))
        assert rep.n == 3
        assert rep.mean_slowdown > 0
        assert rep.ci95_slowdown >= 0
        assert "PACT" in rep.summary()

    def test_single_seed_has_zero_ci(self):
        rep = RepeatedResult("w", "p", "1:1", np.array([0.2]), np.array([10.0]))
        assert rep.ci95_slowdown == 0.0
        assert rep.std_slowdown == 0.0

    def test_significance_helper(self):
        a = RepeatedResult("w", "a", "1:1", np.array([0.10, 0.11, 0.09]), np.zeros(3))
        b = RepeatedResult("w", "b", "1:1", np.array([0.50, 0.52, 0.48]), np.zeros(3))
        assert significantly_better(a, b)
        assert not significantly_better(b, a)
        assert not significantly_better(a, a)
