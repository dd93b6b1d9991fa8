"""Trace-driven replay of ``.npt`` files, multi-seed statistics, and charts."""

import numpy as np
import pytest

from repro.analysis.repeat import RepeatedResult, repeat_runs, significantly_better
from repro.common.charts import bar_chart, series_with_sparkline, sparkline
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
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
        w = ReplayWorkload.from_file(recorded(tmp_path), loop=False)
        w.reset()
        for want in expected:
            got = w.next_window()
            assert len(got.groups) == len(want.groups)
            for g, h in zip(got.groups, want.groups):
                np.testing.assert_array_equal(g.pages, h.pages)
                np.testing.assert_array_equal(g.counts, h.counts)
                assert g.mlp == h.mlp
        assert w.done

    def test_looping_stretches_work(self, tmp_path):
        w = ReplayWorkload.from_file(recorded(tmp_path), loop=True)
        assert w.trace_windows == 2
        w.set_total_misses(4 * w.total_misses)  # four passes over the trace
        w.reset()
        windows = 0
        while not w.done and windows < 50:
            w.next_window()
            windows += 1
        assert windows == 8

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
        replay = ReplayWorkload.from_file(recorded(tmp_path, source), loop=False)
        result = Machine(replay, NoTierPolicy(), config=config).run()
        assert result.windows == 4
        assert result.total_misses > 0

    def test_file_round_trip(self, tmp_path):
        w = ReplayWorkload.from_file(recorded(tmp_path), loop=False)
        assert w.footprint_pages == two_window_workload().footprint_pages
        assert w.trace_windows == 2

    def test_runs_under_pact(self, tmp_path, config):
        clear_baseline_cache()
        path = recorded(tmp_path, TinyWorkload(total_misses=12 * 30_000))
        from repro.baselines import make_policy

        workload = ReplayWorkload.from_file(path, loop=False)
        baseline = ideal_baseline(ReplayWorkload.from_file(path, loop=False), config=config)
        result = run_policy(workload, make_policy("PACT"), ratio="1:2", config=config)
        assert result.slowdown(baseline) < 1.5


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
        ],
        ids=[
            "negative-page", "negative-count", "zero-mlp", "negative-mlp",
            "nan-mlp", "inf-mlp", "zero-footprint",
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


class TestCharts:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_bar_chart(self):
        out = bar_chart({"PACT": 0.1, "TPP": 0.4})
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_series_with_sparkline(self):
        out = series_with_sparkline("promos", [1.0, 2.0])
        assert "promos" in out and "max 2" in out
