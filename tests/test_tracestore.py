"""The binary trace store: record-once, replay-bit-identically.

Covers the ``.npt`` on-disk format (round-trip, corruption handling),
:class:`ReplayWorkload`, the content-addressed
:class:`TraceStore` (dedup, disk persistence, corrupt-file recovery),
what ``record_stream`` reads from a live workload, runner integration
(the runner's replayed results equal live engine runs), and the
once-per-offender un-picklable warning of pooled sweeps.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import stat
import warnings
import weakref

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.exp.cache import canonical, content_hash, result_to_dict, workload_fingerprint
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.workloads import ALL_WORKLOADS, make_workload, tracestore
from repro.workloads.tracestore import (
    ReplayWorkload,
    TraceExhausted,
    TraceFormatError,
    TraceStore,
    read_npt,
    record_stream,
    record_to_file,
    write_npt,
)

from oracles import ensure, replay


def small_workload(name="masim", **kwargs):
    kwargs.setdefault("total_misses", 400_000)
    return make_workload(name, **kwargs)


def run_digest(workload, policy="PACT", ratio="1:4", seed=0):
    result = run_policy(
        workload, make_policy(policy), ratio=ratio, config=MachineConfig(), seed=seed
    )
    return content_hash(canonical(result_to_dict(result)))


def stream_windows(workload):
    """Exhaust a workload's stream; returns the list of WindowTraffic."""
    workload.reset()
    out = []
    while not workload.done and len(out) < 10_000:
        out.append(workload.next_window())
    workload.reset()
    return out


#: Every column of a window record.
WINDOW_COLUMNS = ("pages", "counts", "group_ptr", "mlp", "load_fraction")


def assert_streams_equal(live, replayed):
    """Window by window, every column and field is exactly equal."""
    assert len(live) == len(replayed)
    for a, b in zip(live, replayed):
        assert a.phase == b.phase
        assert a.done == b.done
        assert a.compute_cycles == b.compute_cycles
        assert list(a.labels) == list(b.labels)
        for column in WINDOW_COLUMNS:
            got, want = getattr(b, column), getattr(a, column)
            assert got.dtype == want.dtype, column
            np.testing.assert_array_equal(got, want, err_msg=column)


class TestNptRoundTrip:
    def test_write_then_mmap_read_preserves_columns(self, tmp_path):
        data = record_stream(small_workload())
        path = tmp_path / "masim.npt"
        write_npt(data, path)
        loaded = read_npt(path)  # mmap by default
        assert loaded.workload == data.workload
        assert loaded.fingerprint == data.fingerprint
        assert loaded.phases == data.phases
        assert loaded.labels == data.labels
        assert loaded.objects == data.objects
        assert loaded.final_metrics == data.final_metrics
        assert loaded.path == path
        for name, col in data.columns.items():
            np.testing.assert_array_equal(np.asarray(loaded.columns[name]), col)

    def test_strided_columns_write_the_same_bytes(self, tmp_path):
        data = record_stream(small_workload())
        contiguous = write_npt(data, tmp_path / "contiguous.npt")
        strided = {}
        for name, col in data.columns.items():
            wide = np.zeros((col.shape[0], 2), dtype=col.dtype)
            wide[:, 1] = col
            strided[name] = wide[:, 1]  # a view of every other element
            assert strided[name].base is wide
            assert col.size <= 1 or not strided[name].flags.c_contiguous
        path = write_npt(
            dataclasses.replace(data, columns=strided), tmp_path / "strided.npt"
        )
        assert path.read_bytes() == contiguous.read_bytes()
        loaded = read_npt(path)
        for name, col in data.columns.items():
            np.testing.assert_array_equal(np.asarray(loaded.columns[name]), col)

    def test_written_file_honours_the_umask(self, tmp_path):
        # A trace is a shareable artifact: created like open() would
        # create it, not private like a temporary file.
        path = tmp_path / "shared.npt"
        old = os.umask(0o022)
        try:
            record_to_file(small_workload(), path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_replayed_stream_equals_live(self, tmp_path):
        live = small_workload()
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        assert_streams_equal(stream_windows(live), stream_windows(replay))

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_replayed_stream_equals_live_for_every_workload(self, name):
        live = small_workload(name, total_misses=600_000)
        replay = ReplayWorkload(record_stream(small_workload(name, total_misses=600_000)))
        assert_streams_equal(stream_windows(live), stream_windows(replay))

    def test_machine_run_over_replay_is_bit_identical(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        live_digest = run_digest(small_workload())
        replay_digest = run_digest(ReplayWorkload.from_file(path))
        assert replay_digest == live_digest

    def test_replay_fingerprint_matches_live_workload(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        assert workload_fingerprint(replay) == workload_fingerprint(small_workload())

    def test_final_metrics_survive_round_trip(self, tmp_path):
        live = small_workload("gpt-2")
        expected = None
        if hasattr(live, "final_metrics"):
            stream_windows(live)  # some workloads finalise metrics lazily
            expected = live.final_metrics()
        path = tmp_path / "t.npt"
        record_to_file(small_workload("gpt-2"), path)
        replay = ReplayWorkload.from_file(path)
        if expected is not None:
            assert replay.final_metrics() == expected


class TestCorruption:
    def _valid_bytes(self, tmp_path):
        path = tmp_path / "ok.npt"
        record_to_file(small_workload(), path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "bad_magic.npt"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_npt(bad)

    def test_truncated_header(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "short.npt"
        bad.write_bytes(raw[:16])
        with pytest.raises(TraceFormatError, match="truncated header"):
            read_npt(bad)

    def test_truncated_column_data(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "cut.npt"
        bad.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(TraceFormatError, match="truncated column"):
            read_npt(bad)

    def test_wrong_format_version(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        header_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + header_len])
        header["format_version"] = 99
        blob = json.dumps(header, sort_keys=True).encode()
        # Keep the payload in place: pad the header blob to its old size.
        blob += b" " * (header_len - len(blob))
        bad = tmp_path / "vers.npt"
        bad.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + header_len:])
        with pytest.raises(TraceFormatError, match="format version"):
            read_npt(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.npt"
        bad.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_npt(bad)

    def test_corrupt_header_json(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        header_len = int.from_bytes(raw[4:8], "little")
        bad = tmp_path / "json.npt"
        bad.write_bytes(raw[:8] + b"\xff" * header_len + raw[8 + header_len:])
        with pytest.raises(TraceFormatError, match="corrupt header"):
            read_npt(bad)

    @pytest.mark.parametrize("ptr_name", ["group_page_ptr", "window_group_ptr"])
    def test_pointer_overrunning_its_column(self, tmp_path, ptr_name):
        # Slicing would silently truncate the last window or group.
        data = record_stream(small_workload())
        ptr = np.array(data.columns[ptr_name])
        ptr[-1] += 5
        data.columns = dict(data.columns, **{ptr_name: ptr})
        bad = write_npt(data, tmp_path / "overrun.npt")
        with pytest.raises(TraceFormatError, match=f"{ptr_name} ends at"):
            read_npt(bad)

    def test_store_treats_corrupt_file_as_miss_and_rerecords(self, tmp_path):
        store = TraceStore(tmp_path)
        key, data = ensure(store, small_workload(), 200_000)
        path = store.path_for(key)
        assert path is not None and path.is_file()
        # Clobber the on-disk trace and drop the memory copy: the next
        # lookup must fall through to a fresh recording, not crash.
        path.write_bytes(b"garbage")
        store.clear_memory()
        replayed = replay(store, small_workload())
        assert store.stats()["records"] == 2
        assert run_digest(replayed) == run_digest(small_workload())


class TestReplayWorkload:
    def test_exhaustion_raises(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        windows = stream_windows(replay)
        replay.reset()
        for _ in windows:
            replay.next_window()
        with pytest.raises(TraceExhausted):
            replay.next_window()

    def test_window_budget_trace_replays_to_its_end(self, tmp_path):
        # A trace recorded under a window budget ends before its
        # workload does; its replay ends with its last window.
        path = tmp_path / "short.npt"
        record_to_file(make_workload("gups", total_misses=2_000_000), path, max_windows=3)
        replay = ReplayWorkload.from_file(path)
        assert replay.trace_windows == 3
        replayed = run_policy(replay, make_policy("PACT"), ratio="1:4", config=MachineConfig())
        live = run_policy(
            make_workload("gups", total_misses=2_000_000),
            make_policy("PACT"),
            ratio="1:4",
            config=MachineConfig(),
            max_windows=3,
        )
        assert replayed.windows == 3
        assert result_to_dict(replayed) == result_to_dict(live)

    def test_allocation_order_is_writable_copy(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        order = replay.allocation_order()
        order[0] = -1  # must not raise (memmap columns are read-only)
        assert replay.allocation_order()[0] != -1

    def test_flat_columns_match_groups(self, tmp_path):
        # A replayed window is a slice of the recorded columns: its
        # entries view the mapped file, its group_ptr is the recorded
        # group_page_ptr made window-local.
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        c = replay.trace_data.columns
        wgp, gpp = c["window_group_ptr"], c["group_page_ptr"]
        for w in range(replay.trace_windows):
            traffic = replay.next_window()
            g0, g1 = int(wgp[w]), int(wgp[w + 1])
            p0, p1 = int(gpp[g0]), int(gpp[g1])
            assert np.shares_memory(traffic.pages, c["pages"])
            assert np.shares_memory(traffic.counts, c["counts"])
            np.testing.assert_array_equal(traffic.pages, c["pages"][p0:p1])
            np.testing.assert_array_equal(traffic.counts, c["counts"][p0:p1])
            np.testing.assert_array_equal(traffic.group_ptr, gpp[g0 : g1 + 1] - p0)
            np.testing.assert_array_equal(traffic.mlp, c["group_mlp"][g0:g1])
            assert list(traffic.labels) == [
                replay.trace_data.labels[code] for code in c["group_label"][g0:g1]
            ]


class TestTraceStore:
    def test_ensure_records_once_then_hits_memory(self):
        store = TraceStore()
        key1, _ = ensure(store, small_workload(), 200_000)
        key2, _ = ensure(store, small_workload(), 200_000)
        assert key1 == key2
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1

    def test_different_budget_is_a_different_stream(self):
        store = TraceStore()
        key_full, _ = ensure(store, small_workload(), 200_000)
        key_short, _ = ensure(store, small_workload(), 3)
        assert key_full != key_short

    def test_disk_persistence_across_store_instances(self, tmp_path):
        first = TraceStore(tmp_path)
        key, data = ensure(first, small_workload(), 200_000)
        assert data.path is not None
        second = TraceStore(tmp_path)
        _, again = ensure(second, small_workload(), 200_000)
        stats = second.stats()
        assert stats["records"] == 0
        assert stats["disk_hits"] == 1
        assert again.path == data.path

    def test_replay_wraps_and_is_idempotent(self):
        store = TraceStore()
        replayed = replay(store, small_workload())
        assert isinstance(replayed, ReplayWorkload)
        assert replay(store, replayed) is replayed  # no double-wrapping

    def test_memory_budget_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tracestore, "DEFAULT_MEMORY_BUDGET", 1)
        store = TraceStore()
        ensure(store, small_workload(), 200_000)
        ensure(store, small_workload("gups", total_misses=400_000), 200_000)
        # Over-budget with two memory-only entries: the first is evicted,
        # so re-ensuring it records again.
        ensure(store, small_workload(), 200_000)
        assert store.stats()["records"] == 3

    def test_memos_count_against_the_memory_budget(self, monkeypatch):
        # A memory-only store counts each held stream's memo (plan and
        # draws) with its columns.  The budget fits both streams' columns
        # but not A's plan on top, so recording B evicts A.
        a_workload, b_workload = small_workload(), small_workload("gups")
        b_bytes = tracestore.record_stream(small_workload("gups")).nbytes()
        store = TraceStore()
        _, a = ensure(store, a_workload, 200_000)
        run_policy(ReplayWorkload(a), make_policy("PACT"), ratio="1:4")
        assert a.memo.plan is not None and a.memo.plan.nbytes() > 0
        monkeypatch.setattr(tracestore, "DEFAULT_MEMORY_BUDGET", a.nbytes() + b_bytes)
        ensure(store, b_workload, 200_000)
        ensure(store, small_workload(), 200_000)
        assert store.stats()["records"] == 3

    def test_one_mapped_stream_is_held(self, tmp_path):
        store = TraceStore(tmp_path)
        _, first = ensure(store, small_workload(), 200_000)
        assert first.path is not None
        held = weakref.ref(first)
        # A replayed run fills the stream's memo (its plan and draws).
        run_policy(ReplayWorkload(first), make_policy("PACT"), ratio="1:4")
        assert first.memo.plan is not None and first.memo.draw_bytes
        memo = weakref.ref(first.memo)
        del first
        # Mapping a second stream drops the first: nothing else holds it
        # or its memo.
        ensure(store, small_workload("gups", total_misses=400_000), 200_000)
        gc.collect()
        assert held() is None
        assert memo() is None
        # Its file maps again on the next lookup, without re-recording.
        _, again = ensure(store, small_workload(), 200_000)
        assert again.path is not None
        assert store.stats()["records"] == 2


class TestRecordStream:
    @pytest.mark.parametrize("name", ["masim", "gups"])
    def test_window_consumed_is_live_work_counter(self, name):
        # The recorder steps next_window as the machine does and reads
        # the work counter after each window.
        live = small_workload(name)
        live.reset()
        counters = []
        while not live.done:
            live.next_window()
            counters.append(live._consumed)
        data = record_stream(small_workload(name))
        assert data.columns["window_consumed"].tolist() == counters
        assert counters == sorted(set(counters))  # strictly per-window

    def test_stops_when_done_or_at_budget(self):
        data = record_stream(small_workload("gups", total_misses=100_000))
        assert data.num_windows == 1
        assert data.columns["window_done"].tolist() == [1]
        short = record_stream(small_workload("gups"), max_windows=1)
        assert short.num_windows == 1
        assert short.columns["window_done"].tolist() == [0]


class TestRunnerIntegration:
    def _requests(self, policies=("PACT", "NoTier")):
        from repro.exp.spec import PolicySpec, RunRequest, WorkloadSpec

        return [
            RunRequest(
                workload=WorkloadSpec.registry("masim", total_misses=400_000),
                policy=PolicySpec(name=policy),
                ratio="1:4",
                seed=0,
                config=MachineConfig(),
            )
            for policy in policies
        ]

    def test_replay_on_and_off_give_identical_results(self):
        # The runner replays every request; an engine-level run of the
        # live workload is the reference it must match bit for bit.
        from repro.exp.runner import run_requests

        tracestore.reset_default_trace_store()
        try:
            replayed = run_requests(self._requests(), use_cache=False)
            for req in self._requests():
                live = run_policy(
                    small_workload(), req.policy.build(), ratio=req.ratio,
                    config=MachineConfig(), seed=req.seed,
                )
                a = result_to_dict(live)
                b = result_to_dict(replayed.result(req))
                assert canonical(a) == canonical(b)
        finally:
            tracestore.reset_default_trace_store()

    def test_one_plan_serves_a_disk_backed_sweep(self, tmp_path, monkeypatch):
        # Both reference runs and both policies replay one mapped
        # stream, so they share its memoised entry-meta plan.
        from repro.exp.runner import run_requests
        from repro.exp.spec import RunRequest
        from repro.hw import drawplan

        built = []
        init = drawplan.EntryMetaPlan.__init__

        def counted(plan, *args, **kwargs):
            built.append(plan)
            init(plan, *args, **kwargs)

        monkeypatch.setattr(drawplan.EntryMetaPlan, "__init__", counted)
        previous = tracestore.set_default_trace_store(tracestore.TraceStore(tmp_path))
        try:
            requests = self._requests(("PACT", "Memtis"))
            spec = requests[0].workload
            requests += [
                RunRequest.ideal(spec, config=MachineConfig()),
                RunRequest.slow_only(spec, config=MachineConfig()),
            ]
            run_requests(requests, jobs=1, use_cache=False)
        finally:
            tracestore.set_default_trace_store(previous)
        assert len(built) == 1

    def test_one_plan_per_stream_across_workloads(self, tmp_path, monkeypatch):
        # A grid lists every workload's reference runs before its policy
        # runs; execution units follow the stream instead, so each of
        # two mapped streams is mapped and planned once.
        from repro.exp.runner import run_experiment
        from repro.exp.spec import ExperimentSpec, WorkloadSpec
        from repro.hw import drawplan

        built, maps = [], []
        init, read = drawplan.EntryMetaPlan.__init__, tracestore.read_npt

        def counted(plan, *args, **kwargs):
            built.append(plan)
            init(plan, *args, **kwargs)

        def counted_read(*args, **kwargs):
            maps.append(args)
            return read(*args, **kwargs)

        spec = ExperimentSpec(
            workloads={
                name: WorkloadSpec.registry(name, total_misses=400_000)
                for name in ("masim", "gups")
            },
            policies=["PACT", "Memtis"],
            ratios=["1:4"],
        )
        previous = tracestore.set_default_trace_store(tracestore.TraceStore(tmp_path))
        try:
            # Record both streams first, as a warm trace directory has them.
            run_experiment(spec, jobs=1, use_cache=False)
            monkeypatch.setattr(drawplan.EntryMetaPlan, "__init__", counted)
            monkeypatch.setattr(tracestore, "read_npt", counted_read)
            tracestore.get_default_trace_store().clear_memory()
            run_experiment(spec, jobs=1, use_cache=False)
        finally:
            tracestore.set_default_trace_store(previous)
        assert len(built) == 2
        # _prepare_replay maps each stream once, leaving the last one
        # held; execution maps each once more.
        assert len(maps) == 4


class TestUnpicklableWarning:
    def _lambda_requests(self):
        from repro.exp.spec import PolicySpec, RunRequest, WorkloadSpec

        spec = WorkloadSpec.from_factory(
            lambda: make_workload("masim", total_misses=400_000), label="lam"
        )
        return [
            RunRequest(
                workload=spec,
                policy=PolicySpec(name=policy),
                ratio="1:4",
                seed=0,
            )
            for policy in ("PACT", "NoTier")
        ]

    def _sweep(self, jobs):
        from repro.exp.cache import ResultStore
        from repro.exp.runner import run_requests

        run_requests(self._lambda_requests(), jobs=jobs, store=ResultStore(), use_cache=False)

    def test_warns_once_per_offending_factory(self):
        from repro.exp.service import reset_unpicklable_warnings

        reset_unpicklable_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._sweep(jobs=2)
            self._sweep(jobs=2)
        relevant = [w for w in caught if "not picklable" in str(w.message)]
        assert len(relevant) == 1

    def test_reset_allows_warning_again(self):
        from repro.exp.service import reset_unpicklable_warnings

        reset_unpicklable_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._sweep(jobs=2)
            reset_unpicklable_warnings()
            self._sweep(jobs=2)
        relevant = [w for w in caught if "not picklable" in str(w.message)]
        assert len(relevant) == 2

    def test_in_process_sweep_never_warns(self):
        from repro.exp.service import reset_unpicklable_warnings

        reset_unpicklable_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._sweep(jobs=1)
        assert not [w for w in caught if "not picklable" in str(w.message)]
