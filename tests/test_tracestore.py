"""The binary trace store: record-once, replay-bit-identically.

Covers the ``.npt`` on-disk format (round-trip, corruption handling),
:class:`ReplayWorkload` exact and looping modes, the content-addressed
:class:`TraceStore` (dedup, disk persistence, corrupt-file recovery),
the batched ``Workload.next_windows`` contract, runner integration
(the runner's replayed results equal live engine runs), and the
once-per-offender un-picklable warning of pooled sweeps.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.exp.cache import canonical, content_hash, result_to_dict, workload_fingerprint
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.workloads import make_workload
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


def assert_streams_equal(live, replayed):
    assert len(live) == len(replayed)
    for a, b in zip(live, replayed):
        assert a.phase == b.phase
        assert a.done == b.done
        assert a.compute_cycles == pytest.approx(b.compute_cycles)
        assert len(a.groups) == len(b.groups)
        for ga, gb in zip(a.groups, b.groups):
            np.testing.assert_array_equal(np.asarray(ga.pages), np.asarray(gb.pages))
            np.testing.assert_array_equal(np.asarray(ga.counts), np.asarray(gb.counts))
            assert ga.mlp == pytest.approx(gb.mlp)
            assert ga.load_fraction == pytest.approx(gb.load_fraction)
            assert ga.label == gb.label


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

    def test_mmap_and_eager_reads_agree(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        mapped = read_npt(path, mmap=True)
        eager = read_npt(path, mmap=False)
        for name in mapped.columns:
            np.testing.assert_array_equal(
                np.asarray(mapped.columns[name]), eager.columns[name]
            )

    def test_replayed_stream_equals_live(self, tmp_path):
        live = small_workload()
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
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
        key, data = store.ensure(small_workload(), 200_000)
        path = store.path_for(key)
        assert path is not None and path.is_file()
        # Clobber the on-disk trace and drop the memory copy: the next
        # lookup must fall through to a fresh recording, not crash.
        path.write_bytes(b"garbage")
        store.clear_memory()
        replay = store.replay(small_workload())
        assert store.stats()["records"] == 2
        assert run_digest(replay) == run_digest(small_workload())


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

    def test_loop_mode_wraps_and_stretches(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path, loop=True)
        one_pass = replay.trace_windows
        replay.set_total_misses(replay.total_misses * 3)
        count = 0
        while not replay.done and count < 100_000:
            replay.next_window()
            count += 1
        assert count > one_pass  # wrapped past the recorded end

    def test_exact_mode_rejects_set_total_misses(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        with pytest.raises(ValueError, match="non-looping"):
            replay.set_total_misses(123)

    def test_allocation_order_is_writable_copy(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        order = replay.allocation_order()
        order[0] = -1  # must not raise (memmap columns are read-only)
        assert replay.allocation_order()[0] != -1

    def test_flat_columns_match_groups(self, tmp_path):
        path = tmp_path / "t.npt"
        record_to_file(small_workload(), path)
        replay = ReplayWorkload.from_file(path)
        traffic = replay.next_window()
        assert traffic.flat_pages is not None
        np.testing.assert_array_equal(
            np.asarray(traffic.flat_pages),
            np.concatenate([np.asarray(g.pages) for g in traffic.groups]),
        )
        np.testing.assert_array_equal(
            np.asarray(traffic.flat_counts),
            np.concatenate([np.asarray(g.counts) for g in traffic.groups]),
        )


class TestTraceStore:
    def test_ensure_records_once_then_hits_memory(self):
        store = TraceStore()
        key1, _ = store.ensure(small_workload(), 200_000)
        key2, _ = store.ensure(small_workload(), 200_000)
        assert key1 == key2
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1

    def test_different_budget_is_a_different_stream(self):
        store = TraceStore()
        key_full, _ = store.ensure(small_workload(), 200_000)
        key_short, _ = store.ensure(small_workload(), 3)
        assert key_full != key_short

    def test_disk_persistence_across_store_instances(self, tmp_path):
        first = TraceStore(tmp_path)
        key, data = first.ensure(small_workload(), 200_000)
        assert data.path is not None
        second = TraceStore(tmp_path)
        _, again = second.ensure(small_workload(), 200_000)
        stats = second.stats()
        assert stats["records"] == 0
        assert stats["disk_hits"] == 1
        assert again.path == data.path

    def test_replay_wraps_and_is_idempotent(self):
        store = TraceStore()
        replay = store.replay(small_workload())
        assert isinstance(replay, ReplayWorkload)
        assert store.replay(replay) is replay  # no double-wrapping

    def test_memory_budget_evicts_oldest(self):
        store = TraceStore(memory_budget_bytes=1)
        store.ensure(small_workload(), 200_000)
        store.ensure(small_workload("gups", total_misses=400_000), 200_000)
        # Over-budget with two memory-only entries: the first is evicted,
        # so re-ensuring it records again.
        store.ensure(small_workload(), 200_000)
        assert store.stats()["records"] == 3


class TestNextWindows:
    @pytest.mark.parametrize("name", ["masim", "gups", "bc-kron"])
    def test_batched_equals_serial(self, name):
        serial = small_workload(name)
        serial.reset()
        serial_stream = []
        while not serial.done:
            serial_stream.append(serial.next_window())
        batched = small_workload(name)
        batched.reset()
        batched_stream = []
        while not batched.done:
            batched_stream.extend(batched.next_windows(7))
        assert_streams_equal(serial_stream, batched_stream)

    @pytest.mark.parametrize("name", ["masim", "gups"])
    def test_consumed_after_is_stamped_per_window(self, name):
        workload = small_workload(name)
        workload.reset()
        windows = workload.next_windows(5)
        assert 2 <= len(windows) <= 5
        consumed = [w.extra["consumed_after"] for w in windows]
        assert consumed == sorted(consumed)
        assert len(set(consumed)) == len(consumed)  # strictly per-window

    def test_respects_done(self):
        workload = small_workload("gups", total_misses=100_000)
        workload.reset()
        windows = workload.next_windows(10_000)
        assert windows[-1].done
        assert workload.next_windows(5) == []


class TestRunnerIntegration:
    def _requests(self):
        from repro.exp.spec import PolicySpec, RunRequest, WorkloadSpec

        return [
            RunRequest(
                workload=WorkloadSpec.registry("masim", total_misses=400_000),
                policy=PolicySpec(name=policy),
                ratio="1:4",
                seed=0,
                config=MachineConfig(),
            )
            for policy in ("PACT", "NoTier")
        ]

    def test_replay_on_and_off_give_identical_results(self):
        # The runner replays every request; an engine-level run of the
        # live workload is the reference it must match bit for bit.
        from repro.exp.runner import run_requests
        from repro.workloads import tracestore

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

    def test_trace_path_attached_when_store_is_disk_backed(self, tmp_path):
        from repro.exp.runner import _prepare_replay
        from repro.workloads import tracestore

        previous = tracestore.set_default_trace_store(tracestore.TraceStore(tmp_path))
        try:
            requests = self._requests()
            _prepare_replay(requests)
            paths = {req.trace_path for req in requests}
            assert len(paths) == 1  # one stream serves both policies
            (path,) = paths
            assert path is not None and path.endswith(".npt")
        finally:
            tracestore.set_default_trace_store(previous)


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
