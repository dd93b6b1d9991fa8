"""Trace export: JSON round-trips and CSV structure."""

import csv
import io
import json

import pytest

from repro.exp.runner import run_requests
from repro.exp.spec import RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.mem.topology import make_topology
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult, result_to_dict
from repro.sim.policy_api import NoTierPolicy
from repro.sim.traceio import read_json, write_json, write_trace_csv, write_trace_jsonl

from conftest import TinyWorkload


@pytest.fixture(scope="module")
def traced_result():
    machine = Machine(
        TinyWorkload(), NoTierPolicy(), config=MachineConfig(), obs=Observability()
    )
    return machine.run(max_windows=6)


@pytest.fixture(scope="module")
def three_tier_result():
    return Machine(
        TinyWorkload(),
        NoTierPolicy(),
        config=MachineConfig(topology=make_topology("dram-cxlz-nvme")),
        ratio="1:4:16",
    ).run(max_windows=2)


class TestJson:
    def test_dict_fields(self, traced_result, three_tier_result, tmp_path):
        # The written document is the result store's.
        payload = json.loads(write_json(traced_result, tmp_path / "two.json").read_text())
        assert payload == json.loads(json.dumps(result_to_dict(traced_result)))
        assert payload["workload"] == "tiny"
        assert payload["policy"] == "NoTier"
        assert payload["windows"] == 6
        assert len(payload["trace"]) == 6
        assert payload["tier_misses"].keys() == {"FAST", "SLOW"}
        # Tiers below the first two are labelled by index.
        payload = json.loads(write_json(three_tier_result, tmp_path / "three.json").read_text())
        assert payload["tier_misses"].keys() == {"FAST", "SLOW", "TIER2"}
        assert sum(payload["tier_misses"].values()) == payload["total_misses"]

    def test_trace_optional(self, three_tier_result, tmp_path):
        assert three_tier_result.trace is None
        path = write_json(three_tier_result, tmp_path / "run.json")
        assert json.loads(path.read_text())["trace"] is None
        assert read_json(path).trace is None

    def test_round_trip(self, traced_result, three_tier_result, tmp_path):
        for result in (traced_result, three_tier_result):
            loaded = read_json(write_json(result, tmp_path / "run.json"))
            assert isinstance(loaded, RunResult)
            assert result_to_dict(loaded) == result_to_dict(result)
            assert loaded.tier_misses.keys() == result.tier_misses.keys()

    def test_creates_parent_dirs(self, traced_result, tmp_path):
        path = write_json(traced_result, tmp_path / "a" / "b" / "run.json")
        assert path.exists()


class TestCsv:
    def test_structure(self, traced_result, tmp_path):
        path = write_trace_csv(traced_result, tmp_path / "trace.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "window"
        assert len(rows) == 7  # header + 6 windows
        assert float(rows[1][1]) > 0  # duration_cycles

    def test_requires_trace(self, tmp_path):
        machine = Machine(TinyWorkload(), NoTierPolicy(), config=MachineConfig())
        result = machine.run(max_windows=2)
        with pytest.raises(ValueError):
            write_trace_csv(result, tmp_path / "x.csv")


class TestTracedRequest:
    """One trace form end to end: a traced request's result exports the
    same bytes whether it was just simulated or read back from disk."""

    COUNTS = ("window", "slow_misses", "fast_misses", "promoted", "demoted")

    @staticmethod
    def _exports(result, path):
        jsonl = io.StringIO()
        assert write_trace_jsonl(result, jsonl) == len(result.trace)
        return jsonl.getvalue(), write_trace_csv(result, path).read_bytes()

    def test_cold_and_warm_exports_are_identical(self, isolated_stores, tmp_path):
        request = RunRequest(
            workload=WorkloadSpec.registry("gups", total_misses=2_000_000),
            policy="PACT",
            ratio="1:2",
            trace=True,
        )
        store = SqliteResultStore(tmp_path / "cache")
        cold = run_requests([request], store=store)[request]
        store.close()
        # A reopened store serves the run from disk, simulating nothing.
        store = SqliteResultStore(tmp_path / "cache")
        warm = run_requests([request], store=store)[request]
        assert store.disk_hits == 1
        store.close()

        assert cold.trace and len(warm.trace) == len(cold.trace)
        assert cold.metrics_summary and cold.fast_pages is not None
        assert self._exports(warm, tmp_path / "warm.csv") == self._exports(
            cold, tmp_path / "cold.csv"
        )
        for result in (cold, warm):
            for rec in result.trace:
                assert all(type(getattr(rec, name)) is int for name in self.COUNTS)
