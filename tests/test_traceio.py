"""Trace export: JSON round-trips and CSV structure."""

import csv

import pytest

from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
from repro.sim.traceio import read_json, result_to_dict, write_json, write_trace_csv

from conftest import TinyWorkload


@pytest.fixture(scope="module")
def traced_result():
    machine = Machine(TinyWorkload(), NoTierPolicy(), config=MachineConfig(), trace=True)
    return machine.run(max_windows=6)


class TestJson:
    def test_dict_fields(self, traced_result):
        payload = result_to_dict(traced_result)
        assert payload["workload"] == "tiny"
        assert payload["policy"] == "NoTier"
        assert payload["windows"] == 6
        assert len(payload["trace"]) == 6
        assert payload["tier_misses"].keys() == {"fast", "slow"}
        # Tiers below the first two are keyed by plain ints, not enums.
        three_tier = Machine(
            TinyWorkload(),
            NoTierPolicy(),
            config=MachineConfig(topology=make_topology("dram-cxlz-nvme")),
            ratio="1:4:16",
        ).run(max_windows=2)
        payload = result_to_dict(three_tier)
        assert payload["tier_misses"].keys() == {"fast", "slow", "tier2"}
        assert sum(payload["tier_misses"].values()) == payload["total_misses"]

    def test_trace_optional(self, traced_result):
        payload = result_to_dict(traced_result, include_trace=False)
        assert "trace" not in payload

    def test_round_trip(self, traced_result, tmp_path):
        path = write_json(traced_result, tmp_path / "run.json")
        loaded = read_json(path)
        assert loaded["runtime_cycles"] == pytest.approx(traced_result.runtime_cycles)
        assert loaded["trace"][0]["window"] == 0

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
