"""The command-line interface."""

import io
import json

import pytest

from repro.baselines import make_policy
from repro.cli import build_parser, main
from repro.exp.cache import result_to_dict
from repro.sim.engine import run_policy
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom", "--policy", "PACT"])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "gups", "--policy", "LRU2"])


class TestCommands:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        assert "bc-kron" in text and "PACT" in text and "8:1" in text

    def test_run(self):
        code, text = run_cli(
            "run", "--workload", "gups", "--policy", "PACT",
            "--ratio", "1:2", "--work", "2000000",
        )
        assert code == 0
        assert "slowdown vs DRAM-only" in text
        assert "pages promoted" in text

    def test_run_with_thp(self):
        code, text = run_cli(
            "run", "--workload", "gups", "--policy", "Memtis",
            "--thp", "--work", "2000000",
        )
        assert code == 0
        assert "slowdown" in text

    def test_sweep(self):
        code, text = run_cli(
            "sweep", "--workload", "masim", "--policies", "PACT", "NoTier",
            "--work", "2000000",
        )
        assert code == 0
        assert "8:1" in text and "1:8" in text
        assert "CXL (all-slow)" in text

    def test_compare(self):
        code, text = run_cli(
            "compare", "--workloads", "gups", "masim",
            "--policies", "PACT", "NoTier", "--work", "2000000",
        )
        assert code == 0
        assert "gups" in text and "masim" in text

    def test_calibrate(self):
        code, text = run_cli("calibrate", "--windows", "3")
        assert code == 0
        assert "fitted k" in text


class TestTrace:
    def test_jsonl_to_stdout(self):
        code, text = run_cli(
            "trace", "gups", "PACT", "--ratio", "1:2", "--work", "2000000",
        )
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows
        assert rows[0]["window"] == 0
        for row in rows:
            assert "promoted" in row and "demoted" in row
            assert "hw/util_fast" in row["metrics"]
            assert "mem/occupancy_slow" in row["metrics"]
            assert "pact/eviction_bar" in row["metrics"]

    def test_downsampled_jsonl_file(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "trace", "gups", "PACT", "--work", "2000000",
            "--downsample", "4", "-o", str(target),
        )
        assert code == 0
        assert "wrote" in text and "machine/windows" in text
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert all(row["window"] % 4 == 0 for row in rows)

    def test_csv_requires_output(self):
        code, text = run_cli(
            "trace", "gups", "PACT", "--format", "csv", "--work", "2000000",
        )
        assert code == 2
        assert "requires --output" in text

    def test_csv_file(self, tmp_path):
        target = tmp_path / "trace.csv"
        code, _ = run_cli(
            "trace", "gups", "NoTier", "--format", "csv",
            "--work", "2000000", "-o", str(target),
        )
        assert code == 0
        header = target.read_text().splitlines()[0]
        assert "window" in header and "stall_cycles" in header

    def test_timings_table(self):
        code, text = run_cli(
            "trace", "gups", "PACT", "--work", "2000000",
            "--timings", "-o", "/dev/null",
        )
        assert code == 0
        assert "stall_solve" in text and "wall time" in text

    def test_record_writes_a_replayable_npt(self, tmp_path):
        target = tmp_path / "gups.npt"
        code, text = run_cli("trace", "record", "gups", "--work", "2000000", "-o", str(target))
        assert code == 0
        assert "npt v1" in text
        replay = ReplayWorkload.from_file(target)
        live = make_workload("gups", total_misses=2_000_000)
        replayed = run_policy(replay, make_policy("PACT"), ratio="1:2")
        expected = run_policy(live, make_policy("PACT"), ratio="1:2")
        assert result_to_dict(replayed) == result_to_dict(expected)

    def test_record_rejects_other_formats(self, tmp_path):
        target = tmp_path / "gups.json"
        code, text = run_cli("trace", "record", "gups", "--work", "2000000", "-o", str(target))
        assert code == 2
        assert ".npt" in text
        assert not target.exists()
