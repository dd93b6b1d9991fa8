"""The command-line interface."""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import make_policy
from repro.cli import POLICY_CHOICES, build_parser, main
from repro.exp import report as exp_report
from repro.exp.cache import result_to_dict
from repro.exp.runner import run_experiment
from repro.exp.spec import ExperimentSpec, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.mem.topology import TOPOLOGY_NAMES, make_topology
from repro.sim.config import PAPER_RATIOS, parse_ratio_parts
from repro.sim.engine import run_policy
from repro.workloads import ALL_WORKLOADS, make_workload
from repro.workloads.tracestore import ReplayWorkload


def stored_grid(directory, workloads, ratios, **options):
    """The PACT/NoTier grid at 2M misses, read back from ``directory``'s store."""
    spec = ExperimentSpec(
        workloads={w: WorkloadSpec.registry(w, total_misses=2_000_000) for w in workloads},
        policies=["PACT", "NoTier"],
        ratios=list(ratios),
        **options,
    )
    store = SqliteResultStore(directory)
    try:
        return run_experiment(spec, store=store)
    finally:
        store.close()


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


#: Every count flag of every verb, with the arguments the verb requires.
COUNT_FLAGS = [
    (verb, flag)
    for verb in ("run", "sweep", "compare", "bench", "campaign", "trace")
    for flag in ("--work", "--pebs-rate")
] + [("trace", "--max-windows"), ("calibrate", "--windows")]

REQUIRED_ARGS = {
    "run": ("--workload", "gups", "--policy", "PACT"),
    "sweep": ("--workload", "gups"),
    "trace": ("gups", "PACT"),
}


@pytest.mark.parametrize("verb,flag", COUNT_FLAGS)
def test_count_flag_of_zero_is_a_usage_error(verb, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(verb, *REQUIRED_ARGS.get(verb, ()), flag, "0")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro")
    assert f"argument {flag}: must be at least 1" in err
    assert "Traceback" not in err


#: A small run that would finish quickly, if anything ran.
QUICK = ("--work", "200000", "--no-cache")

#: Malformed ratios and names: each must stop at the parser, not fail
#: with a traceback inside a run.
BAD_ARGS = [
    ("run", "--ratio", ("foo",)),
    ("run", "--ratio", ("0:4",)),
    ("trace", "--ratio", ("foo",)),
    ("run", "--ratio", ("1:4:16",)),  # three parts, two tiers by default
    ("sweep", "--policies", ("PACT", "Bogus")),
    ("bench", "--policies", ("Nope",)),
    ("compare", "--workloads", ("nope",)),
    ("campaign", "--ratios", ("x",)),
]


def assert_usage_error(exc, capsys, count_runs):
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro")
    assert "Traceback" not in err
    assert count_runs == []
    return err


@pytest.mark.parametrize("verb,flag,values", BAD_ARGS)
def test_malformed_ratio_or_name_is_a_usage_error(verb, flag, values, capsys, count_runs):
    with pytest.raises(SystemExit) as exc:
        run_cli(verb, *REQUIRED_ARGS.get(verb, ()), flag, *values, *QUICK)
    assert f"argument {flag}:" in assert_usage_error(exc, capsys, count_runs)


def test_short_ratio_is_padded_on_a_deeper_topology():
    code, text = run_cli(
        "run", "--workload", "gups", "--policy", "PACT", "--ratio", "1:4",
        "--topology", "dram-cxlz-nvme", *QUICK,
    )
    assert code == 0
    assert "slowdown vs DRAM-only" in text


def _parses(ratio: str) -> bool:
    try:
        parse_ratio_parts(ratio)
    except ValueError:
        return False
    return True


_PART = st.integers(1, 32).map(str)
#: A ratio every topology takes.
_GOOD_RATIO = st.lists(_PART, min_size=2, max_size=2).map(":".join)
#: Names no choice list holds (never option-like).
_BAD_NAME = st.text(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.:_", min_size=1, max_size=10
).filter(lambda name: name not in POLICY_CHOICES and name not in ALL_WORKLOADS + ["record"])


def _bad_ratio(tiers: int):
    """A ratio that does not parse, or has more parts than ``tiers``."""
    unparsable = st.text(
        st.characters(min_codepoint=32, max_codepoint=126), max_size=10
    ).filter(lambda text: not text.startswith("-") and not _parses(text))
    zero_end = st.tuples(_PART, st.sampled_from(["0:{}", "{}:0", "0.0:{}"])).map(
        lambda t: t[1].format(t[0])
    )
    too_deep = st.lists(_PART, min_size=tiers + 1, max_size=tiers + 3).map(":".join)
    return st.one_of(unparsable, zero_end, too_deep)


#: Each verb's name and ratio slots: (flag or None for a positional,
#: ``"workload"``/``"policy"``/``"ratio"``, most values).
VERB_SLOTS = {
    "run": [("--workload", "workload", 1), ("--policy", "policy", 1), ("--ratio", "ratio", 1)],
    "sweep": [("--workload", "workload", 1), ("--policies", "policy", 3)],
    "compare": [
        ("--workloads", "workload", 3), ("--policies", "policy", 3), ("--ratio", "ratio", 1),
    ],
    "bench": [
        ("--workloads", "workload", 3), ("--policies", "policy", 3), ("--ratios", "ratio", 3),
    ],
    "campaign": [
        ("--workloads", "workload", 3), ("--policies", "policy", 3), ("--ratios", "ratio", 3),
    ],
    "trace": [(None, "workload", 1), (None, "policy", 1), ("--ratio", "ratio", 1)],
}


@st.composite
def argv_with_one_fault(draw, verb):
    """A verb's argv in which exactly one ratio or name is malformed."""
    topology = draw(st.sampled_from(TOPOLOGY_NAMES))
    good = {
        "workload": st.sampled_from(ALL_WORKLOADS),
        "policy": st.sampled_from(POLICY_CHOICES),
        "ratio": _GOOD_RATIO,
    }
    bad = {
        "workload": _BAD_NAME,
        "policy": _BAD_NAME,
        "ratio": _bad_ratio(make_topology(topology).num_tiers),
    }
    slots = VERB_SLOTS[verb]
    faulty = draw(st.integers(0, len(slots) - 1))
    argv = [verb]
    for i, (flag, kind, most) in enumerate(slots):
        if i == faulty:
            values = draw(st.lists(good[kind], max_size=most - 1))
            values.insert(draw(st.integers(0, len(values))), draw(bad[kind]))
        else:
            values = draw(st.lists(good[kind], min_size=1, max_size=most))
        argv += ([flag] if flag else []) + values
    return argv + ["--topology", topology, *QUICK]


@pytest.mark.parametrize("verb", sorted(VERB_SLOTS))
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_generated_argv_with_one_fault_is_a_usage_error(verb, data, capsys, count_runs):
    argv = data.draw(argv_with_one_fault(verb))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert_usage_error(exc, capsys, count_runs)


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

    def test_run_persists_both_runs(self, tmp_path, count_runs):
        argv = (
            "run", "--workload", "gups", "--policy", "PACT", "--ratio", "1:2",
            "--work", "2000000", "--cache-dir", str(tmp_path),
        )
        code, first = run_cli(*argv)
        assert code == 0
        store = SqliteResultStore(tmp_path)
        assert store.count() == 2  # the ideal baseline and the policy run
        store.close()
        count_runs.clear()
        code, second = run_cli(*argv)
        assert code == 0 and second == first
        assert count_runs == []  # both served from results.sqlite

    def test_sweep(self, tmp_path, count_runs):
        code, text = run_cli(
            "sweep", "--workload", "masim", "--policies", "PACT", "NoTier",
            "--work", "2000000", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "8:1" in text and "1:8" in text
        assert "CXL (all-slow)" in text
        count_runs.clear()
        exp = stored_grid(tmp_path, ["masim"], PAPER_RATIOS)
        assert count_runs == []  # the whole grid is served from the store
        table = exp_report.ratio_table(exp, "masim", ["PACT", "NoTier"], PAPER_RATIOS)
        assert text == f"slowdown vs DRAM-only, workload masim:\n{table}\n"

    def test_compare(self, tmp_path, count_runs):
        code, text = run_cli(
            "compare", "--workloads", "gups", "masim",
            "--policies", "PACT", "NoTier", "--work", "2000000",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "gups" in text and "masim" in text
        store = SqliteResultStore(tmp_path)
        assert store.count() == 6  # 2 ideal and 4 policy runs: no unread slow-only run
        store.close()
        count_runs.clear()
        exp = stored_grid(tmp_path, ["gups", "masim"], ["1:1"], include_slow_only=False)
        assert count_runs == []  # the whole grid is served from the store
        table = exp_report.workload_table(
            exp, ["gups", "masim"], ["PACT", "NoTier"], "1:1", slow_only_col=False
        )
        assert text == f"slowdown vs DRAM-only at 1:1:\n{table}\n"

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
            assert "machine/tier0/util" in row["metrics"]
            assert "machine/tier1/occupancy" in row["metrics"]
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

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("flag", ["--downsample", "--trace-capacity"])
    def test_ring_flags_below_one_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "gups", "PACT", "--work", "2000000", flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err

    def test_full_ring_reports_what_it_dropped(self, tmp_path, capsys):
        argv = ("trace", "gups", "PACT", "--ratio", "1:2", "--work", "2000000")
        code, full = run_cli(*argv)
        assert code == 0
        windows = full.splitlines()
        target = tmp_path / "tail.jsonl"
        code, text = run_cli(*argv, "--trace-capacity", "3", "-o", str(target))
        assert code == 0
        # The ring keeps the run's last three windows, row for row.
        assert target.read_text().splitlines() == windows[-3:]
        assert "wrote 3 windows" in text
        assert (
            f"dropped the oldest {len(windows) - 3} windows: the ring holds 3 "
            "(raise --trace-capacity)" in text
        )
        # With the JSONL on stdout, the note goes to stderr.
        code, text = run_cli(*argv, "--trace-capacity", "3")
        assert code == 0
        assert text.splitlines() == windows[-3:]
        assert "--trace-capacity" in capsys.readouterr().err

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
