"""Command-line interface: run tiering experiments without writing code.

Examples::

    python -m repro run --workload bc-kron --policy PACT --ratio 1:2
    python -m repro sweep --workload gpt-2 --policies PACT Colloid NoTier
    python -m repro compare --ratio 1:1 --workloads bc-kron gups silo
    python -m repro bench --workloads bc-kron gups --ratios 1:1 1:2 --jobs 4
    python -m repro trace gups PACT --ratio 1:2 --timings -o trace.jsonl
    python -m repro calibrate
    python -m repro list

All subcommands print plain-text tables; ``--work`` scales the per-run
miss budget (larger = higher fidelity, slower).  Experiment subcommands
run their grids through the campaign driver and take ``--jobs N`` (fan
cache misses out over N worker processes), ``--cache-dir PATH``
(persist results in ``PATH/results.sqlite``; ``bench`` and
``campaign`` default to ``benchmarks/.cache``), and ``--no-cache``.

Every experiment run replays its workload's traffic: each access
stream is recorded once and replayed (bit-identically) for every
policy, ratio, and contender that shares it.  ``--trace-dir PATH``
persists recorded ``.npt`` streams on disk (default:
``<cache-dir>/traces`` when a result cache is configured).  ``repro
trace record WORKLOAD -o FILE.npt`` records a stream explicitly, for
trace-driven evaluation (``ReplayWorkload.from_file`` loads it).

Simulator throughput has no subcommand: perfbench (``perfbench/run.py``)
times whole sweeps end to end and ``benchmarks/perfbench_gate.py``
gates on it.  ``repro trace ... --timings`` prints one run's host-time
span totals.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from repro.baselines import ALL_POLICIES, make_policy
from repro.common.tables import format_count, format_table
from repro.core.calibration import calibrate_k
from repro.exp import report as exp_report
from repro.exp import service
from repro.exp.cache import ResultStore, reset_default_store, set_default_store
from repro.exp.runner import run_experiment
from repro.exp.spec import ExperimentSpec, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.mem.page import Tier, tier_label
from repro.mem.topology import DEMOTION_MODES, TOPOLOGY_NAMES, make_topology
from repro.obs import DEFAULT_TRACE_CAPACITY, Observability
from repro.sim import traceio
from repro.sim.config import MachineConfig, PAPER_RATIOS, parse_ratio_parts
from repro.sim.engine import run_policy
from repro.workloads import ALL_WORKLOADS, generate_corpus, make_workload
from repro.workloads import tracestore

DEFAULT_WORK = 12_000_000

#: Where ``bench`` persists results unless told otherwise.
DEFAULT_BENCH_CACHE = "benchmarks/.cache"

#: Every policy name a command accepts: the evaluated systems, plus the
#: frequency-ranking and CXL-only baselines ``make_policy`` also builds.
POLICY_CHOICES = ALL_POLICIES + ["Frequency", "CXL"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PACT tiered-memory reproduction: run simulated experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one workload under one policy")
    run_p.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    run_p.add_argument("--policy", required=True, choices=POLICY_CHOICES)
    run_p.add_argument("--ratio", type=_ratio, default="1:1", help="fast:slow capacity, e.g. 1:4")
    _common_args(run_p)

    sweep_p = sub.add_parser("sweep", help="one workload across all paper ratios")
    sweep_p.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    _policies_arg(sweep_p, default=("PACT", "Colloid", "Memtis", "NoTier"))
    _common_args(sweep_p)

    cmp_p = sub.add_parser("compare", help="several workloads, all systems, one ratio")
    cmp_p.add_argument("--workloads", nargs="+", default=["bc-kron"], choices=ALL_WORKLOADS)
    cmp_p.add_argument("--ratio", type=_ratio, default="1:1")
    _policies_arg(cmp_p)
    _common_args(cmp_p)

    bench_p = sub.add_parser(
        "bench",
        help="cached, parallel (workload x policy x ratio x seed) grid",
    )
    _grid_args(bench_p, workload="bc-kron")
    _common_args(bench_p, cache_dir_default=DEFAULT_BENCH_CACHE)

    camp_p = sub.add_parser(
        "campaign",
        help="stream a large grid through the persistent worker-pool service",
    )
    _grid_args(camp_p, workload="gups")
    camp_p.add_argument(
        "--retries", type=int, default=service.DEFAULT_RETRIES,
        help="re-dispatches per failed request before giving up (default: %(default)s)",
    )
    camp_p.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds; a hung worker is killed and respawned",
    )
    camp_p.add_argument(
        "--progress-interval", type=float, default=service.DEFAULT_PROGRESS_INTERVAL,
        help="seconds between live progress lines (default: %(default)s)",
    )
    camp_p.add_argument(
        "--table", action="store_true",
        help="also print the per-ratio slowdown tables (small grids only)",
    )
    _common_args(camp_p, cache_dir_default=DEFAULT_BENCH_CACHE)

    trace_p = sub.add_parser(
        "trace",
        help="one observed run (telemetry export), or 'record' a traffic stream",
    )
    trace_p.add_argument(
        "workload", choices=sorted(ALL_WORKLOADS) + ["record"],
        help="workload to trace, or 'record' to freeze a traffic stream "
        "(repro trace record WORKLOAD -o FILE.npt)",
    )
    trace_p.add_argument(
        "policy", nargs="?", default=None,
        help="policy for the observed run; the workload name in record mode",
    )
    trace_p.add_argument("--ratio", type=_ratio, default="1:1", help="fast:slow capacity, e.g. 1:4")
    trace_p.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", dest="trace_format"
    )
    trace_p.add_argument(
        "--output", "-o", default=None,
        help="trace file path (default: JSONL on stdout; required for csv)",
    )
    trace_p.add_argument(
        "--downsample", type=_positive_int, default=1, help="keep one window in every N"
    )
    trace_p.add_argument(
        "--trace-capacity", type=_positive_int, default=DEFAULT_TRACE_CAPACITY,
        help="ring-buffer bound on retained windows (oldest dropped first)",
    )
    trace_p.add_argument("--max-windows", type=_positive_int, default=200_000)
    trace_p.add_argument(
        "--timings", action="store_true",
        help="also print host wall-clock span totals (not part of the trace)",
    )
    _common_args(trace_p)

    cal_p = sub.add_parser("calibrate", help="fit Equation 1's k on the corpus")
    cal_p.add_argument(
        "--windows", type=_positive_int, default=10, help="windows per corpus point"
    )
    cal_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list available workloads and policies")
    return parser


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1 (else a usage error, exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ratio(text: str) -> str:
    """argparse type: a capacity ratio such as ``1:4`` (else a usage error)."""
    try:
        parse_ratio_parts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _policies_arg(p, default=("PACT", "Colloid", "Memtis", "NBT", "NoTier")) -> None:
    p.add_argument("--policies", nargs="+", default=list(default), choices=POLICY_CHOICES)


def _grid_args(p, workload: str) -> None:
    """``bench``'s and ``campaign``'s (workload x policy x ratio x seed) axes."""
    p.add_argument("--workloads", nargs="+", default=[workload], choices=ALL_WORKLOADS)
    _policies_arg(p)
    p.add_argument("--ratios", nargs="+", type=_ratio, default=list(PAPER_RATIOS))
    p.add_argument("--seeds", nargs="+", type=int, default=[0])


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Usage errors no argument's type can see: ``trace``'s policy (a
    positional that holds a workload in record mode), and a ratio with
    more parts than ``--topology`` has tiers (a shorter one is padded)."""
    if args.command == "trace" and args.workload != "record" and args.policy not in POLICY_CHOICES:
        parser.error(f"argument policy: trace needs one of: {', '.join(POLICY_CHOICES)}")
    flag = "--ratios" if hasattr(args, "ratios") else "--ratio"
    ratios = getattr(args, flag[2:], None)
    if ratios is None:
        return
    tiers = make_topology(args.topology).num_tiers
    for ratio in [ratios] if isinstance(ratios, str) else ratios:
        parts = len(parse_ratio_parts(ratio))
        if parts > tiers:
            parser.error(
                f"argument {flag}: ratio {ratio!r} has {parts} parts, "
                f"but topology {args.topology!r} has {tiers} tiers"
            )


def _common_args(p: argparse.ArgumentParser, cache_dir_default: Optional[str] = None) -> None:
    p.add_argument(
        "--work", type=_positive_int, default=DEFAULT_WORK, help="total misses per run"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thp", action="store_true", help="2MB transparent huge pages")
    p.add_argument(
        "--pebs-rate", type=_positive_int, default=400, help="PEBS 1-in-N sampling rate"
    )
    p.add_argument(
        "--topology", default="dram-cxl", choices=TOPOLOGY_NAMES,
        help="tier hierarchy (default: %(default)s, the paper's testbed); "
        "N-tier ratios take N parts, e.g. --ratio 1:4:16",
    )
    p.add_argument(
        "--demotion", default="through", choices=DEMOTION_MODES,
        help="multi-hop demotion routing: 'through' cascades one tier "
        "down per hop, 'direct' sends victims straight to the bottom tier",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for cache misses (default: REPRO_JOBS or 1; 0 = all cores)",
    )
    p.add_argument(
        "--cache-dir", default=cache_dir_default,
        help="directory for the persistent result cache, PATH/results.sqlite "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute every run, and do not read or write cached results",
    )
    p.add_argument(
        "--trace-dir", default=None,
        help="directory for recorded .npt traffic traces "
        "(default: <cache-dir>/traces when a result cache is configured)",
    )


def _config(args) -> MachineConfig:
    return MachineConfig(
        thp=args.thp,
        pebs_rate=args.pebs_rate,
        topology=make_topology(args.topology, demotion=args.demotion),
    )


@contextlib.contextmanager
def _experiment_store(args):
    """Install the command's result store as the process default.

    Every run the command makes reads and writes that one store; the
    default is reset afterwards so library callers are unaffected.

    The trace store rides along: recorded traffic streams persist next
    to the result cache (``<cache-dir>/traces``) unless ``--trace-dir``
    points elsewhere.
    """
    directory = None
    if not getattr(args, "no_cache", False):
        directory = getattr(args, "cache_dir", None)
    store = SqliteResultStore(directory) if directory is not None else ResultStore()
    set_default_store(store)
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None and directory is not None:
        trace_dir = os.path.join(directory, "traces")
    if trace_dir is None:
        trace_dir = tracestore.default_trace_dir()
    tracestore.set_default_trace_store(tracestore.TraceStore(trace_dir))
    try:
        yield store
    finally:
        store.close()  # commit the last batch
        reset_default_store()
        tracestore.reset_default_trace_store()


def _grid(args, workloads, policies, ratios, seeds=None, **options) -> ExperimentSpec:
    """The command's (workload x policy x ratio x seed) grid at ``--work``."""
    return ExperimentSpec(
        workloads={
            name: WorkloadSpec.registry(name, total_misses=args.work) for name in workloads
        },
        policies=list(policies),
        ratios=list(ratios),
        seeds=tuple(seeds if seeds is not None else [args.seed]),
        config=_config(args),
        **options,
    )


def _run_grid(args, spec: ExperimentSpec):
    """Run ``spec`` through the driver into the command's result store."""
    with _experiment_store(args):
        return run_experiment(spec, jobs=args.jobs, use_cache=not args.no_cache)


def cmd_run(args, out) -> int:
    # The ideal baseline and the policy run replay one recorded stream.
    exp = _run_grid(
        args, _grid(args, [args.workload], [args.policy], [args.ratio], include_slow_only=False)
    )
    baseline = exp.baseline(args.workload, seed=args.seed)
    result = exp.find(workload=args.workload, policy=args.policy, seed=args.seed)
    rows = [
        ["slowdown vs DRAM-only", f"{result.slowdown(baseline):.1%}"],
        ["runtime", f"{result.runtime_ms:.0f} ms"],
        ["windows", result.windows],
        ["pages promoted", format_count(result.promoted)],
        ["pages demoted", format_count(result.demoted)],
    ]
    if len(result.tier_misses) == 2:
        rows.append(["slow-tier LLC misses", format_count(result.tier_misses[Tier.SLOW])])
        rows.append(["fast-tier LLC misses", format_count(result.tier_misses[Tier.FAST])])
    else:
        for tier, misses in sorted(result.tier_misses.items()):
            rows.append([f"{tier_label(tier).lower()} LLC misses", format_count(misses)])
    print(f"{args.workload} under {args.policy} at {args.ratio}:", file=out)
    print(format_table(["metric", "value"], rows), file=out)
    return 0


def cmd_sweep(args, out) -> int:
    exp = _run_grid(args, _grid(args, [args.workload], args.policies, PAPER_RATIOS))
    print(f"slowdown vs DRAM-only, workload {args.workload}:", file=out)
    print(
        exp_report.ratio_table(exp, args.workload, args.policies, PAPER_RATIOS, seed=args.seed),
        file=out,
    )
    return 0


def cmd_compare(args, out) -> int:
    exp = _run_grid(
        args, _grid(args, args.workloads, args.policies, [args.ratio], include_slow_only=False)
    )
    print(f"slowdown vs DRAM-only at {args.ratio}:", file=out)
    print(
        exp_report.workload_table(
            exp, args.workloads, args.policies, args.ratio, seed=args.seed,
            slow_only_col=False,
        ),
        file=out,
    )
    return 0


def cmd_bench(args, out) -> int:
    """Declared grid through the experiment layer: cached + parallel."""
    spec = _grid(args, args.workloads, args.policies, args.ratios, args.seeds)
    with _experiment_store(args) as store:
        exp = run_experiment(spec, jobs=args.jobs, use_cache=not args.no_cache)
        for seed in args.seeds:
            for ratio in args.ratios:
                print(f"slowdown vs DRAM-only at {ratio} (seed {seed}):", file=out)
                print(
                    exp_report.workload_table(
                        exp, args.workloads, args.policies, ratio, seed=seed
                    ),
                    file=out,
                )
                print("", file=out)
        print(store.summary(), file=out)
    return 0


def cmd_campaign(args, out) -> int:
    """Stream a (workload x policy x ratio x seed) grid through the
    campaign driver with live progress and a failure ledger.  Unlike
    ``bench`` it defaults to every core, retries failed requests, can
    kill hung workers (``--timeout``), and reports failures instead of
    raising: a crashed/hung worker costs one request, not the campaign.
    """
    spec = _grid(args, args.workloads, args.policies, args.ratios, args.seeds)
    requests = spec.expand()
    n_unique = len({r.key for r in requests})
    jobs = args.jobs if args.jobs is not None else 0  # campaign default: all cores

    def progress(gauges):
        utils = [v for k, v in gauges.items() if k.endswith("/utilisation")]
        util = sum(utils) / len(utils) if utils else 0.0
        print(
            f"[campaign] {int(gauges.get('campaign/completed', 0))}/{n_unique} done, "
            f"queue {int(gauges.get('campaign/queue_depth', 0))}, "
            f"in-flight {int(gauges.get('campaign/in_flight', 0))}, "
            f"hit-rate {gauges.get('campaign/cache_hit_rate', 0.0):.0%}, "
            f"util {util:.0%}, "
            f"re-records {int(gauges.get('campaign/re_records', 0))}",
            file=out,
        )

    with _experiment_store(args) as store:
        with service.CampaignDriver(
            jobs=jobs,
            store=store,
            use_cache=not args.no_cache,
            retries=args.retries,
            timeout=args.timeout,
            progress=progress,
            progress_interval=args.progress_interval,
        ) as driver:
            result = driver.run(requests)
        stats = result.stats
        if args.table and result.ok:
            for seed in args.seeds:
                for ratio in args.ratios:
                    print(f"slowdown vs DRAM-only at {ratio} (seed {seed}):", file=out)
                    print(
                        exp_report.workload_table(
                            result, args.workloads, args.policies, ratio, seed=seed
                        ),
                        file=out,
                    )
                    print("", file=out)
        rate = stats.executed / stats.elapsed_seconds if stats.elapsed_seconds else 0.0
        print(
            f"campaign: {stats.total_requests} requests ({stats.unique_requests} unique), "
            f"{stats.cache_hits} cache hits, {stats.executed} executed, "
            f"{stats.retries} retried, failures: {stats.failed_requests}",
            file=out,
        )
        print(
            f"traces recorded (warm-up): {stats.warmup_records}, "
            f"trace re-records: {stats.re_records}",
            file=out,
        )
        print(
            f"elapsed {stats.elapsed_seconds:.1f}s, {rate:.2f} runs/s, "
            f"workers {driver.jobs}, respawns {stats.respawns}",
            file=out,
        )
        for rec in result.ledger:
            print(f"  {rec.describe()}", file=out)
        print(store.summary(), file=out)
    return 0 if result.ok else 1


def cmd_trace(args, out) -> int:
    """Run one workload/policy with observability on and export the trace.

    Always a live run (the cache is bypassed): telemetry is the point,
    and the run itself is seconds-scale.  Results are unaffected by the
    observability layer, so traced numbers match cached bench numbers.

    ``repro trace record WORKLOAD -o FILE.npt`` instead freezes the
    workload's traffic stream to disk in the ``.npt`` trace format.
    """
    if args.workload == "record":
        return _cmd_trace_record(args, out)
    if args.trace_format == "csv" and not args.output:
        print("--format csv requires --output PATH", file=out)
        return 2
    config = _config(args)
    workload = make_workload(args.workload, total_misses=args.work)
    obs = Observability(
        trace_capacity=args.trace_capacity, downsample=args.downsample
    )
    result = run_policy(
        workload,
        make_policy(args.policy),
        ratio=args.ratio,
        config=config,
        seed=args.seed,
        obs=obs,
        max_windows=args.max_windows,
    )
    if args.trace_format == "csv":
        traceio.write_trace_csv(result, args.output)
    else:
        traceio.write_trace_jsonl(result, args.output or out)
    if args.output:
        print(f"{args.workload} under {args.policy} at {args.ratio}:", file=out)
        print(f"wrote {len(result.trace)} windows to {args.output}", file=out)
        summary_rows = [
            [name, f"{value:.6g}"] for name, value in result.metrics_summary.items()
        ]
        print(format_table(["metric", "value"], summary_rows), file=out)
    if obs.recorder.dropped:
        # Truncation is never silent; without -o, stdout carries the JSONL.
        print(
            f"dropped the oldest {obs.recorder.dropped} windows: the ring holds "
            f"{obs.recorder.capacity} (raise --trace-capacity)",
            file=out if args.output else sys.stderr,
        )
    if args.timings:
        timing_rows = [
            [label, f"{t['seconds'] * 1e3:.2f} ms", f"{int(t['calls'])}"]
            for label, t in obs.timings().items()
        ]
        print(format_table(["span", "wall time", "calls"], timing_rows), file=out)
    return 0


def _cmd_trace_record(args, out) -> int:
    """``repro trace record WORKLOAD -o FILE.npt``: freeze a traffic stream."""
    workload_name = args.policy
    if workload_name not in ALL_WORKLOADS:
        print(
            f"trace record needs a workload (one of: {', '.join(ALL_WORKLOADS)})",
            file=out,
        )
        return 2
    if not args.output or not args.output.endswith(".npt"):
        print("trace record requires --output PATH ending in .npt", file=out)
        return 2
    workload = make_workload(workload_name, total_misses=args.work)
    data = tracestore.record_to_file(workload, args.output, max_windows=args.max_windows)
    rows = [
        ["windows", data.num_windows],
        ["access groups", data.num_groups],
        ["page entries", data.num_entries],
        ["footprint pages", workload.footprint_pages],
        ["size", format_count(os.path.getsize(args.output)) + " bytes"],
        ["format", f"npt v{tracestore.TRACE_FORMAT_VERSION}"],
    ]
    print(f"recorded {workload_name} traffic stream to {args.output}:", file=out)
    print(format_table(["metric", "value"], rows), file=out)
    return 0


def cmd_calibrate(args, out) -> int:
    corpus = generate_corpus(total_misses=2_000_000, misses_per_window=200_000)
    coeff = calibrate_k(corpus, max_windows_each=args.windows, seed=args.seed)
    lower = MachineConfig().tier_specs()[1]
    print(
        format_table(
            ["quantity", "value"],
            [
                ["fitted k (cycles)", f"{coeff.k_cycles:.1f}"],
                ["slow-tier idle latency (cycles)", f"{lower.latency_cycles:.1f}"],
                ["calibration workloads", len(corpus)],
            ],
        ),
        file=out,
    )
    return 0


def cmd_list(args, out) -> int:  # noqa: ARG001
    print("workloads: " + ", ".join(ALL_WORKLOADS), file=out)
    print("policies:  " + ", ".join(POLICY_CHOICES), file=out)
    print("ratios:    " + ", ".join(PAPER_RATIOS), file=out)
    print("topologies: " + ", ".join(TOPOLOGY_NAMES), file=out)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "campaign": cmd_campaign,
    "trace": cmd_trace,
    "calibrate": cmd_calibrate,
    "list": cmd_list,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
