#!/usr/bin/env python
"""Trace replay: freeze a workload into a trace file and re-evaluate it.

Usage::

    python examples/trace_replay.py

Records the 24-window Redis/YCSB-C stream into an ``.npt`` trace file,
then replays the *identical* access stream under three policies with
multi-seed confidence intervals.  Use the same flow to evaluate tiering
policies on traces captured from real systems (PEBS dumps, DAMON
records) written in the same layout -- see ``repro.workloads.tracestore``
for the format; ``ReplayWorkload.from_file`` validates a file before it
runs.
"""

import tempfile
from pathlib import Path

from repro.analysis import repeat_runs, significantly_better
from repro.workloads import RedisYcsbC
from repro.workloads.tracestore import ReplayWorkload, record_to_file


def main() -> None:
    source = RedisYcsbC(total_misses=6_000_000)
    path = Path(tempfile.gettempdir()) / "redis_ycsbc.npt"
    data = record_to_file(source, path)
    print(f"recorded {data.num_windows} windows -> {path}")

    def factory():
        return ReplayWorkload.from_file(path)

    results = {}
    for policy in ("PACT", "Colloid", "NoTier"):
        results[policy] = repeat_runs(factory, policy, ratio="1:2", seeds=(0, 1, 2))
        print(" ", results[policy].summary())

    verdict = significantly_better(results["PACT"], results["Colloid"])
    print(f"\nPACT significantly better than Colloid on this trace: {verdict}")
    print(
        "Replaying a fixed trace removes workload-generation noise, so the"
        "\nremaining spread comes purely from sampling/counter stochasticity."
    )


if __name__ == "__main__":
    main()
