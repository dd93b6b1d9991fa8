"""Simulation layer: machine, runner, migration engine, metrics, config."""

from repro.sim.config import MachineConfig, MigrationCost, PAPER_RATIOS, parse_ratio
from repro.sim.engine import (
    clear_baseline_cache,
    ideal_baseline,
    run_policy,
    slow_only_run,
)
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult, WindowRecord, improvement, result_to_dict
from repro.sim.migration import MigrationEngine, MigrationOutcome, MovePlan
from repro.sim.traceio import read_json, write_json, write_trace_csv
from repro.sim.policy_api import (
    Decision,
    NoTierPolicy,
    Observation,
    SlowOnlyPolicy,
    TieringPolicy,
    no_pages,
)

__all__ = [
    "Decision",
    "Machine",
    "MachineConfig",
    "MigrationCost",
    "MigrationEngine",
    "MigrationOutcome",
    "MovePlan",
    "NoTierPolicy",
    "Observation",
    "PAPER_RATIOS",
    "RunResult",
    "SlowOnlyPolicy",
    "TieringPolicy",
    "WindowRecord",
    "clear_baseline_cache",
    "ideal_baseline",
    "improvement",
    "read_json",
    "result_to_dict",
    "no_pages",
    "parse_ratio",
    "run_policy",
    "slow_only_run",
    "write_json",
    "write_trace_csv",
]
