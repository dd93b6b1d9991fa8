"""Trace export: persist run results and window traces to JSON/CSV.

Research workflows want raw per-window data for external plotting and
post-hoc analysis; these writers keep the on-disk formats stable and
round-trippable.  The JSON document is the result store's own
(:func:`repro.sim.metrics.result_to_dict`): there is one serialiser.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.sim.metrics import RunResult, result_from_dict, result_to_dict

PathLike = Union[str, Path]

_TRACE_COLUMNS = (
    "window",
    "duration_cycles",
    "stall_cycles",
    "slow_misses",
    "fast_misses",
    "promoted",
    "demoted",
    "mlp_slow",
    "mlp_fast",
    "fast_resident_fraction",
    "phase",
)


def write_json(result: RunResult, path: PathLike) -> Path:
    """Write the run result (with its trace, if traced) as JSON.

    The document is the result store's (:func:`repro.sim.metrics.result_to_dict`),
    so :func:`read_json` restores an equal :class:`RunResult`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2))
    return path


def _traced(result: RunResult):
    if result.trace is None:
        raise ValueError("run was not traced; run it with obs=Observability()")
    return result.trace


def write_trace_csv(result: RunResult, path: PathLike) -> Path:
    """Write a traced run's per-window trace as CSV (scalar columns)."""
    trace = _traced(result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for rec in trace:
            writer.writerow([getattr(rec, col) for col in _TRACE_COLUMNS])
    return path


def trace_rows(result: RunResult) -> list:
    """A traced run's per-window rows, JSON-serialisable."""
    return [
        {
            **{col: getattr(rec, col) for col in _TRACE_COLUMNS},
            "policy_debug": rec.policy_debug,
            "metrics": rec.metrics,
        }
        for rec in _traced(result)
    ]


def write_trace_jsonl(result: RunResult, target) -> int:
    """Write a traced run's per-window trace as JSONL (one window per line).

    ``result`` may come from the machine or the result store; ``target``
    may be a path or an open text stream.  Returns the rows written.
    """
    rows = trace_rows(result)
    if hasattr(target, "write"):
        for row in rows:
            target.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def read_json(path: PathLike) -> RunResult:
    """Load a run result written by :func:`write_json`."""
    return result_from_dict(json.loads(Path(path).read_text()))
