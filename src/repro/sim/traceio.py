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


def _is_recorder(source) -> bool:
    """Duck-typed: TraceRecorder/NullRecorder expose ``keeps_records``."""
    return getattr(source, "keeps_records", None) is not None


def write_trace_csv(source, path: PathLike) -> Path:
    """Write the per-window trace as CSV.

    ``source`` is a traced :class:`RunResult`, or -- the fast path -- a
    :class:`~repro.obs.recorder.TraceRecorder`, whose columns are
    written directly without materialising a record object per row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        if _is_recorder(source):
            cols = source.column_lists()
            for i in range(len(source)):
                writer.writerow([cols[col][i] for col in _TRACE_COLUMNS])
        else:
            if source.trace is None:
                raise ValueError(
                    "run was not traced; construct the Machine with trace=True"
                )
            for rec in source.trace:
                writer.writerow([getattr(rec, col) for col in _TRACE_COLUMNS])
    return path


def trace_rows(source) -> list:
    """JSON-serialisable per-window rows.

    Accepts a traced :class:`RunResult` or a recorder; the recorder path
    builds rows columnar-first (no per-row :class:`WindowRecord`).
    """
    if _is_recorder(source):
        cols = source.column_lists()
        return [
            {
                **{col: cols[col][i] for col in _TRACE_COLUMNS},
                "policy_debug": cols["policy_debug"][i],
                "metrics": cols["metrics"][i],
            }
            for i in range(len(source))
        ]
    if source.trace is None:
        raise ValueError("run was not traced; construct the Machine with trace=True")
    return [
        {
            **{col: getattr(rec, col) for col in _TRACE_COLUMNS},
            "policy_debug": rec.policy_debug,
            "metrics": rec.metrics,
        }
        for rec in source.trace
    ]


def write_trace_jsonl(source, target) -> int:
    """Write the per-window trace as JSONL (one window per line).

    ``target`` may be a path or an open text stream; returns the number
    of rows written.  ``source`` is a traced :class:`RunResult`
    (including ones restored from the experiment cache) or a
    :class:`~repro.obs.recorder.TraceRecorder` for the columnar path.
    """
    rows = trace_rows(source)
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
