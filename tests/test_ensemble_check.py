"""The seed-ensemble comparator (``benchmarks/ensemble_check.py``) on
synthetic campaign stores: a shifted cell is flagged, identical and
same-law cells are not, and a store that mixes settings or parameter
sets is refused."""

from __future__ import annotations

import importlib.util
import json
import sqlite3
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "ensemble_check.py"


@pytest.fixture(scope="module")
def ensemble():
    spec = importlib.util.spec_from_file_location("ensemble_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


CELLS = [("gups", "PACT"), ("gups", "Memtis"), ("silo", "PACT"), ("silo", "NoTier")]


def write_store(directory, seeds, slowdown_of, promoted_of, config=None, extra=()):
    """A ``results`` table shaped like a campaign store: one ideal run per
    (workload, seed) and one policy run per (cell, seed) at 1:4, all under
    one machine ``config``.  ``extra`` appends raw (fingerprint, result)
    rows."""
    directory.mkdir()
    con = sqlite3.connect(str(directory / "results.sqlite"))
    con.execute(
        "CREATE TABLE results (key TEXT PRIMARY KEY, version INTEGER NOT NULL, "
        "fingerprint TEXT, result TEXT NOT NULL)"
    )
    setting = {"version": 3, "config": config or {"pebs_rate": 400},
               "contender": None, "max_windows": 200000, "trace": False}
    rows = []
    for workload in sorted({w for w, _ in CELLS}):
        for seed in seeds:
            fp = {"kind": "ideal", "workload": {"name": workload}, "policy": None,
                  "ratio": None, "seed": seed, **setting}
            rows.append((fp, {"runtime_cycles": 1e8, "promoted": 0}))
    for workload, policy in CELLS:
        for seed in seeds:
            fp = {"kind": "policy", "workload": {"name": workload},
                  "policy": {"name": policy, "kwargs": {}}, "ratio": "1:4",
                  "seed": seed, **setting}
            runtime = 1e8 * (1.0 + slowdown_of(workload, policy, seed))
            rows.append((fp, {"runtime_cycles": runtime,
                              "promoted": promoted_of(workload, policy, seed)}))
    rows += list(extra)
    con.executemany(
        "INSERT INTO results VALUES (?, 3, ?, ?)",
        [(str(i), json.dumps(fp), json.dumps(res)) for i, (fp, res) in enumerate(rows)],
    )
    con.commit()
    con.close()
    return str(directory)


def noisy(seed_base, shift_cell=None, shift=0.0):
    def slowdown(workload, policy, seed):
        rng = np.random.default_rng((seed_base, seed, len(workload), len(policy)))
        base = 0.3 + 0.01 * rng.standard_normal()
        return base + (shift if (workload, policy) == shift_cell else 0.0)

    def promoted(workload, policy, seed):
        rng = np.random.default_rng((seed_base, seed, len(policy), 7))
        return int(rng.integers(900, 1100))

    return slowdown, promoted


def test_identical_stores_pass(ensemble, tmp_path):
    a = write_store(tmp_path / "a", range(16), *noisy(1))
    b = write_store(tmp_path / "b", range(16), *noisy(1))
    verdicts = ensemble.compare(ensemble.load_store(a).cells, ensemble.load_store(b).cells)
    assert len(verdicts) == len(CELLS)
    assert not any(v.flagged for v in verdicts)
    assert all(v.effect == 0.0 for v in verdicts)
    assert ensemble.main([a, b]) == 0


def test_same_law_on_disjoint_seeds_passes(ensemble, tmp_path):
    a = write_store(tmp_path / "a", range(16), *noisy(1))
    b = write_store(tmp_path / "b", range(16, 32), *noisy(2))
    verdicts = ensemble.compare(ensemble.load_store(a).cells, ensemble.load_store(b).cells)
    assert not any(v.flagged for v in verdicts)


def test_shifted_cell_is_flagged(ensemble, tmp_path, capsys):
    a = write_store(tmp_path / "a", range(16), *noisy(1))
    b = write_store(
        tmp_path / "b", range(16), *noisy(2, shift_cell=("silo", "PACT"), shift=0.03)
    )
    verdicts = ensemble.compare(ensemble.load_store(a).cells, ensemble.load_store(b).cells)
    flagged = [v.cell for v in verdicts if v.flagged]
    assert flagged == [("silo", "PACT", "1:4")]
    shifted = next(v for v in verdicts if v.cell == ("silo", "PACT", "1:4"))
    assert shifted.effect > 2.0
    assert ensemble.main([a, b]) == 1
    assert "FLAG" in capsys.readouterr().out


def test_slowdown_is_against_the_same_stores_ideal(ensemble, tmp_path):
    a = write_store(tmp_path / "a", range(4), lambda w, p, s: 0.25, lambda w, p, s: 0)
    cells = ensemble.load_store(a).cells
    assert cells[("gups", "PACT", "1:4")].slowdown == {s: pytest.approx(0.25) for s in range(4)}


def test_store_mixing_two_configs_is_refused(ensemble, tmp_path, capsys):
    # A second grid at another PEBS rate in the same store: its runs of
    # every (cell, seed) would overwrite or mix with the first grid's.
    slowdown, promoted = noisy(1)
    fp = {"kind": "policy", "workload": {"name": "gups"},
          "policy": {"name": "PACT", "kwargs": {}}, "ratio": "1:4", "seed": 0,
          "version": 3, "config": {"pebs_rate": 440}, "contender": None,
          "max_windows": 200000, "trace": False}
    mixed = write_store(tmp_path / "mixed", range(16), slowdown, promoted,
                        extra=[(fp, {"runtime_cycles": 2e8, "promoted": 5})])
    clean = write_store(tmp_path / "clean", range(16), slowdown, promoted)
    with pytest.raises(ensemble.StoreError, match="config.pebs_rate: 400 -> 440"):
        ensemble.load_store(mixed)
    assert ensemble.main([clean, mixed]) == 2
    assert "mixes settings" in capsys.readouterr().out


def test_two_parameter_sets_of_one_cell_are_refused(ensemble, tmp_path):
    # Plain and latency-weighted PACT share a name, not a parameter set.
    fp = {"kind": "policy", "workload": {"name": "gups"},
          "policy": {"name": "PACT", "kwargs": {"latency_weighted": True}},
          "ratio": "1:4", "seed": 0, "version": 3, "config": {"pebs_rate": 400},
          "contender": None, "max_windows": 200000, "trace": False}
    store = write_store(tmp_path / "a", range(4), *noisy(1),
                        extra=[(fp, {"runtime_cycles": 2e8, "promoted": 5})])
    with pytest.raises(ensemble.StoreError, match="gups/PACT/1:4"):
        ensemble.load_store(store)


def test_setting_differences_are_reported(ensemble, tmp_path, capsys):
    a = write_store(tmp_path / "a", range(16), *noisy(1))
    b = write_store(tmp_path / "b", range(16), *noisy(1), config={"pebs_rate": 440})
    assert ensemble.store_differences(ensemble.load_store(a), ensemble.load_store(b)) == [
        "config.pebs_rate: 400 -> 440"
    ]
    assert ensemble.main([a, b]) == 0
    assert "config.pebs_rate: 400 -> 440" in capsys.readouterr().out


def test_holm_adjustment(ensemble):
    adjusted = ensemble.holm([0.01, 0.04, 0.03, 0.5])
    assert adjusted == pytest.approx([0.04, 0.09, 0.09, 0.5])
