"""Shared infrastructure for the paper-reproduction benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
(§5) and prints the corresponding rows/series.  Output also lands in
``benchmarks/out/<bench>.txt`` so results survive quiet pytest runs.

Benches declare their grids through :mod:`repro.exp`, which runs them
through the campaign driver; results are content-addressed and
persisted in ``benchmarks/.cache/results.sqlite`` so running any two
figure benches back-to-back (even in separate processes) reuses every
shared ideal/slow-only baseline -- and a ``repro campaign`` or
``repro bench`` over the same cache directory shares them too.  Knobs:

* ``REPRO_BENCH_WORK`` -- misses per run (fidelity vs. runtime),
* ``REPRO_JOBS`` -- worker processes for cache misses (default serial),
* ``REPRO_NO_CACHE=1`` -- disable the disk cache,
* ``REPRO_CACHE_DIR`` -- cache somewhere other than benchmarks/.cache.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.exp.cache import ResultStore, reset_default_store, set_default_store
from repro.exp.spec import WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.sim.config import MachineConfig, PAPER_RATIOS
from repro.workloads import make_workload

#: Misses per run; ~250k per window -> ~48 windows at the default.
BENCH_WORK = int(os.environ.get("REPRO_BENCH_WORK", 12_000_000))

#: Reduced work for the widest sweeps (12-workload grids).
BENCH_WORK_WIDE = int(os.environ.get("REPRO_BENCH_WORK_WIDE", 8_000_000))

OUT_DIR = Path(__file__).parent / "out"

#: Persistent result cache shared by every bench process.
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or str(Path(__file__).parent / ".cache")

#: Worker processes for cache-miss execution (0 = all cores).
BENCH_JOBS = int(os.environ.get("REPRO_JOBS", "1") or "1")

#: The comparison set used by the main figures.
MAIN_POLICIES = ("PACT", "Colloid", "Alto", "NBT", "TPP", "Memtis", "Nomad", "Soar", "NoTier")


def bench_workload(name: str, wide: bool = False, **kwargs):
    """An evaluation workload instance scaled to the bench budget."""
    kwargs.setdefault("total_misses", BENCH_WORK_WIDE if wide else BENCH_WORK)
    return make_workload(name, **kwargs)


def bench_spec(name: str, wide: bool = False, **kwargs) -> WorkloadSpec:
    """A declarative workload spec scaled to the bench budget."""
    kwargs.setdefault("total_misses", BENCH_WORK_WIDE if wide else BENCH_WORK)
    return WorkloadSpec.registry(name, **kwargs)


def emit(bench_name: str, text: str) -> None:
    """Print a bench's report and persist it under benchmarks/out/."""
    banner = f"\n===== {bench_name} =====\n"
    print(banner + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{bench_name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def config():
    return MachineConfig()


@pytest.fixture(scope="session", autouse=True)
def bench_store():
    """Install the persistent bench store for the whole session."""
    if os.environ.get("REPRO_NO_CACHE"):
        store = set_default_store(ResultStore())
    else:
        store = set_default_store(SqliteResultStore(CACHE_DIR))
    yield store
    store.close()
    reset_default_store()


@pytest.fixture(scope="session")
def paper_ratios():
    return PAPER_RATIOS
