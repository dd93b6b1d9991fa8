"""PACT: A Criticality-First Design for Tiered Memory (ASPLOS '26).

A simulation-grounded reproduction of PACT: an online, page-granular
tiered-memory design that places pages by *performance criticality*
(each page's contribution to CPU stalls) rather than access frequency.

Quick start::

    from repro import PactPolicy, run_policy, ideal_baseline
    from repro.workloads import make_workload

    workload = make_workload("bc-kron")
    baseline = ideal_baseline(workload)
    result = run_policy(workload, PactPolicy(), ratio="1:2")
    print(f"slowdown vs DRAM-only: {result.slowdown(baseline):.1%}")

``ideal_baseline`` is one request through :mod:`repro.exp`'s campaign
driver, cached and replayed like any experiment run; ``run_policy`` is
a plain live run.

Package layout:

* :mod:`repro.common`   -- units, RNG, statistics, reservoir, binning rules
* :mod:`repro.mem`      -- pages, tiers, placement, LRU/activity state
* :mod:`repro.hw`       -- simulated hardware: stalls, CHA/TOR, PEBS, perf
* :mod:`repro.sim`      -- machine, runner, migration engine, metrics
* :mod:`repro.workloads`-- the paper's evaluation workloads and corpora
* :mod:`repro.core`     -- PACT itself: PAC model, sampling, binning, policy
* :mod:`repro.baselines`-- TPP, NBT, Colloid, Alto, Memtis, Nomad, Soar
* :mod:`repro.exp`      -- experiment grids, result cache, campaign driver
* :mod:`repro.analysis` -- model fits, improvement CDFs, multi-seed statistics
"""

from repro.baselines import ALL_POLICIES, make_policy
from repro.core import (
    CoolingConfig,
    FrequencyPolicy,
    PacModelCoefficients,
    PacSampler,
    PacTracker,
    PactPolicy,
    calibrate_k,
)
from repro.mem import Tier, TieredMemory
from repro.sim import (
    Machine,
    MachineConfig,
    NoTierPolicy,
    PAPER_RATIOS,
    RunResult,
    SlowOnlyPolicy,
    TieringPolicy,
    ideal_baseline,
    improvement,
    run_policy,
    slow_only_run,
)
from repro.workloads import ALL_WORKLOADS, EVAL_WORKLOADS, make_workload

__version__ = "1.0.0"

__all__ = [
    "ALL_POLICIES",
    "ALL_WORKLOADS",
    "CoolingConfig",
    "EVAL_WORKLOADS",
    "FrequencyPolicy",
    "Machine",
    "MachineConfig",
    "NoTierPolicy",
    "PAPER_RATIOS",
    "PacModelCoefficients",
    "PacSampler",
    "PacTracker",
    "PactPolicy",
    "RunResult",
    "SlowOnlyPolicy",
    "Tier",
    "TieredMemory",
    "TieringPolicy",
    "calibrate_k",
    "ideal_baseline",
    "improvement",
    "make_policy",
    "make_workload",
    "run_policy",
    "slow_only_run",
    "__version__",
]
