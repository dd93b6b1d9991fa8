"""The accounting cross-checks and per-window invariants over a small run matrix.

``REPRO_DEBUG_ACCOUNTING=1`` makes every placement change re-derive the
memory's used counts, resident caches and frame sums from scratch, and
bound every tier by its capacity
(:meth:`~repro.mem.tiered.TieredMemory.check_accounting`).  Each run
below goes once with the check off and once with it on: the check must
run, must pass, and must leave the result unchanged -- it only reads.

Every window, whatever its source, is solved by ``StallModel.solve``
(through its one kernel, ``StallModel._fixed_point``) and every
migration is applied by ``MigrationEngine.apply_window``, so those seams
check every window of every placement regime (:class:`WindowAudit`),
the fixed point's residual included.  Each case runs audited twice:
live, and replayed from its recording, which must equal the live run.

Every audited run's per-tier misses sum to its total, and for each
workload and configuration of the matrix the ideal reference run
(every page in tier 0) is faster than the slow-only one (no page in
tier 0); perfbench checks both per run (there, ideal <= slow-only).
"""

import numpy as np
import pytest

from repro.baselines import ALL_POLICIES, make_policy
from repro.exp import runner
from repro.exp.spec import RunRequest, WorkloadSpec
from repro.hw.stall import MAX_UTILISATION, StallModel
from repro.mem.tiered import DEBUG_ACCOUNTING_ENV, TieredMemory
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import result_to_dict
from repro.sim.migration import MigrationEngine
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, TraceStore

import oracles
from conftest import FIXED_POINT_RESIDUAL_BOUND

#: About 16 windows on gups and bc-kron.
TOTAL_MISSES = 4_000_000


def _case(workload, policy, ratio, config, migrates=False, label=""):
    name = f"{workload}-{policy}-{ratio}" + (f"-{label}" if label else "")
    return pytest.param(workload, policy, ratio, config, migrates, id=name)


CASES = (
    [
        _case(workload, policy, "1:4", MachineConfig())
        for workload in ("gups", "bc-kron")
        for policy in ALL_POLICIES
    ]
    # bc-kron at 1:2 is where both THP policies move huge pages.
    + [
        _case("bc-kron", policy, "1:2", MachineConfig(thp=True), migrates=True, label="thp")
        for policy in ("PACT", "Memtis")
    ]
    # A compressed middle tier: fractional frame accounting and cascades.
    + [
        _case(
            "gups",
            "PACT",
            "1:4:16",
            MachineConfig(topology=make_topology("dram-cxlz-nvme", demotion=mode)),
            migrates=True,
            label=f"dram-cxlz-nvme-{mode}",
        )
        for mode in ("through", "direct")
    ]
    # Cascading policies whose "through" runs once pushed a window's
    # promotion candidates down before promoting them.
    + [
        _case(
            workload,
            policy,
            "1:4:16",
            MachineConfig(topology=make_topology("dram-cxlz-nvme")),
            label="dram-cxlz-nvme-through",
        )
        for workload, policies in (
            ("gups", ("Colloid", "Alto", "NBT")),
            ("silo", ("PACT", "Colloid", "Alto", "NBT")),
        )
        for policy in policies
    ]
)


class WindowAudit:
    """Records what a run's windows read and solve, and what it migrates.

    Wraps the workload classes' ``next_window``, ``StallModel.solve``,
    its kernel ``StallModel._fixed_point`` and
    ``MigrationEngine.apply_window``.  :meth:`run` clears the records
    after the machine is built, so a policy's own profiling run (Soar's
    ``placement_plan``) stays out of them.
    """

    def __init__(self, monkeypatch, *workload_classes):
        self.traffic, self.solves, self.moves, self.residuals = [], [], [], []
        solve = StallModel.solve
        fixed_point = StallModel._fixed_point
        apply_window = MigrationEngine.apply_window

        def audited(next_window):
            def audited_next_window(workload):
                traffic = next_window(workload)
                self.traffic.append(traffic)
                return traffic

            return audited_next_window

        def audited_solve(model, shares, compute_cycles, extra_bytes=None, extra_cycles=0.0):
            outcome = solve(model, shares, compute_cycles, extra_bytes, extra_cycles)
            # The machine solves each window right after pulling it.
            self.solves.append((self.traffic[-1], outcome, extra_cycles))
            return outcome

        def audited_fixed_point(model, *windows):
            outcomes, residuals = fixed_point(model, *windows)
            self.residuals.extend(residuals)
            return outcomes, residuals

        def audited_apply_window(engine, decision):
            before = engine.memory.placement.copy()
            outcome = apply_window(engine, decision)
            changed = int(np.count_nonzero(engine.memory.placement != before))
            self.moves.append((engine, outcome, changed))
            return outcome

        for cls in workload_classes:
            monkeypatch.setattr(cls, "next_window", audited(cls.next_window))
        monkeypatch.setattr(StallModel, "solve", audited_solve)
        monkeypatch.setattr(StallModel, "_fixed_point", audited_fixed_point)
        monkeypatch.setattr(MigrationEngine, "apply_window", audited_apply_window)

    def reset(self):
        self.traffic.clear()
        self.solves.clear()
        self.moves.clear()
        self.residuals.clear()

    def run(self, machine):
        self.reset()
        result = machine.run()
        self.check(result)
        self.check_converged()
        return result

    def check_converged(self):
        """Every solved window's fixed point ended within the bound."""
        assert max(self.residuals, default=0.0) < FIXED_POINT_RESIDUAL_BOUND

    def check(self, result):
        assert sum(result.tier_misses.values()) == result.total_misses
        assert len(self.traffic) == result.windows
        assert len(self.solves) == result.windows - result.empty_windows
        assert len(self.residuals) == len(self.solves)
        if result.promoted or result.demoted:
            assert self.moves
        for traffic, outcome, extra_cycles in self.solves:
            loads = outcome.tier_loads
            assert sum(load.misses for load in loads) == traffic.counts.sum()
            assert outcome.duration_cycles >= outcome.compute_cycles + extra_cycles
            for load in loads:
                assert load.stall_cycles >= 0.0
                assert 0.0 <= load.utilisation <= MAX_UTILISATION
        for engine, outcome, changed in self.moves:
            promoted, demoted = outcome.promoted_pages, outcome.demoted_pages
            assert sum(outcome.link_bytes.values()) == outcome.bytes_moved
            assert outcome.promoted == promoted.size
            assert outcome.demoted == demoted.size
            # No page is both promoted and demoted in one window, in
            # any demotion mode: each moved page changed tier once.
            assert np.intersect1d(promoted, demoted).size == 0
            assert changed == outcome.promoted + outcome.demoted


def _workload(name):
    return make_workload(name, total_misses=TOTAL_MISSES, seed=0)


def _run(workload, policy, ratio, config, audit=None):
    machine = Machine(
        workload=workload,
        policy=make_policy(policy),
        config=config,
        ratio=ratio,
        seed=0,
    )
    return (audit.run(machine) if audit else machine.run()), machine


@pytest.mark.parametrize("workload, policy, ratio, config, migrates", CASES)
def test_checked_run_passes_and_equals_unchecked(
    monkeypatch, workload, policy, ratio, config, migrates
):
    checks = []
    check = TieredMemory.check_accounting

    def counted(memory):
        checks.append(1)
        check(memory)

    monkeypatch.setattr(TieredMemory, "check_accounting", counted)
    monkeypatch.delenv(DEBUG_ACCOUNTING_ENV, raising=False)
    live = _workload(workload)
    audit = WindowAudit(monkeypatch, type(live), ReplayWorkload)
    unchecked, machine = _run(live, policy, ratio, config, audit)
    assert not machine.memory.debug_accounting and not checks

    monkeypatch.setenv(DEBUG_ACCOUNTING_ENV, "1")
    checked, machine = _run(_workload(workload), policy, ratio, config)
    assert machine.memory.debug_accounting and checks
    assert result_to_dict(checked) == result_to_dict(unchecked)
    assert checked.windows >= 16
    if migrates:
        assert checked.promoted and checked.demoted
    if checked.promoted or checked.demoted:
        assert len(checks) > 1  # the moves were checked, not only allocation

    # The same run from its recording, audited (and accounting-checked)
    # window by window on the replayed sources.
    replay = oracles.replay(TraceStore(), _workload(workload))
    replayed, _ = _run(replay, policy, ratio, config, audit)
    assert result_to_dict(replayed) == result_to_dict(unchecked)


#: The matrix's machine configurations, for the reference runs (which
#: migrate nothing, so the N-tier demotion mode does not matter).
REFERENCE_CONFIGS = [
    pytest.param(MachineConfig(), id="default"),
    pytest.param(MachineConfig(thp=True), id="thp"),
    pytest.param(
        MachineConfig(topology=make_topology("dram-cxlz-nvme")), id="dram-cxlz-nvme"
    ),
]


@pytest.mark.parametrize("config", REFERENCE_CONFIGS)
@pytest.mark.parametrize("workload", ["gups", "bc-kron"])
def test_ideal_run_is_faster_than_slow_only(monkeypatch, isolated_stores, workload, config):
    # ``execute_request`` maps each reference kind to its policy and
    # fast-tier capacity, exactly as every experiment's references run.
    spec = WorkloadSpec.registry(workload, total_misses=TOTAL_MISSES, seed=0)
    audit = WindowAudit(monkeypatch, ReplayWorkload)
    runtimes = {}
    for request in (
        RunRequest.ideal(spec, config=config),
        RunRequest.slow_only(spec, config=config),
    ):
        audit.reset()
        result = runner.execute_request(request)
        audit.check(result)
        assert result.windows >= 16
        runtimes[request.kind] = result.runtime_cycles
    # Strictly: in every configuration tier 0 is the fastest tier.
    assert runtimes["ideal"] < runtimes["slow_only"]


#: Four damped iterations from ``duration = compute`` stop short of the
#: fixed point when the stalls outweigh compute a hundredfold: the
#: windows whose misses all reach the NVMe tier end with residuals of
#: ~0.83.  Converging them moves N-tier slow-only results.
UNCONVERGED = pytest.mark.xfail(
    strict=True, reason="bc-kron slow-only on dram-cxlz-nvme: residual ~0.83"
)

REFERENCE_RUNS = [
    pytest.param(
        workload, config.values[0], kind,
        id=f"{workload}-{config.id}-{kind}",
        marks=[UNCONVERGED]
        if (workload, config.id, kind) == ("bc-kron", "dram-cxlz-nvme", "slow_only")
        else [],
    )
    for workload in ("gups", "bc-kron")
    for config in REFERENCE_CONFIGS
    for kind in ("ideal", "slow_only")
]


@pytest.mark.parametrize("workload, config, kind", REFERENCE_RUNS)
def test_reference_run_fixed_point_converges(
    monkeypatch, isolated_stores, workload, config, kind
):
    spec = WorkloadSpec.registry(workload, total_misses=TOTAL_MISSES, seed=0)
    make_request = RunRequest.ideal if kind == "ideal" else RunRequest.slow_only
    audit = WindowAudit(monkeypatch, ReplayWorkload)
    audit.check(runner.execute_request(make_request(spec, config=config)))
    audit.check_converged()
