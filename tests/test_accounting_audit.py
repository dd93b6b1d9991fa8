"""The accounting cross-checks over a small run matrix.

``REPRO_DEBUG_ACCOUNTING=1`` makes every placement change re-derive the
memory's used counts, resident caches and frame sums from scratch, and
bound every tier by its capacity
(:meth:`~repro.mem.tiered.TieredMemory.check_accounting`).  Each run
below goes once with the check off and once with it on: the check must
run, must pass, and must leave the result unchanged -- it only reads.
"""

import pytest

from repro.baselines import ALL_POLICIES, make_policy
from repro.mem.tiered import DEBUG_ACCOUNTING_ENV, TieredMemory
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import result_to_dict
from repro.workloads import make_workload

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
)


def _run(workload, policy, ratio, config):
    machine = Machine(
        workload=make_workload(workload, total_misses=TOTAL_MISSES, seed=0),
        policy=make_policy(policy),
        config=config,
        ratio=ratio,
        seed=0,
    )
    return machine.run(), machine


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
    unchecked, machine = _run(workload, policy, ratio, config)
    assert not machine.memory.debug_accounting and not checks

    monkeypatch.setenv(DEBUG_ACCOUNTING_ENV, "1")
    checked, machine = _run(workload, policy, ratio, config)
    assert machine.memory.debug_accounting and checks
    assert result_to_dict(checked) == result_to_dict(unchecked)
    assert checked.windows >= 16
    if migrates:
        assert checked.promoted and checked.demoted
    if checked.promoted or checked.demoted:
        assert len(checks) > 1  # the moves were checked, not only allocation
