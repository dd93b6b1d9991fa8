"""Policies compared at one seed see common random numbers.

Every hardware draw is keyed by (seed, purpose, window) and reads only
the window's trace entries (:mod:`repro.hw.substream`), so two runs of
one workload at one seed draw the same values whatever their policy:

* the same PEBS draw -- sampled entries and their record counts -- in
  every window, whichever tiers the policy samples;
* the same CHA jitter pair for every (group, tier) cell that both runs
  populate, however differently their placements split the groups;
* the same perf jitter in every window.

A wrapper around ``Machine._draw_hw`` records each window's draws, and
every other policy in ``ALL_POLICIES`` is compared with a PACT run.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import ALL_POLICIES, make_policy
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.sim.machine import Machine
from repro.workloads import make_workload


def recorded_draws(policy, workload):
    """window -> (PEBS draw or None, {(group, tier): CHA pair}, perf jitter)."""
    draws = {}
    original = Machine._draw_hw

    def recording(self, traffic, shares):
        pebs, cha, perf = original(self, traffic, shares)
        cells = {}
        if cha is not None:
            for g, t, pair in zip(shares.group_index, shares.tier_codes, cha):
                cells[int(g), int(t)] = pair.copy()
        drawn = None if pebs is None else (pebs.entries.copy(), pebs.records.copy())
        draws[self._window] = (drawn, cells, None if perf is None else perf.copy())
        return pebs, cha, perf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "_draw_hw", recording)
        run_policy(
            make_workload(workload, total_misses=2_000_000),
            make_policy(policy),
            ratio="1:4",
            config=MachineConfig(),
            seed=0,
        )
    return draws


@functools.lru_cache(maxsize=None)
def pact_draws(workload):
    return recorded_draws("PACT", workload)


@pytest.mark.parametrize("workload", ["gups", "bc-kron"])
@pytest.mark.parametrize("policy", [p for p in ALL_POLICIES if p != "PACT"])
def test_draws_match_pact_at_the_same_seed(policy, workload):
    reference = pact_draws(workload)
    got = recorded_draws(policy, workload)
    assert got.keys() == reference.keys()
    shared_cells = pebs_windows = 0
    for w, (drawn, cells, perf) in got.items():
        ref_drawn, ref_cells, ref_perf = reference[w]
        np.testing.assert_array_equal(perf, ref_perf)
        for cell in cells.keys() & ref_cells.keys():
            np.testing.assert_array_equal(cells[cell], ref_cells[cell])
            shared_cells += 1
        if drawn is not None:
            np.testing.assert_array_equal(drawn[0], ref_drawn[0])
            np.testing.assert_array_equal(drawn[1], ref_drawn[1])
            pebs_windows += 1
    assert shared_cells > 0
    assert (pebs_windows > 0) == make_policy(policy).needs_pebs
