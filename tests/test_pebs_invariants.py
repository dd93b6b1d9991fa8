"""Per-window PEBS invariants over real runs, live and replayed.

A wrapper around :meth:`PebsSampler.draw` remembers each window's entry
counts and load fractions; one around :meth:`PebsSampler.merge` then
checks, in every window of a run of each PEBS-sampling policy in
``ALL_POLICIES`` (Memtis samples both tiers) and of PACT's
latency-weighted variant (TPEBS latency reporting):

* a page's records never exceed its misses in the sampled tiers;
* every record's page is resident in a sampled tier;
* ``overhead_cycles == sum(records) * cycles_per_record``;
* a reported latency is a record-weighted mean of the window's solved
  unit stall costs, so it lies within their range.

Over a whole run the records are also unbiased: their total is within
a few standard deviations of the Binomial(count, lf/rate) mean summed
over every entry resident in a sampled tier.  A merge that dropped or
double-counted valid records would pass the per-window bounds but not
this.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.hw.pebs import PebsSampler
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.workloads import make_workload
from repro.workloads.tracestore import TraceStore

import oracles

#: Test id -> (policy, policy kwargs): every policy in ``ALL_POLICIES``
#: that consumes PEBS records, and PACT with TPEBS latencies.
PEBS_POLICIES = {
    "PACT": ("PACT", {}),
    "Memtis": ("Memtis", {}),
    "Colloid": ("Colloid", {}),
    "Alto": ("Alto", {}),
    "Soar": ("Soar", {}),
    "PACT-latency": ("PACT", {"latency_weighted": True}),
}


class RunTally:
    """What the checking wrappers saw over one run."""

    def __init__(self):
        self.windows = []
        self.latency_windows = 0
        self.mean = 0.0
        self.var = 0.0


@pytest.fixture
def checked_windows(monkeypatch):
    """Install the checking wrappers; yields the run's :class:`RunTally`."""
    draw, merge = PebsSampler.draw, PebsSampler.merge
    inputs_of = {}
    tally = RunTally()

    def checked_draw(self, window, counts, group_ptr=None, group_lf=None):
        entry_lf = np.ones(len(counts))
        if self.loads_only and group_lf is not None:
            entry_lf = np.repeat(group_lf, np.diff(group_ptr))
        inputs_of[id(self)] = (np.array(counts), entry_lf)
        return draw(self, window, counts, group_ptr, group_lf)

    def checked_merge(self, drawn, pages, placement, shares=None):
        tiers = placement[pages].copy()
        batch = merge(self, drawn, pages, placement, shares=shares)
        counts, entry_lf = inputs_of[id(self)]
        sampled = np.flatnonzero(self._code_mask)
        resident = np.isin(tiers, sampled)
        misses = np.zeros(placement.size, dtype=np.int64)
        np.add.at(misses, pages[resident], counts[resident])
        assert (batch.counts <= misses[batch.pages]).all()
        assert np.isin(placement[batch.pages], sampled).all()
        assert (batch.counts > 0).all()
        assert batch.overhead_cycles == batch.total_records * self.cycles_per_record
        if self.report_latency and batch.pages.size:
            unit = shares.unit_stall_cycles[: shares.n]
            lo, hi = unit.min(), unit.max()
            assert batch.latencies is not None
            assert (batch.latencies >= lo * (1 - 1e-12)).all()
            assert (batch.latencies <= hi * (1 + 1e-12)).all()
            tally.latency_windows += 1
        else:
            assert batch.latencies is None
        q = entry_lf[resident] / self.rate
        tally.mean += float((counts[resident] * q).sum())
        tally.var += float((counts[resident] * q * (1.0 - q)).sum())
        tally.windows.append(batch.total_records)
        return batch

    monkeypatch.setattr(PebsSampler, "draw", checked_draw)
    monkeypatch.setattr(PebsSampler, "merge", checked_merge)
    return tally


def checked_run(case, workload, replay=False):
    name, kwargs = PEBS_POLICIES[case]
    instance = make_workload(workload, total_misses=2_000_000)
    if replay:
        instance = oracles.replay(TraceStore(), instance)
    return run_policy(
        instance, make_policy(name, **kwargs), ratio="1:4", config=MachineConfig(), seed=0
    )


@pytest.mark.parametrize("replay", [False, True], ids=["live", "replayed"])
@pytest.mark.parametrize("workload", ["gups", "bc-kron"])
@pytest.mark.parametrize("policy", list(PEBS_POLICIES))
def test_every_window_holds(policy, workload, replay, checked_windows):
    result = checked_run(policy, workload, replay)
    assert len(checked_windows.windows) == result.windows - result.empty_windows
    assert sum(checked_windows.windows) > 0
    if PEBS_POLICIES[policy][1].get("latency_weighted"):
        assert checked_windows.latency_windows > 0


@pytest.mark.parametrize("workload", ["gups", "bc-kron"])
@pytest.mark.parametrize("policy", [p for p in PEBS_POLICIES if p != "PACT-latency"])
def test_records_unbiased_for_sampled_loads(policy, workload, checked_windows):
    checked_run(policy, workload)
    records = sum(checked_windows.windows)
    assert checked_windows.var > 0.0
    z = (records - checked_windows.mean) / math.sqrt(checked_windows.var)
    assert abs(z) < 5.0, (records, checked_windows.mean, z)
