"""Static prestage: whole-run batches vs the per-window reference split.

A static-placement run under replay takes every window's
:class:`~repro.hw.stall.ShareBatch` from
:func:`~repro.hw.drawplan.build_static_batches`: one count-weighted
bincount over the whole trace, or for a uniform placement the memoised
per-group miss totals.  Every column a consumer reads must equal the
object-per-share reference split of that window (``oracles.py``), and
the model's conservation laws must hold: a window's row misses sum to
its trace misses, and so do its per-tier totals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import CXL_SPEC, DRAM_SPEC, NUMA_SPEC
from repro.hw.access import AccessGroup
from repro.hw.drawplan import StaticSource, StreamMemo, build_static_batches
from repro.mem.topology import TierDef, TierTopology, make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy, SlowOnlyPolicy
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream

from oracles import assert_same_shares, batch_columns, make_batch, reference_split


def recorded(name="gups", total_misses=500_000, seed=3):
    return record_stream(make_workload(name, total_misses=total_misses, seed=seed), 512)


def machine_for(data, policy, ratio="1:4", config=None, **kwargs):
    return Machine(
        workload=ReplayWorkload(data),
        policy=policy,
        config=config if config is not None else MachineConfig(),
        ratio=ratio,
        seed=0,
        **kwargs,
    )


def window_groups(data, w):
    """Window ``w``'s access groups, rebuilt from the trace columns."""
    c = data.columns
    wgp, gpp = c["window_group_ptr"], c["group_page_ptr"]
    return [
        AccessGroup(
            pages=c["pages"][gpp[g] : gpp[g + 1]],
            counts=c["counts"][gpp[g] : gpp[g + 1]],
            mlp=float(c["group_mlp"][g]),
            load_fraction=float(c["group_load_fraction"][g]),
            label=data.labels[int(c["group_label"][g])],
        )
        for g in range(int(wgp[w]), int(wgp[w + 1]))
    ]


def assert_matches_reference(data, placement, num_tiers):
    """Per window: the static batch == the reference split, and it
    conserves the window's misses."""
    batches = build_static_batches(data, placement, num_tiers)
    assert len(batches) == np.asarray(data.columns["window_group_ptr"]).size - 1
    for w, batch in enumerate(batches):
        groups = window_groups(data, w)
        if not groups:
            assert batch is None
            continue
        want = make_batch(reference_split(groups, placement, num_tiers), num_tiers)
        got = batch_columns(batch)
        assert_same_shares(got, batch_columns(want))
        total = sum(int(g.counts.sum()) for g in groups)
        assert int(got["misses"].sum()) == total == sum(got["tier_misses"])
        assert len(got["tier_misses"]) == num_tiers
    return batches


def assert_machine_batches(machine, batches):
    """The machine's static source holds exactly these batches."""
    assert isinstance(machine._source, StaticSource)
    assert len(machine._source.batches) == len(batches)
    for mine, ref in zip(machine._source.batches, batches):
        if ref is None:
            assert mine is None
        else:
            assert_same_shares(batch_columns(mine), batch_columns(ref))


class TestRecordedTraces:
    @pytest.mark.parametrize("name", ["gups", "silo", "bc-kron"])
    def test_uniform_fast_and_slow_placements(self, name):
        data = recorded(name)
        ideal = machine_for(data, NoTierPolicy(), ratio="1:1",
                            fast_capacity_override=ReplayWorkload(data).footprint_pages)
        slow = machine_for(data, SlowOnlyPolicy(), ratio="1:1", fast_capacity_override=0)
        for machine, tier in ((ideal, 0), (slow, 1)):
            placement = machine.memory.placement
            assert (placement == tier).all()
            assert_machine_batches(machine, assert_matches_reference(data, placement, 2))

    @pytest.mark.parametrize("name", ["gups", "redis-ycsbc"])
    @pytest.mark.parametrize("ratio", ["1:2", "1:4", "1:16"])
    def test_first_touch_mixed_placement(self, name, ratio):
        data = recorded(name)
        machine = machine_for(data, NoTierPolicy(), ratio=ratio)
        placement = machine.memory.placement
        assert 0 < int((placement == 0).sum()) < placement.size
        assert_machine_batches(machine, assert_matches_reference(data, placement, 2))

    def test_three_tiers_with_elided_empty_middle(self):
        data = recorded()
        topology = TierTopology(
            tiers=(TierDef(DRAM_SPEC), TierDef(NUMA_SPEC), TierDef(CXL_SPEC))
        )
        machine = machine_for(
            data, NoTierPolicy(), ratio="1:0:4", config=MachineConfig(topology=topology)
        )
        assert machine.num_tiers == 2
        assert_matches_reference(data, machine.memory.placement, 2)

    def test_three_live_tiers(self):
        data = recorded()
        machine = machine_for(
            data, NoTierPolicy(), ratio="1:4:16",
            config=MachineConfig(topology=make_topology("dram-cxl-nvme")),
        )
        assert machine.num_tiers == 3
        assert_machine_batches(
            machine, assert_matches_reference(data, machine.memory.placement, 3)
        )


class StaticPebsPolicy(NoTierPolicy):
    """A static placement that still samples the slow tier."""

    name = "StaticPebs"
    needs_pebs = True


class StaticChmuPolicy(StaticPebsPolicy):
    """A static placement observed through the CHMU sampler."""

    name = "StaticChmu"
    access_sampler = "chmu"


class TestPathSelection:
    def test_static_pebs_policy_is_misses_only(self):
        # The PEBS merge reads trace columns, never page lists, and its
        # draws run live per window: the static source carries the
        # pre-split batches.
        data = recorded()
        machine = machine_for(data, StaticPebsPolicy())
        assert isinstance(machine._source, StaticSource)
        assert any(b is not None and b.n for b in machine._source.batches)

    def test_static_chmu_policy_samples_live(self):
        # CHMU reads the window's entries in its own tier, live, beside
        # the same pre-split batches; its replay equals the live run.
        data = recorded()
        machine = machine_for(data, StaticChmuPolicy())
        assert isinstance(machine._source, StaticSource)
        live = Machine(
            workload=make_workload("gups", total_misses=500_000, seed=3),
            policy=StaticChmuPolicy(),
            config=MachineConfig(),
            ratio="1:4",
            seed=0,
        ).run()
        assert machine.run().runtime_cycles == live.runtime_cycles

    def test_static_pebs_replay_matches_live(self):
        data = recorded()
        live = Machine(
            workload=make_workload("gups", total_misses=500_000, seed=3),
            policy=StaticPebsPolicy(),
            config=MachineConfig(),
            ratio="1:4",
            seed=0,
        ).run()
        replayed = machine_for(data, StaticPebsPolicy()).run()
        assert replayed.runtime_cycles == live.runtime_cycles


class FakeTrace:
    """Hand-built trace columns: empty windows, empty groups, zero counts."""

    def __init__(self, columns, labels):
        self.columns = columns
        self.labels = labels
        self.memo = StreamMemo(0)


def fake_trace(rng, zero_counts):
    wgp, gpp, pages, counts = [0], [0], [], []
    for _ in range(int(rng.integers(1, 8))):
        n_groups = int(rng.integers(0, 12))  # 0: a window with no groups
        for _ in range(n_groups):
            size = int(rng.integers(0, 12))  # 0: an empty group
            pages.append(rng.choice(40, size=size, replace=False))
            low = 0 if zero_counts else 1
            counts.append(rng.integers(low, 30, size=size))
            gpp.append(gpp[-1] + size)
        wgp.append(wgp[-1] + n_groups)
    num_groups = len(gpp) - 1
    cat = lambda parts: (
        np.concatenate(parts).astype(np.int64) if parts else np.empty(0, dtype=np.int64)
    )
    columns = {
        "window_group_ptr": np.asarray(wgp, dtype=np.int64),
        "group_page_ptr": np.asarray(gpp, dtype=np.int64),
        "pages": cat(pages),
        "counts": cat(counts),
        "group_mlp": rng.uniform(1.0, 16.0, size=num_groups),
        "group_load_fraction": rng.choice([1.0, 0.8], size=num_groups),
        "group_label": rng.integers(0, 2, size=num_groups),
    }
    return FakeTrace(columns, ["chase:a", "stream:b"])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    zero_counts=st.booleans(),
    num_tiers=st.sampled_from([2, 3]),
    uniform=st.sampled_from([None, 0, 1, 2]),
)
def test_edge_shaped_traces(seed, zero_counts, num_tiers, uniform):
    rng = np.random.default_rng(seed)
    data = fake_trace(rng, zero_counts)
    if uniform is None:
        placement = rng.integers(0, num_tiers, size=40).astype(np.int8)
    else:
        placement = np.full(40, min(uniform, num_tiers - 1), dtype=np.int8)
    assert_matches_reference(data, placement, num_tiers)
