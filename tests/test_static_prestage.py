"""Static prestage: misses-only and uniform batches vs the partitioned split.

Static policies that sample nothing read only the row columns of each
window's :class:`~repro.hw.stall.ShareBatch`, so
:func:`~repro.hw.drawplan.build_static_batches` skips the whole-trace
argsort for them (misses-only), and for a uniform placement skips even
the per-entry bincount.  Every column a consumer reads must equal the
partitioned batch's, and the model's conservation laws must hold: a
window's row misses sum to its trace misses, and so do its per-tier
totals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import CXL_SPEC, DRAM_SPEC, NUMA_SPEC
from repro.hw.drawplan import EntryMetaPlan, build_static_batches
from repro.mem.topology import TierDef, TierTopology, make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy, SlowOnlyPolicy
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream

ROW_COLUMNS = ("group_index", "tier_codes", "mlp", "load_fraction", "misses", "misses_f")


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


def window_trace_misses(data):
    c = data.columns
    gpp = np.asarray(c["group_page_ptr"])
    entry_ptr = gpp[np.asarray(c["window_group_ptr"])]
    counts = np.asarray(c["counts"])
    return [int(counts[entry_ptr[w] : entry_ptr[w + 1]].sum()) for w in range(entry_ptr.size - 1)]


def assert_same_rows(got, want):
    assert got.n == want.n
    for name in ROW_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.labels == want.labels
    assert got.tiers == want.tiers
    assert got.tier_misses == want.tier_misses


def assert_equivalent_and_conserving(data, placement, num_tiers):
    partitioned = build_static_batches(data, placement, num_tiers)
    misses_only = build_static_batches(
        data, placement, num_tiers, meta=EntryMetaPlan(data, num_tiers)
    )
    assert len(misses_only) == len(partitioned)
    for w, total in enumerate(window_trace_misses(data)):
        got, want = misses_only[w], partitioned[w]
        if want is None:
            assert got is None
            continue
        assert_same_rows(got, want)
        assert int(got.misses.sum()) == total
        assert sum(got.tier_misses) == total
        assert len(got.tier_misses) == num_tiers
        if got.n:
            assert got.pages_buf is None
            with pytest.raises(TypeError):
                got.pages_of(0)
    return misses_only


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
            batches = assert_equivalent_and_conserving(data, placement, 2)
            # The machine built exactly these misses-only batches.
            for mine, ref in zip(machine._split_plan.batches, batches):
                if ref is None:
                    assert mine is None
                else:
                    assert_same_rows(mine, ref)
                    assert mine.pages_buf is None

    @pytest.mark.parametrize("name", ["gups", "redis-ycsbc"])
    @pytest.mark.parametrize("ratio", ["1:2", "1:4", "1:16"])
    def test_first_touch_mixed_placement(self, name, ratio):
        data = recorded(name)
        machine = machine_for(data, NoTierPolicy(), ratio=ratio)
        placement = machine.memory.placement
        assert 0 < int((placement == 0).sum()) < placement.size
        batches = assert_equivalent_and_conserving(data, placement, 2)
        for mine, ref in zip(machine._split_plan.batches, batches):
            if ref is not None:
                assert_same_rows(mine, ref)
                assert mine.pages_buf is None

    def test_three_tiers_with_elided_empty_middle(self):
        data = recorded()
        topology = TierTopology(
            tiers=(TierDef(DRAM_SPEC), TierDef(NUMA_SPEC), TierDef(CXL_SPEC))
        )
        machine = machine_for(
            data, NoTierPolicy(), ratio="1:0:4", config=MachineConfig(topology=topology)
        )
        assert machine.num_tiers == 2
        assert_equivalent_and_conserving(data, machine.memory.placement, 2)

    def test_three_live_tiers(self):
        data = recorded()
        machine = machine_for(
            data, NoTierPolicy(), ratio="1:4:16",
            config=MachineConfig(topology=make_topology("dram-cxl-nvme")),
        )
        assert machine.num_tiers == 3
        assert_equivalent_and_conserving(data, machine.memory.placement, 3)


class StaticPebsPolicy(NoTierPolicy):
    """A static placement that still samples the slow tier."""

    name = "StaticPebs"
    needs_pebs = True


class TestPathSelection:
    def test_static_pebs_policy_keeps_partitioned_batches(self):
        data = recorded()
        machine = machine_for(data, StaticPebsPolicy())
        batches = [b for b in machine._split_plan.batches if b is not None and b.n]
        assert batches and all(b.pages_buf is not None for b in batches)
        assert machine._pebs_plan is not None

    def test_schema2_static_pebs_policy_is_misses_only(self):
        # Keyed samplers merge from trace columns, never from page lists.
        data = recorded()
        machine = machine_for(data, StaticPebsPolicy(), config=MachineConfig(rng_schema=2))
        batches = [b for b in machine._split_plan.batches if b is not None and b.n]
        assert batches and all(b.pages_buf is None for b in batches)


class FakeTrace:
    """Hand-built trace columns: empty windows, empty groups, zero counts."""

    def __init__(self, columns, labels):
        self.columns = columns
        self.labels = labels


def fake_trace(rng, zero_counts):
    wgp, gpp, pages, counts = [0], [0], [], []
    for _ in range(int(rng.integers(1, 8))):
        n_groups = int(rng.integers(0, 4))  # 0: a window with no groups
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
    assert_equivalent_and_conserving(data, placement, num_tiers)
