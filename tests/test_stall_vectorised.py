"""Property tests for the columnar stall pipeline.

Four solver properties the columnar pipeline must preserve:

* **bit-identity**: the :class:`~repro.hw.stall.ShareBatch` split and
  solve and the object-per-share references in ``oracles.py``
  (``reference_split`` + the ordered per-share fixed point) produce
  *exactly* equal floats on randomized windows -- same shares, same
  unit costs, same tier loads, same duration -- and no replay hint of
  the split changes a bit;
* **model invariants**: checks derived from the model itself --
  conservation of misses, duration bounds, non-negative stalls, capped
  utilisation, latency never below its unloaded value, per-tier MLP
  inside the range of its rows -- and ``solve_many`` at whole-run width
  equal to per-window ``solve``;
* **monotonicity**: injected link traffic (``extra_bytes``) can only
  lengthen the window -- duration is monotone non-decreasing;
* **convergence health**: after ``_FIXED_POINT_ITERATIONS`` damped
  iterations the relative residual stays below a sane bound across the
  full workload corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_policy
from repro.common.units import CXL_SPEC, DRAM_SPEC, NUMA_SPEC, ns_to_cycles
from repro.hw.access import AccessGroup, WindowTraffic
from repro.hw.stall import MAX_UTILISATION, ShareBatch, StallModel
from repro.mem.page import Tier
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import ALL_WORKLOADS, make_workload

from conftest import FIXED_POINT_RESIDUAL_BOUND
from oracles import (
    assert_same_shares,
    batch_columns,
    make_batch,
    reference_solve,
    reference_split,
)


def make_model():
    return StallModel([DRAM_SPEC, CXL_SPEC])


def split(model, groups, placement, **hints):
    """``model``'s split of the window these groups make."""
    return model.split_groups(WindowTraffic.from_groups(groups, 0.0), placement, **hints)


def random_window(seed):
    """A randomized (groups, placement) pair spanning both tiers.

    Placement mixes FAST and SLOW pages (every page is placed, as the
    machine guarantees before window 0); groups overlap pages, vary in
    MLP/load_fraction, and include single-page extremes.
    """
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(64, 2048))
    placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint, p=[0.45, 0.55])
    groups = []
    for gi in range(int(rng.integers(1, 8))):
        n = int(rng.integers(1, min(footprint, 256) + 1))
        pages = rng.choice(footprint, size=n, replace=False).astype(np.int64)
        counts = rng.integers(1, 1000, size=n).astype(np.int64)
        groups.append(
            AccessGroup(
                pages=pages,
                counts=counts,
                mlp=float(rng.uniform(1.0, 16.0)),
                load_fraction=float(rng.uniform(0.1, 1.0)),
                label=f"g{gi}",
            )
        )
    return groups, placement


#: Tier specs per tier count for the split tests.
SPECS = {2: [DRAM_SPEC, CXL_SPEC], 3: [DRAM_SPEC, NUMA_SPEC, CXL_SPEC]}


def edge_window(rng, n_groups, num_tiers, zero_counts):
    """A window shaped for the split's edge cases: empty groups, pages
    shared across groups, zero counts."""
    footprint = int(rng.integers(1, 300))
    placement = rng.integers(0, num_tiers, size=footprint).astype(np.int8)
    groups = []
    for gi in range(n_groups):
        size = min(int(rng.integers(0, 24)), footprint)  # 0: an empty group
        groups.append(
            AccessGroup(
                pages=rng.choice(footprint, size=size, replace=False),
                counts=rng.integers(0 if zero_counts else 1, 1000, size=size),
                mlp=float(rng.uniform(1.0, 16.0)),
                load_fraction=float(rng.uniform(0.1, 1.0)),
                label=f"g{gi % 3}",
            )
        )
    return groups, placement


class TestBatchMatchesLegacy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        n_groups=st.integers(0, 40),
        num_tiers=st.sampled_from([2, 3]),
        zero_counts=st.booleans(),
    )
    def test_split_groups_matches_legacy(self, seed, n_groups, num_tiers, zero_counts):
        """The one split == the object-per-share reference, with and
        without each replay hint, and it conserves misses."""
        rng = np.random.default_rng(seed)
        groups, placement = edge_window(rng, n_groups, num_tiers, zero_counts)
        model = StallModel(SPECS[num_tiers])
        want = batch_columns(
            make_batch(reference_split(groups, placement, num_tiers), num_tiers)
        )
        batch = split(model, groups, placement)
        assert isinstance(batch, ShareBatch)
        got = batch_columns(batch)
        assert_same_shares(got, want)

        sizes = [g.pages.size for g in groups]
        counts = np.concatenate([g.counts for g in groups]) if groups else np.empty(0, np.int64)
        # Every miss lands in exactly one row.
        assert int(got["misses"].sum()) == int(counts.sum()) == sum(got["tier_misses"])

        # Each replay hint, given where its precondition holds, changes
        # no bit -- alone and all together.
        hints = {
            "key_base": np.repeat(np.arange(n_groups, dtype=np.intp) * num_tiers, sizes),
            "counts_f": counts.astype(np.float64),
        }
        if counts.min(initial=1) >= 1:
            hints["counts_positive"] = True
        for given_hints in [{name: value} for name, value in hints.items()] + [hints]:
            hinted = split(model, groups, placement, **given_hints)
            assert_same_shares(batch_columns(hinted), want)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_solve_bit_identical_to_legacy_loop(self, seed):
        groups, placement = random_window(seed)
        rng = np.random.default_rng(seed + 1)
        compute = float(rng.uniform(1e5, 1e7))
        extra_cycles = float(rng.uniform(0.0, 1e5))
        extra_bytes = [float(rng.uniform(0.0, 1e8)), float(rng.uniform(0.0, 1e8))]
        model = make_model()
        batch = split(model, groups, placement)
        vec = model.solve(batch, compute, extra_bytes=extra_bytes, extra_cycles=extra_cycles)
        vec_units = [float(u) for u in batch.unit_stall_cycles]

        legacy_shares = reference_split(groups, placement)
        ref_loads, ref_duration = reference_solve(
            model, legacy_shares, compute, extra_bytes=extra_bytes, extra_cycles=extra_cycles
        )

        # Exact float equality everywhere -- this is the bit-identity
        # contract that keeps the golden digests green.
        assert vec.duration_cycles == ref_duration
        assert vec.total_stall_cycles == sum(load.stall_cycles for load in ref_loads)
        assert len(vec.tier_loads) == len(ref_loads)
        for v, r in zip(vec.tier_loads, ref_loads):
            assert v.tier == r.tier
            assert v.misses == r.misses
            assert v.bytes == r.bytes
            assert v.stall_cycles == r.stall_cycles
            assert v.effective_latency_cycles == r.effective_latency_cycles
            assert v.utilisation == r.utilisation
            assert v.mlp == r.mlp
        assert vec_units == [s.unit_stall_cycles for s in legacy_shares]

    def test_empty_window_solves_identically(self):
        model = make_model()
        batch = split(model, [], np.empty(0, dtype=np.int8))
        vec = model.solve(batch, 1e6)
        ref_loads, ref_duration = reference_solve(model, [], 1e6)
        assert vec.duration_cycles == ref_duration
        for tier in (Tier.FAST, Tier.SLOW):
            assert vec.tier_loads[tier].mlp == ref_loads[tier].mlp == 1.0
        assert len(vec.tier_loads) == len(ref_loads) == 2


def random_extras(rng):
    compute = float(rng.uniform(1e5, 1e7))
    extra_cycles = float(rng.uniform(0.0, 1e5))
    extra_bytes = [float(rng.uniform(0.0, 1e9)), float(rng.uniform(0.0, 1e9))]
    return compute, extra_bytes, extra_cycles


class TestModelInvariants:
    """Checks derived from the model itself, not from a reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_window_invariants(self, seed):
        groups, placement = random_window(seed)
        compute, extra_bytes, extra_cycles = random_extras(np.random.default_rng(seed + 3))
        model = make_model()
        batch = split(model, groups, placement)
        hw = model.solve(batch, compute, extra_bytes=extra_bytes, extra_cycles=extra_cycles)

        # Every miss lands in exactly one tier.
        misses = sum(g.total_misses for g in groups)
        assert sum(load.misses for load in hw.tier_loads) == misses
        assert hw.duration_cycles >= compute + extra_cycles
        for tier, load in enumerate(hw.tier_loads):
            assert load.tier == tier
            unloaded = ns_to_cycles(model.spec[tier].latency_ns, model.freq_ghz)
            assert load.stall_cycles >= 0.0
            assert 0.0 <= load.utilisation <= MAX_UTILISATION
            assert load.effective_latency_cycles >= unloaded
            rows = np.flatnonzero(batch.tier_codes == tier)
            if rows.size:
                # A miss-weighted harmonic mean, to within float rounding.
                mlp = batch.mlp[rows]
                assert mlp.min() * (1 - 1e-12) <= load.mlp <= mlp.max() * (1 + 1e-12)
            else:
                assert load.mlp == 1.0

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_solve_many_matches_solve_at_whole_run_width(self, seed):
        # solve_many stays bit-identical to solve at a whole run's width.
        rng = np.random.default_rng(seed)
        R = int(rng.integers(200, 241))
        # One splitting model per window: a batch aliases its model's scratch.
        models = [make_model() for _ in range(R)]
        batches = [
            split(m, *random_window(int(s)))
            for m, s in zip(models, rng.integers(0, 10**9, size=R))
        ]
        inputs = [random_extras(rng) for _ in range(R)]
        many = models[0].solve_many(
            batches,
            [compute for compute, _, _ in inputs],
            [extra_bytes if r % 3 else None for r, (_, extra_bytes, _) in enumerate(inputs)],
            [extra_cycles for _, _, extra_cycles in inputs],
        )
        units = [b.unit_stall_cycles.copy() for b in batches]
        for r, (batch, (compute, extra_bytes, extra_cycles)) in enumerate(zip(batches, inputs)):
            one = models[r].solve(
                batch,
                compute,
                extra_bytes=extra_bytes if r % 3 else None,
                extra_cycles=extra_cycles,
            )
            assert one.duration_cycles == many[r].duration_cycles
            assert one.tier_loads == many[r].tier_loads
            np.testing.assert_array_equal(batch.unit_stall_cycles, units[r])


class TestDurationMonotoneInExtraBytes:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_duration_non_decreasing(self, seed):
        groups, placement = random_window(seed)
        model = make_model()
        rng = np.random.default_rng(seed + 2)
        compute = float(rng.uniform(1e5, 1e7))
        prev = None
        for extra in (0.0, 1e3, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10):
            # The batch aliases model scratch, so re-split per solve.
            batch = split(model, groups, placement)
            hw = model.solve(
                batch,
                compute,
                extra_bytes=[0.5 * extra, extra],
            )
            if prev is not None:
                assert hw.duration_cycles >= prev, (
                    f"duration shrank when extra_bytes grew to {extra:g}"
                )
            prev = hw.duration_cycles


class TestFixedPointResidual:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_residual_bounded_across_corpus(self, workload):
        obs = Observability()
        machine = Machine(
            make_workload(workload, total_misses=1_500_000),
            make_policy("PACT"),
            config=MachineConfig(),
            ratio="1:4",
            seed=0,
            obs=obs,
        )
        machine.run()
        residuals = [
            rec.metrics.get("stall/fixed_point_residual", 0.0)
            for rec in obs.recorder.records()
        ]
        assert residuals, "traced run recorded no windows"
        assert max(residuals) < FIXED_POINT_RESIDUAL_BOUND
