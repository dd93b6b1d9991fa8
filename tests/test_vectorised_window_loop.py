"""Property tests for the vectorised policy window loop.

Every optimisation of the window loop is gated on exactness, and each
gets an explicit oracle here:

* the fused plan/apply migration path (:meth:`MigrationEngine.apply_window`)
  against the per-hop reference (``PerHopMigrator`` in ``oracles.py``)
  over randomised placements, multi-tier cascades, direct demotion, THP
  expansion, and admission-hook trimming -- plus the invariants the
  model itself implies (conservation, capacity bounds, link bytes);
* the lazily-recomputed per-tier activity sums against a from-scratch
  masked sum after arbitrary touch/move/first-touch interleavings;
* the tracker's incrementally-merged tracked-page list against a
  ``flatnonzero`` rebuild;
* ``TieredMemory.cold_count`` (the memoised space-budget input) against
  the gather-and-compare it replaced;
* the attach-time prestaged :class:`EntryMetaPlan` against the live
  per-window computation it replaces;
* the sparse PEBS merge (placement gathered for sampled entries only,
  duplicate pages merged by a sort) against a dense per-page reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.hw.drawplan import EntryMetaPlan
from repro.hw.pebs import PebsDraw, PebsSampler
from repro.mem.page import Tier
from repro.mem.tiered import TieredMemory
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.migration import MigrationEngine
from repro.sim.policy_api import Decision

from oracles import PerHopMigrator


# -- randomised state builders ---------------------------------------------------


def make_config(num_tiers=2, thp=False, demotion="through", compressed=False):
    topology = None
    if num_tiers == 3:
        name = "dram-cxlz-nvme" if compressed else "dram-cxl-nvme"
        topology = make_topology(name, demotion=demotion)
    return MachineConfig(thp=thp, topology=topology)


def make_memory(config, footprint, fast, mid=None):
    if config.topology is None:
        return TieredMemory(footprint, fast, footprint, DRAM_SPEC, CXL_SPEC)
    caps = [fast, footprint if mid is None else mid, footprint]
    return TieredMemory(
        footprint,
        capacities=caps,
        specs=config.topology.effective_specs(),
        page_frame_costs=config.topology.page_frame_costs(footprint),
    )


def randomise_state(memory, rng, windows=4):
    """Allocate every page and build up believable LRU/activity state."""
    footprint = memory.footprint_pages
    memory.allocate_first_touch(rng.permutation(footprint))
    for w in range(1, windows + 1):
        n = int(rng.integers(1, footprint))
        pages = np.unique(rng.integers(0, footprint, size=n))
        counts = rng.integers(1, 50, size=pages.size).astype(float)
        memory.touch(pages, window=w, counts=counts)


def clone_memory(memory, config, footprint, fast, mid=None):
    """A second memory with identical observable state."""
    other = make_memory(config, footprint, fast, mid=mid)
    other.placement[:] = memory.placement
    other.activity[:] = memory.activity
    other.last_touch[:] = memory.last_touch
    other.arrival[:] = memory.arrival
    other.used = list(memory.used)
    other._frames_used = list(memory._frames_used)
    other._last_decay_window = memory._last_decay_window
    other._arrival_counter = memory._arrival_counter
    # Derived caches rebuild lazily; mark the sums stale so both sides
    # recompute from the same activity array.
    other._activity_sums_stale = True
    other._placement_gen += 1
    other._activity_gen += 1
    return other


def random_decision(rng, footprint):
    kind = rng.integers(0, 4)
    promote = np.unique(rng.integers(0, footprint, size=int(rng.integers(0, 40))))
    demote = np.unique(rng.integers(0, footprint, size=int(rng.integers(0, 40))))
    demote_lru = int(rng.integers(0, footprint // 2)) if kind != 1 else 0
    mode = ("cold", "lru_tail", "fifo")[int(rng.integers(0, 3))]
    return Decision(
        promote=promote.astype(np.int64),
        demote=demote.astype(np.int64),
        demote_lru=demote_lru,
        demote_victim_mode=mode,
    )


def assert_outcomes_equal(fused, legacy):
    assert fused.promoted == legacy.promoted
    assert fused.demoted == legacy.demoted
    assert fused.cost_cycles == legacy.cost_cycles
    assert fused.bytes_moved == legacy.bytes_moved
    assert fused.link_bytes == legacy.link_bytes
    np.testing.assert_array_equal(fused.promoted_pages, legacy.promoted_pages)
    np.testing.assert_array_equal(fused.demoted_pages, legacy.demoted_pages)


def run_fused_vs_legacy(seed, num_tiers=2, thp=False, demotion="through", admission=None):
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(96, 512))
    fast = int(rng.integers(16, footprint))
    mid = int(rng.integers(8, footprint)) if num_tiers == 3 else None
    config = make_config(num_tiers=num_tiers, thp=thp, demotion=demotion)

    mem_a = make_memory(config, footprint, fast, mid=mid)
    randomise_state(mem_a, rng)
    mem_b = clone_memory(mem_a, config, footprint, fast, mid=mid)

    eng_a = MigrationEngine(mem_a, config)
    eng_b = MigrationEngine(mem_b, config)
    if admission is not None:
        eng_a.admission = admission
        eng_b.admission = admission

    for trial in range(3):
        decision = random_decision(rng, footprint)
        fused = eng_a.apply_window(decision)
        legacy = PerHopMigrator(eng_b).apply_window(decision)
        assert_outcomes_equal(fused, legacy)
        np.testing.assert_array_equal(mem_a.placement, mem_b.placement)
        assert mem_a.used == mem_b.used
        assert mem_a._frames_used == mem_b._frames_used
        # Keep the two LRU states in lockstep for the next trial.
        w = 10 + trial
        pages = np.unique(rng.integers(0, footprint, size=30))
        counts = rng.integers(1, 9, size=pages.size).astype(float)
        mem_a.touch(pages, window=w, counts=counts)
        mem_b.touch(pages, window=w, counts=counts)
    assert eng_a.total_promoted == eng_b.total_promoted
    assert eng_a.total_demoted == eng_b.total_demoted
    assert eng_a.total_cost_cycles == eng_b.total_cost_cycles


class TestFusedApplyMatchesLegacy:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_two_tier(self, seed):
        run_fused_vs_legacy(seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_three_tier_demote_through_cascades(self, seed):
        run_fused_vs_legacy(seed, num_tiers=3, demotion="through")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_three_tier_direct(self, seed):
        run_fused_vs_legacy(seed, num_tiers=3, demotion="direct")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_thp_expansion(self, seed):
        run_fused_vs_legacy(seed, thp=True)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_admission_hook_trims_hops(self, seed):
        def admit(src, dst, pages):
            # Deterministically veto a slice of every hop.
            return pages[pages % 3 != 0]

        run_fused_vs_legacy(seed, num_tiers=3, admission=admit)

    def test_empty_decision_is_a_noop(self):
        config = make_config()
        memory = make_memory(config, 128, 64)
        randomise_state(memory, np.random.default_rng(0))
        engine = MigrationEngine(memory, config)
        before = memory.placement.copy()
        outcome = engine.apply_window(Decision.none())
        assert outcome.promoted == outcome.demoted == 0
        assert outcome.cost_cycles == 0.0
        np.testing.assert_array_equal(memory.placement, before)


def check_apply_invariants(seed, num_tiers=2, thp=False, demotion="through", compressed=False):
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(96, 512))
    fast = int(rng.integers(16, footprint))
    mid = int(rng.integers(8, footprint)) if num_tiers == 3 else None
    config = make_config(num_tiers=num_tiers, thp=thp, demotion=demotion, compressed=compressed)
    memory = make_memory(config, footprint, fast, mid=mid)
    randomise_state(memory, rng)
    engine = MigrationEngine(memory, config)
    resident = sum(memory.used)
    for trial in range(3):
        outcome = engine.apply_window(random_decision(rng, footprint))
        # Each hop charges half its copy traffic to either endpoint link.
        assert sum(outcome.link_bytes.values()) == outcome.bytes_moved
        assert sum(memory.used) == resident
        np.testing.assert_array_equal(
            np.bincount(memory.placement, minlength=memory.num_tiers), memory.used
        )
        for tier in memory.tiers:
            if memory._page_frame_cost[tier] is None:
                assert memory.used[tier] <= memory.capacity[tier]
            else:
                assert memory.frames_used(tier) <= memory.capacity[tier] + 1e-6
        assert outcome.promoted_pages.size == outcome.promoted
        assert outcome.demoted_pages.size == outcome.demoted
        # Promotions run last in a window, so nothing moves them again.
        assert (memory.placement[outcome.promoted_pages] == int(Tier.FAST)).all()
        pages = np.unique(rng.integers(0, footprint, size=30))
        memory.touch(pages, window=10 + trial, counts=rng.integers(1, 9, size=pages.size))


class TestApplyWindowInvariants:
    """Conservation and capacity bounds implied by the model itself."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_two_tier(self, seed):
        check_apply_invariants(seed)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), demotion=st.sampled_from(["through", "direct"]))
    def test_three_tier(self, seed, demotion):
        check_apply_invariants(seed, num_tiers=3, demotion=demotion)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), demotion=st.sampled_from(["through", "direct"]))
    def test_three_tier_compressed(self, seed, demotion):
        check_apply_invariants(seed, num_tiers=3, demotion=demotion, compressed=True)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_thp(self, seed):
        check_apply_invariants(seed, thp=True)


# -- lazy activity sums / incremental caches -------------------------------------


class TestLazyActivitySums:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_from_scratch_sum(self, seed):
        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(64, 512))
        fast = int(rng.integers(16, footprint))
        memory = TieredMemory(footprint, fast, footprint, DRAM_SPEC, CXL_SPEC)
        memory.allocate_first_touch(rng.permutation(footprint))
        for w in range(1, 6):
            pages = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 200))))
            memory.touch(pages, window=w, counts=rng.integers(1, 20, size=pages.size).astype(float))
            if rng.integers(0, 2):
                movable = np.flatnonzero(memory.placement == int(Tier.SLOW))
                if movable.size:
                    memory.move(
                        movable[: int(rng.integers(1, movable.size + 1))], Tier.FAST, Tier.SLOW
                    )
            for tier in memory.tiers:
                resident = memory.placement == int(tier)
                expected = float(memory.activity[resident].sum())
                assert memory.activity_sum(tier) == pytest.approx(expected, rel=1e-9)
        memory.check_accounting()

    def test_check_accounting_refreshes_stale_sums(self):
        # Debug accounting would refresh the sums on every mutation.
        memory = TieredMemory(128, 64, 128, DRAM_SPEC, CXL_SPEC, debug_accounting=False)
        memory.allocate_first_touch(np.arange(128))
        memory.touch(np.arange(64), window=1, counts=np.full(64, 3.0))
        assert memory._activity_sums_stale
        memory.check_accounting()
        assert not memory._activity_sums_stale


class TestIncrementalCachesMatchRebuild:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_tracker_list_matches_flatnonzero(self, seed):
        from repro.core.tracker import PacTracker

        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(32, 256))
        tracker = PacTracker(footprint)
        for _ in range(6):
            pages = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 40))))
            stalls = rng.uniform(0, 100, size=pages.size)
            counts = rng.integers(1, 10, size=pages.size)
            tracker.update(pages, stalls, counts)
            if rng.integers(0, 3) == 0:
                drop = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 10))))
                tracker.drop(drop)
            np.testing.assert_array_equal(
                tracker.tracked_pages(), np.flatnonzero(tracker.tracked)
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_cold_count_matches_gather(self, seed):
        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(64, 256))
        memory = TieredMemory(footprint, footprint // 2, footprint, DRAM_SPEC, CXL_SPEC)
        memory.allocate_first_touch(rng.permutation(footprint))
        pages = np.unique(rng.integers(0, footprint, size=footprint // 2))
        memory.touch(pages, window=1, counts=rng.integers(1, 30, size=pages.size).astype(float))
        threshold = float(rng.uniform(0.0, 15.0))
        resident = np.flatnonzero(memory.placement == int(Tier.FAST))
        expected = int(np.count_nonzero(memory.activity[resident] <= threshold))
        assert memory.cold_count(Tier.FAST, threshold) == expected
        # Memoised second query returns the same value.
        assert memory.cold_count(Tier.FAST, threshold) == expected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_binner_threshold_matches_top_bin_mask(self, seed):
        from repro.core.binning import AdaptiveBinner

        rng = np.random.default_rng(seed)
        binner = AdaptiveBinner(rng=np.random.default_rng(seed + 1))
        values = rng.uniform(0, 100, size=int(rng.integers(2, 300)))
        values[rng.random(values.size) < 0.2] = 0.0
        binner.observe(values, n_tracked=values.size, n_candidates=5)
        positive = values > 0.0
        if positive.any():
            threshold = binner.top_bin_threshold(float(values[positive].max()))
            if threshold <= 0.0:
                fast_mask = positive
            else:
                fast_mask = positive & (values >= threshold)
            np.testing.assert_array_equal(fast_mask, binner.top_bin_mask(values))


# -- prestaged trace plans -------------------------------------------------------


class _FakeTrace:
    def __init__(self, columns):
        self.columns = columns


def random_trace_columns(rng, num_windows=5, max_groups=3, footprint=200):
    wgp = [0]
    gpp = [0]
    pages_parts = []
    counts_parts = []
    for _ in range(num_windows):
        n_groups = int(rng.integers(1, max_groups + 1))
        window_pages = np.sort(
            rng.choice(footprint, size=int(rng.integers(1, 60)), replace=False)
        )
        splits = np.sort(rng.choice(window_pages.size + 1, size=n_groups - 1))
        chunks = np.split(window_pages, splits)
        for chunk in chunks:
            pages_parts.append(chunk.astype(np.int64))
            counts_parts.append(rng.integers(1, 50, size=chunk.size).astype(np.int64))
            gpp.append(gpp[-1] + chunk.size)
        wgp.append(wgp[-1] + n_groups)
    return {
        "window_group_ptr": np.asarray(wgp, dtype=np.int64),
        "group_page_ptr": np.asarray(gpp, dtype=np.int64),
        "pages": np.concatenate(pages_parts),
        "counts": np.concatenate(counts_parts),
    }


class TestPrestagedPlans:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_entry_meta_matches_per_window_recompute(self, seed):
        rng = np.random.default_rng(seed)
        cols = random_trace_columns(rng)
        num_tiers = 2
        meta = EntryMetaPlan(_FakeTrace(cols), num_tiers)
        wgp = cols["window_group_ptr"]
        gpp = cols["group_page_ptr"]
        assert meta.counts_positive  # every generated count is >= 1
        for w in range(wgp.size - 1):
            e0, e1 = gpp[wgp[w]], gpp[wgp[w + 1]]
            key_base, counts_f = meta.window(w)
            np.testing.assert_array_equal(
                counts_f, cols["counts"][e0:e1].astype(np.float64)
            )
            expected_base = np.concatenate(
                [
                    np.full(gpp[g + 1] - gpp[g], (g - wgp[w]) * num_tiers, dtype=np.intp)
                    for g in range(wgp[w], wgp[w + 1])
                ]
            )
            if key_base is None:
                # Single-group trace: the base is the all-zeros no-op.
                assert not (expected_base != 0).any()
            else:
                np.testing.assert_array_equal(key_base, expected_base)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9), codes=st.sampled_from([(1,), (0, 1)]))
    def test_sparse_merge_matches_dense_reference(self, seed, codes):
        """Per page: records summed over its sampled entries in sampled
        tiers; latency the record-weighted mean of its entries' (group,
        tier) unit stall costs."""
        rng = np.random.default_rng(seed)
        footprint = 200
        cols = random_trace_columns(rng, footprint=footprint)
        wgp = cols["window_group_ptr"]
        gpp = cols["group_page_ptr"]
        placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint)
        sampler = PebsSampler(
            seed=3, rate=7, cycles_per_record=5.0, sampled_codes=codes,
            report_latency=True,
        )
        for w in range(wgp.size - 1):
            e0, e1 = gpp[wgp[w]], gpp[wgp[w + 1]]
            pages = cols["pages"][e0:e1]
            group_ptr = gpp[wgp[w] : wgp[w + 1] + 1] - e0
            groups = np.repeat(np.arange(group_ptr.size - 1), np.diff(group_ptr))
            records = rng.integers(0, 3, size=pages.size)
            entries = np.flatnonzero(records)
            unit = rng.uniform(50.0, 400.0, size=(group_ptr.size - 1, 2))
            shares = ShareStub(unit)
            got = sampler.merge(
                PebsDraw(entries, records[entries], group_ptr), pages, placement,
                shares=shares,
            )
            keep = np.isin(placement[pages], codes) & (records > 0)
            dense = np.bincount(pages[keep], weights=records[keep], minlength=footprint)
            lat = unit[groups, placement[pages]]
            weighted = np.bincount(
                pages[keep], weights=(lat * records)[keep], minlength=footprint
            )
            want_pages = np.flatnonzero(dense)
            np.testing.assert_array_equal(got.pages, want_pages)
            np.testing.assert_array_equal(got.counts, dense[want_pages].astype(np.int64))
            assert got.overhead_cycles == dense.sum() * 5.0
            if want_pages.size:
                np.testing.assert_allclose(
                    got.latencies, weighted[want_pages] / dense[want_pages], rtol=1e-12
                )


class ShareStub:
    """The solved-share columns the latency lookup reads: one row per
    (group, tier) cell."""

    def __init__(self, unit):
        n_groups, tiers = unit.shape
        self.group_index = np.repeat(np.arange(n_groups), tiers)
        self.tier_codes = np.tile(np.arange(tiers), n_groups)
        self.unit_stall_cycles = unit.ravel()
