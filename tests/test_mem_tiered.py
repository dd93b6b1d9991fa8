"""TieredMemory: allocation, movement, capacity, LRU/activity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.page import Tier, UNALLOCATED
from repro.mem.tiered import ACTIVITY_DECAY, AccountingError, CapacityError, TieredMemory

from conftest import assert_placement_consistent
from oracles import move


def make_memory(footprint=256, fast=128, slow=256):
    return TieredMemory(footprint, [fast, slow])


class TestConstruction:
    def test_rejects_insufficient_capacity(self):
        with pytest.raises(CapacityError):
            make_memory(footprint=256, fast=100, slow=100)

    def test_rejects_empty_footprint(self):
        with pytest.raises(ValueError):
            make_memory(footprint=0)

    def test_starts_unallocated(self, memory):
        assert (memory.placement == UNALLOCATED).all()
        assert memory.used[Tier.FAST] == 0
        assert memory.used[Tier.SLOW] == 0


class TestFirstTouch:
    def test_fills_preferred_then_spills(self, memory):
        pages = np.arange(200)
        taken, spilled = memory.allocate_first_touch(pages)
        assert taken == 128 and spilled == 72
        # Early allocations land fast, later ones slow.
        assert (memory.placement[:128] == int(Tier.FAST)).all()
        assert (memory.placement[128:200] == int(Tier.SLOW)).all()
        assert_placement_consistent(memory)

    def test_order_decides_fast_placement(self, memory):
        order = np.arange(200)[::-1]
        memory.allocate_first_touch(order)
        # The *last* page ids were offered first, so they got fast slots.
        assert memory.placement[199] == int(Tier.FAST)
        assert memory.placement[0] == int(Tier.SLOW)

    def test_idempotent_on_allocated_pages(self, memory):
        memory.allocate_first_touch(np.arange(50))
        taken, spilled = memory.allocate_first_touch(np.arange(50))
        assert (taken, spilled) == (0, 0)
        assert_placement_consistent(memory)

    def test_duplicates_in_request_counted_once(self, memory):
        taken, spilled = memory.allocate_first_touch(np.array([3, 3, 3, 4]))
        assert taken == 2 and spilled == 0

    def test_prefer_slow(self, memory):
        memory.allocate_first_touch(np.arange(10), prefer=Tier.SLOW)
        assert (memory.placement[:10] == int(Tier.SLOW)).all()


class TestMove:
    def test_promote_and_demote_roundtrip(self, memory):
        memory.allocate_first_touch(np.arange(256))
        moved = move(memory, np.array([200, 201]), Tier.FAST, Tier.SLOW)
        assert moved.size == 0  # fast tier is full
        freed = move(memory, np.array([0, 1]), Tier.SLOW, Tier.FAST)
        assert freed.size == 2
        moved = move(memory, np.array([200, 201]), Tier.FAST, Tier.SLOW)
        assert set(moved) == {200, 201}
        assert_placement_consistent(memory)

    def test_move_skips_pages_already_there(self, memory):
        memory.allocate_first_touch(np.arange(256))
        moved = move(memory, np.array([0]), Tier.FAST, Tier.SLOW)  # already fast
        assert moved.size == 0

    def test_move_clips_to_capacity(self, memory):
        memory.allocate_first_touch(np.arange(256))
        move(memory, np.arange(0, 10), Tier.SLOW, Tier.FAST)
        moved = move(memory, np.arange(128, 148), Tier.FAST, Tier.SLOW)
        assert moved.size == 10
        assert_placement_consistent(memory)

    def test_move_ignores_unallocated(self, memory):
        moved = move(memory, np.array([5]), Tier.FAST, Tier.SLOW)
        assert moved.size == 0


class TestLruAndActivity:
    def test_touch_updates_clock_and_activity(self, memory):
        memory.allocate_first_touch(np.arange(4))
        memory.touch(np.array([2]), window=3, counts=np.array([5]))
        assert memory.activity[2] == pytest.approx(5.0)

    def test_activity_decays_lazily(self, memory):
        memory.allocate_first_touch(np.arange(4))
        memory.touch(np.array([1]), window=0, counts=np.array([10]))
        memory.touch(np.array([2]), window=5, counts=np.array([1]))
        assert memory.activity[1] == pytest.approx(10 * ACTIVITY_DECAY**5)

    def test_lru_victims_coldest_first(self, memory):
        memory.allocate_first_touch(np.arange(128))
        memory.touch(np.arange(0, 64), window=1, counts=np.full(64, 10))
        memory.touch(np.arange(64, 128), window=2, counts=np.full(64, 1))
        victims = memory.overlay().lru_victims(Tier.FAST, 10)
        assert all(v >= 64 for v in victims)  # low-activity pages first

    def test_lru_victims_respects_protect(self, memory):
        memory.allocate_first_touch(np.arange(128))
        victims = memory.overlay().lru_victims(Tier.FAST, 128, protect=np.arange(0, 120))
        assert victims.size == 8
        assert set(victims) == set(range(120, 128))

    def test_lru_victims_activity_floor(self, memory):
        memory.allocate_first_touch(np.arange(128))
        memory.touch(np.arange(128), window=1, counts=np.full(128, 50))
        victims = memory.overlay().lru_victims(Tier.FAST, 10, max_activity=1.0)
        assert victims.size == 0  # everything is active

    def test_fifo_mode_ranks_by_arrival(self, memory):
        memory.allocate_first_touch(np.arange(128))
        # Make page 100 extremely active; FIFO should still evict by age.
        memory.touch(np.array([0]), window=1, counts=np.array([1000]))
        fifo = memory.overlay().lru_victims(Tier.FAST, 1, fifo=True)
        assert fifo[0] == 0  # oldest arrival despite being hottest

    def test_mean_activity(self, memory):
        memory.allocate_first_touch(np.arange(2))
        memory.touch(np.array([0, 1]), window=0, counts=np.array([4, 8]))
        fast_mean = memory.mean_activity(Tier.FAST)
        assert fast_mean == pytest.approx(6.0)
        assert memory.mean_activity(Tier.SLOW) == 0.0


class TestQueries:
    def test_pages_in_tier(self, memory):
        memory.allocate_first_touch(np.arange(200))
        fast = memory.pages_in_tier(Tier.FAST)
        slow = memory.pages_in_tier(Tier.SLOW)
        assert fast.size == 128 and slow.size == 72
        assert np.intersect1d(fast, slow).size == 0

    def test_resident_fraction(self, memory):
        memory.allocate_first_touch(np.arange(200))
        assert memory.resident_fraction(Tier.FAST) == pytest.approx(128 / 200)

    def test_resident_fraction_empty(self, memory):
        assert memory.resident_fraction(Tier.FAST) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=60))
def test_random_moves_preserve_invariants(ops):
    memory = make_memory()
    memory.allocate_first_touch(np.arange(256))
    for page, to_fast in ops:
        src, dst = (Tier.SLOW, Tier.FAST) if to_fast else (Tier.FAST, Tier.SLOW)
        move(memory, np.array([page]), dst, src)
    assert_placement_consistent(memory)
    # Every page remains allocated exactly once.
    assert (memory.placement != UNALLOCATED).all()


class TestIncrementalAccounting:
    """Generation-cached queries and O(delta) aggregates stay exact."""

    def make_debug_memory(self, footprint=256, fast=128, slow=256):
        return TieredMemory(footprint, [fast, slow], debug_accounting=True)

    def test_cross_check_passes_through_mixed_mutations(self):
        memory = self.make_debug_memory()
        rng = np.random.default_rng(0)
        memory.allocate_first_touch(rng.permutation(200))
        for window in range(1, 30):
            pages = rng.integers(0, 256, size=40)
            counts = rng.integers(0, 50, size=40)
            memory.touch(pages, window, counts=counts)
            memory.allocate_first_touch(rng.integers(0, 256, size=8))
            if window % 3 == 0:
                move(memory, rng.integers(0, 256, size=16), Tier.FAST, Tier.SLOW)
            else:
                move(memory, rng.integers(0, 256, size=16), Tier.SLOW, Tier.FAST)
            # check_accounting ran after every mutation (debug mode);
            # also assert the public aggregates against full scans here.
            for tier in (Tier.FAST, Tier.SLOW):
                scan = np.flatnonzero(memory.placement == int(tier))
                assert np.array_equal(memory.pages_in_tier(tier), scan)
                expected_mean = (
                    float(memory.activity[scan].mean()) if scan.size else 0.0
                )
                assert memory.mean_activity(tier) == expected_mean

    def test_pages_in_tier_cached_until_placement_changes(self):
        memory = make_memory()
        memory.allocate_first_touch(np.arange(200))
        first = memory.pages_in_tier(Tier.FAST)
        assert memory.pages_in_tier(Tier.FAST) is first  # served from cache
        move(memory, np.array([0, 1]), Tier.SLOW, Tier.FAST)
        second = memory.pages_in_tier(Tier.FAST)
        assert second is not first
        assert 0 not in second and 1 not in second

    def test_touch_does_not_invalidate_residency_cache(self):
        memory = make_memory()
        memory.allocate_first_touch(np.arange(200))
        first = memory.pages_in_tier(Tier.SLOW)
        memory.touch(np.array([150, 151]), window=1, counts=np.ones(2))
        assert memory.pages_in_tier(Tier.SLOW) is first

    def test_mean_activity_tracks_touch_and_decay(self):
        memory = make_memory()
        memory.allocate_first_touch(np.arange(128))  # all fast
        memory.touch(np.arange(128), window=1, counts=np.ones(128))
        assert memory.mean_activity(Tier.FAST) == pytest.approx(1.0)
        memory.touch(np.array([0]), window=6, counts=np.ones(1))  # 5 windows of decay first
        resident = memory.pages_in_tier(Tier.FAST)
        assert memory.mean_activity(Tier.FAST) == float(
            memory.activity[resident].mean()
        )

    def test_mean_activity_exact_after_migration(self):
        memory = make_memory()
        memory.allocate_first_touch(np.arange(200))
        memory.touch(np.arange(200), window=1, counts=np.arange(200).astype(float))
        before = memory.mean_activity(Tier.FAST)
        move(memory, np.arange(0, 40), Tier.SLOW, Tier.FAST)
        after = memory.mean_activity(Tier.FAST)
        assert after != before
        resident = memory.pages_in_tier(Tier.FAST)
        assert after == float(memory.activity[resident].mean())

    def test_accounting_error_surfaces_divergence(self):
        memory = self.make_debug_memory()
        memory.allocate_first_touch(np.arange(50))
        memory.used[Tier.FAST] += 1  # corrupt on purpose
        with pytest.raises(AccountingError):
            memory.check_accounting()

    def test_accounting_error_when_a_tier_overflows_its_capacity(self):
        memory = make_memory()
        memory.allocate_first_touch(np.arange(200))
        memory.check_accounting()
        # Shrinking a capacity after placement (a Nomad-style shadow
        # reserve taken too late) leaves the fast tier over-full.
        memory.capacity[Tier.FAST] = memory.used[Tier.FAST] - 1
        with pytest.raises(AccountingError, match="over its capacity"):
            memory.check_accounting()

    def test_lru_victims_mask_protection_matches_isin(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            memory = make_memory(footprint=512, fast=256, slow=512)
            memory.allocate_first_touch(rng.permutation(400))
            memory.touch(
                rng.integers(0, 400, 80), window=1,
                counts=rng.integers(0, 9, 80).astype(float),
            )
            protect = rng.choice(400, size=30, replace=False)
            got = memory.overlay().lru_victims(Tier.FAST, 40, protect=protect)
            resident = np.flatnonzero(memory.placement == int(Tier.FAST))
            legacy = resident[~np.isin(resident, protect)]
            keys = memory.activity[legacy]
            part = np.argpartition(keys, 40)[:40]
            expected = legacy[part[np.argsort(keys[part], kind="stable")]]
            assert np.array_equal(np.sort(got), np.sort(expected))
            # Scratch mask is cleaned up for the next call.
            assert not memory._protect_scratch.any()
