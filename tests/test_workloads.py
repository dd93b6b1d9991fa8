"""Workload generators: determinism, work accounting, structure."""

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.mem.page import Tier
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import _INITIAL_WINDOW_CYCLES, Machine
from repro.workloads import (
    ALL_WORKLOADS,
    EVAL_WORKLOADS,
    ColocatedWorkload,
    Gups,
    Masim,
    MlcContender,
    Silo,
    generate_corpus,
    make_workload,
    spread_counts,
    zipf_weights,
)
from repro.workloads.graph import GraphWorkload

from oracles import window_groups


class TestHelpers:
    def test_spread_counts_conserves_total(self, rng):
        counts = spread_counts(rng, 100, 5000)
        assert counts.sum() == 5000
        assert counts.size == 100

    def test_spread_counts_weighted(self, rng):
        weights = np.array([1.0, 0.0, 3.0])
        counts = spread_counts(rng, 3, 40_000, weights)
        assert counts[1] == 0
        assert counts[2] > counts[0]

    def test_spread_counts_zero_misses(self, rng):
        assert spread_counts(rng, 4, 0).sum() == 0

    def test_spread_counts_rejects_bad_weights(self, rng):
        with pytest.raises(ValueError):
            spread_counts(rng, 2, 10, np.zeros(2))

    def test_zipf_weights_monotone_unshuffled(self):
        w = zipf_weights(10, 1.0)
        assert (np.diff(w) < 0).all()

    def test_zipf_weights_shuffle(self, rng):
        w = zipf_weights(100, 1.0, rng)
        assert not (np.diff(w) < 0).all()


class TestRegistry:
    def test_all_names_construct(self):
        for name in ALL_WORKLOADS:
            w = make_workload(name)
            assert w.footprint_pages > 0
            assert w.total_misses > 0
            assert w.objects, name

    def test_eval_suite_has_twelve(self):
        assert len(EVAL_WORKLOADS) == 12
        assert len(ALL_WORKLOADS) == 13

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("doom3")

    def test_kwargs_forwarded(self):
        w = make_workload("gups", total_misses=123_456)
        assert w.total_misses == 123_456


class TestWorkloadContract:
    """Every workload must satisfy the generator contract."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_window_emission(self, name):
        w = make_workload(name, total_misses=2_000_000)
        w.reset()
        traffic = w.next_window()
        assert traffic.num_groups
        emitted = traffic.total_misses()
        assert emitted == pytest.approx(w.misses_per_window, rel=0.05)
        for group in window_groups(traffic):
            assert group.mlp >= 1.0
            assert (group.pages >= 0).all()
            assert (group.pages < w.footprint_pages).all()
            assert (group.counts > 0).all()

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_work_runs_to_completion(self, name):
        w = make_workload(name, total_misses=1_000_000, misses_per_window=250_000)
        w.reset()
        windows = 0
        while not w.done and windows < 100:
            w.next_window()
            windows += 1
        assert w.done
        assert w.progress == 1.0

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_reset_gives_identical_stream(self, name):
        w = make_workload(name, total_misses=1_000_000)
        w.reset()
        first = w.next_window()
        w.reset()
        second = w.next_window()
        for column in ("pages", "counts", "group_ptr", "mlp", "load_fraction"):
            assert np.array_equal(getattr(first, column), getattr(second, column))
        assert list(first.labels) == list(second.labels)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_allocation_order_is_permutation(self, name):
        w = make_workload(name)
        order = w.allocation_order()
        assert order.size == w.footprint_pages
        assert np.unique(order).size == w.footprint_pages


class TestMasim:
    def test_patterns(self):
        assert len(Masim(pattern="mixed").objects) == 2
        assert len(Masim(pattern="sequential").objects) == 1
        with pytest.raises(ValueError):
            Masim(pattern="diagonal")

    def test_mixed_emits_both_patterns(self, rng):
        w = Masim(pattern="mixed")
        w.reset()
        labels = {g.label for g in window_groups(w.next_window())}
        assert labels == {"seq", "chase"}

    def test_sequential_mlp_exceeds_random(self):
        seq = Masim(pattern="sequential")
        seq.reset()
        rnd = Masim(pattern="random")
        rnd.reset()
        assert seq.next_window().mlp[0] > rnd.next_window().mlp[0]


class TestGups:
    def test_phases_alternate(self):
        w = Gups(phase_windows=2, total_misses=10**7)
        w.reset()
        phases = []
        for _ in range(6):
            w.next_window()
            phases.append(w.phase_name())
        assert "sequential" in phases and "random" in phases

    def test_half_loads(self):
        w = Gups()
        w.reset()
        assert w.next_window().load_fraction[0] == 0.5


class TestGraph:
    def test_kernel_and_graph_validation(self):
        with pytest.raises(ValueError):
            GraphWorkload("pagerank", "kron")
        with pytest.raises(ValueError):
            GraphWorkload("bc", "roadnet")

    def test_kron_has_pooled_csr_object(self):
        w = make_workload("bc-kron")
        assert any(o.name == "csr_pool" for o in w.objects)

    def test_urand_keeps_separate_objects(self):
        w = make_workload("bc-urand")
        names = {o.name for o in w.objects}
        assert "vertices" in names and "edges" in names

    def test_frontier_narrows_for_sssp(self):
        w = make_workload("sssp-kron", total_misses=5_000_000)
        w.reset()
        assert w._frontier_fraction() > 0.4
        w._consumed = int(w.total_misses * 0.95)
        assert w._frontier_fraction() < 0.2

    def test_sub_phases_change_mix(self):
        w = make_workload("bc-kron", total_misses=10**8)
        w.reset()
        chase_fracs = []
        for _ in range(10):
            traffic = w.next_window()
            chase = sum(
                g.total_misses for g in window_groups(traffic) if g.label == "vertex-chase"
            )
            chase_fracs.append(chase / traffic.total_misses())
        assert max(chase_fracs) > 2 * min(chase_fracs)


class TestSilo:
    def test_scan_windows_interleave(self):
        w = Silo(total_misses=10**7)
        w.reset()
        phases = []
        for _ in range(8):
            w.next_window()
            phases.append(w.phase_name())
        assert "scan" in phases and "txn" in phases

    def test_log_is_store_dominated(self):
        w = Silo()
        w.reset()
        log_groups = [g for g in window_groups(w.next_window()) if g.label == "log"]
        assert log_groups and log_groups[0].load_fraction < 0.5


class TestMlc:
    def test_bytes_scale_with_threads_and_duration(self):
        one = MlcContender(threads=1)
        eight = MlcContender(threads=8)
        d = 2.2e7  # 10 ms
        assert eight.bytes_for_duration(d) == pytest.approx(8 * one.bytes_for_duration(d))
        # 1 thread x 8 GB/s over 10 ms ~ 80 MB.
        assert one.bytes_for_duration(d) == pytest.approx(8 * 1024**3 * 0.01, rel=0.01)

    def test_zero_threads_inject_nothing(self):
        assert MlcContender(threads=0).bytes_for_duration(1e7) == 0.0

    def test_extra_bytes_target_tier(self):
        # One solved window: the contender's bytes land on its own link.
        def first_window_bytes(contender):
            machine = Machine(
                make_workload("gups", total_misses=1_000_000),
                make_policy("NoTier"),
                ratio="1:4",
                contender=contender,
            )
            machine.step()
            return machine.perf.read().bytes

        contender = MlcContender(threads=2, tier=Tier.SLOW)
        quiet = first_window_bytes(None)
        noisy = first_window_bytes(contender)
        assert noisy[Tier.FAST] == quiet[Tier.FAST]
        assert noisy[Tier.SLOW] == (
            quiet[Tier.SLOW] + contender.bytes_for_duration(_INITIAL_WINDOW_CYCLES)
        )

    def test_contender_on_a_missing_tier_rejected(self):
        with pytest.raises(ValueError, match="contender"):
            Machine(
                make_workload("gups", total_misses=1_000_000),
                make_policy("NoTier"),
                ratio="1:4",
                contender=MlcContender(threads=2, tier=2),
            )

    # dram-cxl-nvme at 1:0:4 elides the empty CXL tier: the machine has
    # two tiers, but a contender's tier names the configured hierarchy.
    ELIDED = MachineConfig(topology=make_topology("dram-cxl-nvme"))

    def test_contender_tier_maps_through_elided_tiers(self):
        def first_window_bytes(contender):
            machine = Machine(
                make_workload("gups", total_misses=1_000_000),
                make_policy("NoTier"),
                config=self.ELIDED,
                ratio="1:0:4",
                contender=contender,
            )
            assert [spec.name for spec in machine.stall_model.spec] == ["dram", "nvme"]
            machine.step()
            return machine.perf.read().bytes

        contender = MlcContender(threads=2, tier=2)  # the NVMe link
        quiet = first_window_bytes(None)
        noisy = first_window_bytes(contender)
        assert noisy[0] == quiet[0]
        assert noisy[1] == quiet[1] + contender.bytes_for_duration(
            _INITIAL_WINDOW_CYCLES, self.ELIDED.freq_ghz
        )

    def test_contender_on_an_elided_tier_rejected(self):
        with pytest.raises(ValueError, match="tier 1, which has no capacity"):
            Machine(
                make_workload("gups", total_misses=1_000_000),
                make_policy("NoTier"),
                config=self.ELIDED,
                ratio="1:0:4",
                contender=MlcContender(threads=2, tier=1),
            )


class TestColocation:
    def test_merges_address_spaces(self):
        a = Masim(pattern="sequential", footprint_pages=1000, total_misses=10**6)
        b = Masim(pattern="random", footprint_pages=500, total_misses=10**6)
        colo = ColocatedWorkload([a, b])
        assert colo.footprint_pages == 1500
        assert colo.member_pages(1).min() == 1000

    def test_traffic_offsets_into_member_ranges(self):
        a = Masim(pattern="sequential", footprint_pages=1000, total_misses=10**6)
        b = Masim(pattern="random", footprint_pages=500, total_misses=10**6)
        colo = ColocatedWorkload([a, b])
        colo.reset()
        traffic = colo.next_window()
        member_b_pages = np.concatenate(
            [g.pages for g in window_groups(traffic) if g.label.startswith("masim-random")]
        )
        assert member_b_pages.min() >= 1000
        assert member_b_pages.max() < 1500

    def test_window_is_members_windows_offset_and_labelled(self):
        def members():
            return [
                Masim(pattern="sequential", footprint_pages=1000, total_misses=600_000,
                      misses_per_window=200_000),
                Masim(pattern="mixed", footprint_pages=500, total_misses=1_000_000,
                      misses_per_window=200_000),
            ]

        colo = ColocatedWorkload(members())
        colo.reset()
        solo = members()
        for member in solo:
            member.reset()
        offsets = [0, 1000]
        while not colo.done:
            traffic = colo.next_window()
            parts = [(m, off, m.next_window()) for m, off in zip(solo, offsets) if not m.done]
            np.testing.assert_array_equal(
                traffic.pages, np.concatenate([t.pages + off for _, off, t in parts])
            )
            for column in ("counts", "mlp", "load_fraction"):
                np.testing.assert_array_equal(
                    getattr(traffic, column),
                    np.concatenate([getattr(t, column) for _, _, t in parts]),
                )
            sizes = np.concatenate([np.diff(t.group_ptr) for _, _, t in parts])
            np.testing.assert_array_equal(np.diff(traffic.group_ptr), sizes)
            assert traffic.group_ptr[0] == 0
            assert list(traffic.labels) == [
                f"{m.name}:{label}" for m, _, t in parts for label in t.labels
            ]
            assert traffic.compute_cycles == max(t.compute_cycles for _, _, t in parts)
            assert traffic.done == all(m.done for m in solo)
        assert colo.window_index == 5  # the longer member's windows

    def test_member_finish_windows_recorded(self):
        a = Masim(pattern="sequential", footprint_pages=500, total_misses=400_000,
                  misses_per_window=200_000)
        b = Masim(pattern="random", footprint_pages=500, total_misses=800_000,
                  misses_per_window=200_000)
        colo = ColocatedWorkload([a, b])
        colo.reset()
        while not colo.done:
            colo.next_window()
        assert colo.member_finish_window[0] < colo.member_finish_window[1]

    def test_requires_members(self):
        with pytest.raises(ValueError):
            ColocatedWorkload([])


class TestCorpus:
    def test_ninety_six_workloads(self):
        corpus = generate_corpus()
        assert len(corpus) == 96
        names = {w.name for w in corpus}
        assert len(names) == 96

    def test_spans_mlp_grid(self):
        corpus = generate_corpus()
        mlps = {w.mlp for w in corpus}
        assert min(mlps) == 1.5 and max(mlps) == 16.0

    def test_deterministic_seeds(self):
        a = generate_corpus()[5]
        b = generate_corpus()[5]
        a.reset()
        b.reset()
        ga = window_groups(a.next_window())[0]
        gb = window_groups(b.next_window())[0]
        assert np.array_equal(ga.counts, gb.counts)
