"""Workload-specific behaviours: phases, regions, and access structure."""

import numpy as np
import pytest

from repro.hw.access import AccessGroup, WindowTraffic
from repro.workloads import (
    Bwaves,
    Deepsjeng,
    Gpt2Inference,
    RedisYcsbC,
    Xz,
    make_workload,
)

from oracles import window_groups


class TestWindowTraffic:
    def test_touched_pages_unique_and_counted(self, rng):
        w = make_workload("gups", total_misses=2_000_000)
        w.reset()
        traffic = w.next_window()
        # A group lists each page it touches once, with a positive count.
        for group in window_groups(traffic):
            assert np.unique(group.pages).size == group.pages.size
            assert (group.counts > 0).all()
        assert traffic.total_misses() == int(traffic.counts.sum()) > 0

    def test_empty_traffic(self):
        traffic = WindowTraffic.from_groups([], compute_cycles=0.0)
        assert traffic.num_groups == 0
        assert traffic.pages.size == traffic.counts.size == 0
        assert traffic.group_ptr.tolist() == [0]
        assert traffic.total_misses() == 0

    def test_from_groups_packs_columns(self):
        a = AccessGroup(pages=[3, 1], counts=[5, 0], mlp=2.0, load_fraction=0.5, label="a")
        b = AccessGroup(pages=[], counts=[], mlp=4.0, label="empty")
        c = AccessGroup(pages=[7], counts=[2], mlp=16.0, label="c")
        traffic = WindowTraffic.from_groups([a, b, c], 9.0, done=True, phase="p")
        assert traffic.pages.tolist() == [3, 1, 7]
        assert traffic.counts.tolist() == [5, 0, 2]
        assert traffic.group_ptr.tolist() == [0, 2, 2, 3]
        assert traffic.mlp.tolist() == [2.0, 4.0, 16.0]
        assert traffic.load_fraction.tolist() == [0.5, 1.0, 1.0]
        assert list(traffic.labels) == ["a", "empty", "c"]
        assert (traffic.compute_cycles, traffic.done, traffic.phase) == (9.0, True, "p")
        for column in ("pages", "counts", "group_ptr"):
            assert getattr(traffic, column).dtype == np.int64
        for column in ("mlp", "load_fraction"):
            assert getattr(traffic, column).dtype == np.float64
        # One group is the window: its arrays are kept, not copied.
        alone = WindowTraffic.from_groups([a], 0.0)
        assert alone.pages is a.pages and alone.counts is a.counts


class TestBwaves:
    def test_sweeps_rotate_between_arrays(self):
        w = Bwaves(total_misses=10**8)
        w.reset()
        active_sets = []
        for _ in range(13):
            traffic = w.next_window()
            pages = traffic.pages[traffic.counts > 0]
            quarter = w.footprint_pages // 4
            active_sets.append(frozenset(np.unique(pages // quarter).tolist()))
        assert len(set(active_sets)) > 1  # different array pairs over time

    def test_streaming_mlp_is_high(self):
        w = Bwaves()
        w.reset()
        for group in window_groups(w.next_window()):
            assert group.mlp >= 15.0


class TestXz:
    def test_dictionary_window_slides(self):
        w = Xz(total_misses=10**8, slide_windows=2)
        w.reset()
        def hot_dict_pages():
            traffic = w.next_window()
            group = next(g for g in window_groups(traffic) if g.label == "dict-match")
            order = np.argsort(group.counts)[::-1]
            return set(group.pages[order[:50]].tolist())
        first = hot_dict_pages()
        for _ in range(7):
            w.next_window()
        later = hot_dict_pages()
        overlap = len(first & later) / 50
        assert overlap < 0.8  # the hot window has moved


class TestDeepsjeng:
    def test_transposition_probes_low_mlp(self):
        w = Deepsjeng()
        w.reset()
        tt = next(g for g in window_groups(w.next_window()) if g.label == "tt-probe")
        assert tt.mlp < 4.0

    def test_tt_uniform_eval_skewed(self):
        w = Deepsjeng(total_misses=10**8)
        w.reset()
        # Aggregate several windows to smooth the multinomial noise.
        tt_counts = np.zeros(w.objects[0].num_pages)
        eval_counts = np.zeros(w.objects[1].num_pages)
        for _ in range(10):
            for g in window_groups(w.next_window()):
                if g.label == "tt-probe":
                    np.add.at(tt_counts, g.pages, g.counts)
                else:
                    np.add.at(eval_counts, g.pages - w.objects[1].start_page, g.counts)
        # Coefficient of variation: eval tables are far more skewed.
        tt_cv = tt_counts.std() / tt_counts.mean()
        eval_cv = eval_counts.std() / eval_counts.mean()
        assert eval_cv > 2 * tt_cv


class TestGpt2:
    def test_kv_cache_grows_with_progress(self):
        w = Gpt2Inference(total_misses=4_000_000)
        w.reset()
        early = w._kv_valid_pages()
        w._consumed = int(w.total_misses * 0.9)
        late = w._kv_valid_pages()
        assert late > 3 * early

    def test_gemm_attention_alternation(self):
        w = Gpt2Inference(total_misses=10**8)
        w.reset()
        phases = []
        for _ in range(10):
            w.next_window()
            phases.append(w.phase_name().split("-")[0])
        assert "gemm" in phases and "attention" in phases

    def test_weights_dominate_gemm_windows(self):
        w = Gpt2Inference(total_misses=10**8)
        w.reset()
        traffic = w.next_window()  # window 0 is a GEMM window
        by_label = {g.label: g.total_misses for g in window_groups(traffic)}
        assert by_label["weights"] > 4 * by_label["embed"]


class TestRedis:
    def test_ops_conversion(self):
        w = RedisYcsbC()
        assert w.ops_for_misses(60.0) == pytest.approx(10.0)

    def test_value_popularity_is_zipfian(self):
        w = RedisYcsbC(total_misses=10**8)
        w.reset()
        values = next(g for g in window_groups(w.next_window()) if g.label == "values")
        counts = np.sort(values.counts)[::-1]
        # Top decile of touched pages should carry a large traffic share.
        top = counts[: max(counts.size // 10, 1)].sum()
        assert top / counts.sum() > 0.3
