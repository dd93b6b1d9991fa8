"""Keyed hardware draws: the PEBS gap draw's law, and why it is safe to key.

:class:`~repro.hw.pebs.PebsSampler` draws a Bernoulli(1/rate) process
over each window's miss stream as geometric gaps and maps every sampled
miss to its trace entry.  Two families of properties are pinned here:

* **Law.**  Per entry, the records must be Binomial(count, lf/rate) --
  exactly what a nested ``rng.binomial(rng.binomial(counts, lf),
  1/rate)`` reference draws.  The windows mix zero counts, ones, a zipf
  tail and one entry of 10^7 misses, at rates 1, 7 and 400, all-load and
  mixed-load.  A homogeneity chi-square over per-entry record totals
  (small entries pooled by count class) sees samples credited to the
  wrong entry; a KS test on window totals sees a wrong rate; a
  boundary window with leading zero-count entries sees an off-by-one
  ``searchsorted`` side.  The power tests plant each fault and require
  the checks to fail.
* **Identity, not position.**  A draw depends only on (seed, window,
  the window's entries): never on window order, on other windows, on
  lockstep interleaving, or on which tiers the policy samples.  That is
  what makes live == replayed and lockstep == serial hold by
  construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.stats as stats

from repro.baselines import make_policy
from repro.common.rngutil import KeyedStream, philox_key
from repro.exp.cache import canonical, content_hash, result_to_dict
from repro.hw import pebs as pebs_module
from repro.hw.pebs import PebsSampler
from repro.hw.substream import KeyedJitter, KeyedPebsSampler
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.sim.machine import Machine
from repro.sim.runbatch import MultiMachine
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, TraceStore, record_stream

from oracles import replay

#: Count classes of the law-test window.
CLASSES = ("zero", "one", "small", "zipf", "huge")


def law_window(seed=0):
    """One heterogeneous window: counts, their class labels, and four
    groups' entry offsets (the classes are interleaved across groups)."""
    rng = np.random.default_rng(seed)
    parts = {
        "zero": np.zeros(50, dtype=np.int64),
        "one": np.ones(120, dtype=np.int64),
        "small": rng.integers(2, 10, size=80),
        "zipf": np.minimum(rng.zipf(1.5, size=200) * 40, 200_000),
        "huge": np.array([10_000_000]),
    }
    labels = np.concatenate([np.full(v.size, k) for k, v in parts.items()])
    counts = np.concatenate(list(parts.values())).astype(np.int64)
    order = rng.permutation(counts.size)
    group_ptr = np.array([0, 110, 230, 340, counts.size], dtype=np.int64)
    return counts[order], labels[order], group_ptr


def sampler_records(sampler, window, counts, group_ptr, group_lf):
    """Dense per-entry records of one keyed draw."""
    entries, records, _ = sampler.draw(window, counts, group_ptr, group_lf)
    dense = np.zeros(counts.size, dtype=np.int64)
    dense[entries] = records
    return dense


def law_samples(make_sampler, rate, mixed, windows, seed=0):
    """(sampler records, reference records, counts, labels), each
    ``windows x entries``; the reference is the nested binomial."""
    counts, labels, group_ptr = law_window(seed)
    group_lf = np.array([1.0, 0.6, 0.3, 0.85]) if mixed else np.ones(4)
    sampler = make_sampler(rate)
    # Without ``loads_only`` every miss is an event, stores included.
    entry_lf = np.repeat(group_lf if sampler.loads_only else np.ones(4), np.diff(group_ptr))
    got = np.stack(
        [sampler_records(sampler, w, counts, group_ptr, group_lf) for w in range(windows)]
    )
    ref_rng = np.random.default_rng(1000 + rate)
    want = np.stack(
        [
            ref_rng.binomial(ref_rng.binomial(counts, entry_lf), 1.0 / rate)
            for _ in range(windows)
        ]
    )
    return got, want, counts, labels


def homogeneity_p(got, want, labels):
    """Chi-square homogeneity of per-entry record totals, sampler vs
    reference.  Entries with fewer than 20 records between both sides
    are pooled into one column per count class."""
    a, b = got.sum(axis=0), want.sum(axis=0)
    big = (a + b) >= 20
    cols = [np.stack([a[big], b[big]])]
    for cls in CLASSES:
        small = ~big & (labels == cls)
        if small.any():
            cols.append(np.array([[a[small].sum()], [b[small].sum()]]))
    table = np.hstack(cols)
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return float(stats.chi2_contingency(table)[1])


#: A boundary window: zero-count entries first, between and last.
BOUNDARY_COUNTS = np.array([0, 0, 1, 0, 2, 1, 1, 0, 0, 3, 0], dtype=np.int64)


def law_failures(make_sampler, rate, mixed, windows):
    """The law checks that fail for this sampler (empty list = pass).

    Besides the law window at ``rate``, a rate-2 sampler draws the
    boundary window 64 times: no entry may get more records than
    misses, and a zero-count entry none at all.
    """
    got, want, counts, labels = law_samples(make_sampler, rate, mixed, windows)
    dense = make_sampler(2)
    edge = np.stack(
        [sampler_records(dense, w, BOUNDARY_COUNTS, None, None) for w in range(64)]
    )
    failures = []
    if (got > counts).any() or (edge > BOUNDARY_COUNTS).any():
        failures.append("records > count")
    if got[:, counts == 0].any() or edge[:, BOUNDARY_COUNTS == 0].any():
        failures.append("zero-count entry sampled")
    if homogeneity_p(got, want, labels) < 1e-3:
        failures.append("per-entry chi-square")
    if stats.ks_2samp(got.sum(axis=1), want.sum(axis=1)).pvalue < 1e-3:
        failures.append("window-total KS")
    return failures


def keyed(rate, seed=7):
    return PebsSampler(seed=seed, rate=rate, cycles_per_record=100.0)


#: Windows per rate: dense rates cost ~misses/rate draws per window.
LAW_WINDOWS = {1: 6, 7: 6, 400: 160}


class TestPebsLaw:
    @pytest.mark.parametrize("mixed", [False, True], ids=["all-load", "mixed-load"])
    @pytest.mark.parametrize("rate", sorted(LAW_WINDOWS))
    def test_matches_nested_binomial(self, rate, mixed):
        assert law_failures(keyed, rate, mixed, LAW_WINDOWS[rate]) == []

    @pytest.mark.parametrize("rate", sorted(LAW_WINDOWS))
    def test_stores_sampled_ignore_load_fractions(self, rate):
        def all_events(rate):
            return PebsSampler(seed=7, rate=rate, cycles_per_record=100.0, loads_only=False)

        assert law_failures(all_events, rate, True, LAW_WINDOWS[rate]) == []

    def test_rate_one_all_load_records_every_miss(self):
        counts, _, group_ptr = law_window()
        got = sampler_records(keyed(1), 0, counts, group_ptr, np.ones(4))
        np.testing.assert_array_equal(got, counts)

    def test_detects_wrong_rate(self):
        # A 440 sampler judged against the 400 reference.
        fails = law_failures(lambda rate: keyed(440), 400, False, LAW_WINDOWS[400])
        assert "window-total KS" in fails

    def test_detects_map_shifted_by_one(self, monkeypatch):
        # Every sampled miss credited to the next entry in trace order
        # (the last entry's to the first).
        right = pebs_module.entries_of
        monkeypatch.setattr(
            pebs_module,
            "entries_of",
            lambda prefix, pos: (right(prefix, pos) + 1) % prefix.size,
        )
        fails = law_failures(keyed, 400, False, LAW_WINDOWS[400])
        assert "per-entry chi-square" in fails
        assert "zero-count entry sampled" in fails

    def test_detects_wrong_searchsorted_side(self, monkeypatch):
        # side="left" credits each entry's first miss to the nonzero
        # entry before it (and position 0 to entry 0, whatever its
        # count).  Each entry still owns ``count`` positions, so away
        # from the window's edges the law barely moves; the boundary
        # window's leading zero-count entry exposes it.
        monkeypatch.setattr(
            pebs_module,
            "entries_of",
            lambda prefix, pos: np.searchsorted(prefix, pos, side="left"),
        )
        fails = law_failures(keyed, 400, False, LAW_WINDOWS[400])
        assert "zero-count entry sampled" in fails

    def test_empty_and_all_zero_windows_draw_nothing(self):
        sampler = keyed(4)
        for counts in (np.zeros(0, dtype=np.int64), np.zeros(9, dtype=np.int64)):
            entries, records, _ = sampler.draw(0, counts)
            assert entries.size == 0 and records.size == 0


def window_inputs(rng, n_windows=24, n_entries=64):
    """Deterministic per-window (counts, group_ptr, group_lf) inputs."""
    out = []
    for _ in range(n_windows):
        counts = rng.integers(0, 200, size=n_entries).astype(np.int64)
        group_ptr = np.array([0, n_entries // 3, n_entries], dtype=np.int64)
        group_lf = np.array([1.0, float(rng.uniform(0.3, 0.9))])
        out.append((counts, group_ptr, group_lf))
    return out


def assert_draws_equal(a, b):
    np.testing.assert_array_equal(a.entries, b.entries)
    np.testing.assert_array_equal(a.records, b.records)


class TestKeyedDrawInvariance:
    def test_window_order_irrelevant(self):
        inputs = window_inputs(np.random.default_rng(3))
        in_order = [keyed(4).draw(w, *x) for w, x in enumerate(inputs)]
        sampler = keyed(4)
        order = np.random.default_rng(4).permutation(len(inputs))
        shuffled = {int(w): sampler.draw(int(w), *inputs[w]) for w in order}
        for w, expected in enumerate(in_order):
            assert_draws_equal(shuffled[w], expected)

    def test_draw_independent_of_other_windows(self):
        inputs = window_inputs(np.random.default_rng(5))
        warm = keyed(4)
        all_draws = [warm.draw(w, *x) for w, x in enumerate(inputs)]
        k = 17
        assert_draws_equal(keyed(4).draw(k, *inputs[k]), all_draws[k])

    def test_multi_run_interleaving_irrelevant(self):
        # Two runs (seeds) drawing in lockstep, in reversed member
        # order, or serially all see identical per-(seed, window) draws.
        inputs = window_inputs(np.random.default_rng(6), n_windows=8)
        serial = {
            seed: [keyed(4, seed=seed).draw(w, *x) for w, x in enumerate(inputs)]
            for seed in (11, 12)
        }
        a, b = keyed(4, seed=11), keyed(4, seed=12)
        for w, x in enumerate(inputs):
            got_b = b.draw(w, *x)
            got_a = a.draw(w, *x)
            assert_draws_equal(got_a, serial[11][w])
            assert_draws_equal(got_b, serial[12][w])

    def test_draw_is_blind_to_sampled_tiers(self):
        # Policies differ in which tiers they sample (merge stage), but
        # the draw must not: common random numbers across policies.
        inputs = window_inputs(np.random.default_rng(7), n_windows=4)
        slow_only = keyed(4)
        both_tiers = PebsSampler(
            seed=7, rate=4, cycles_per_record=100.0, sampled_codes=[0, 1]
        )
        for w, x in enumerate(inputs):
            assert_draws_equal(slow_only.draw(w, *x), both_tiers.draw(w, *x))

    def test_merge_filters_by_sampled_tier(self):
        counts = np.full(40, 50, dtype=np.int64)
        pages = np.arange(40, dtype=np.int64)
        placement = (pages % 2).astype(np.int8)
        drawn = keyed(4).draw(0, counts)
        slow = keyed(4).merge(drawn, pages, placement)
        both = PebsSampler(seed=7, rate=4, sampled_codes=[0, 1]).merge(
            drawn, pages, placement
        )
        assert (placement[slow.pages] == 1).all()
        assert both.total_records == int(drawn.records.sum())
        assert slow.total_records < both.total_records

    def test_keys_distinct_per_seed_and_purpose(self):
        keys = {
            tuple(philox_key(seed, purpose))
            for seed in (0, 1, 2)
            for purpose in ("pebs", "cha", "perf")
        }
        assert len(keys) == 9

    def test_repositioned_stream_matches_fresh_generator(self):
        stream = KeyedStream(5, "cha")
        key = philox_key(5, "cha")
        for w in (3, 0, 3, 1 << 40):
            stream.at(w).random(7)  # leave the buffer part-used
            fresh = np.random.Generator(np.random.Philox(counter=[0, 0, 0, w], key=key))
            np.testing.assert_array_equal(stream.at(w).normal(size=9), fresh.normal(size=9))

    def test_one_convention_no_switch(self):
        assert "rng_schema" not in {f.name for f in dataclasses.fields(MachineConfig)}
        assert MachineConfig().rng_schema_effective == 3
        assert "rng_schema" not in str(canonical(MachineConfig()))

    def test_legacy_name_is_the_sampler(self):
        assert KeyedPebsSampler is PebsSampler
        assert PebsSampler.window_records is PebsSampler.draw
        assert PebsSampler.merge_window is PebsSampler.merge


class TestJitterMarginals:
    def test_lognormal_factors(self):
        noise = 0.05
        jitter = KeyedJitter(seed=21, purpose="cha", noise=noise)
        sample = np.concatenate([jitter.window_values(w, 40) for w in range(200)])
        reference = np.exp(np.random.default_rng(22).normal(0.0, noise, size=8_000))
        assert stats.ks_2samp(reference, sample).pvalue > 1e-3

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            KeyedJitter(seed=0, purpose="cha", noise=0.0)


class TestEndToEnd:
    @pytest.mark.parametrize("policy_name", ["PACT", "Memtis"])
    def test_planned_matches_forced_live(self, policy_name):
        # Replayed traffic runs on the trace-hinted source; the same
        # workload generated live runs the unhinted split.
        store = TraceStore()

        def digest(workload):
            result = run_policy(
                workload,
                make_policy(policy_name),
                ratio="1:4",
                config=MachineConfig(),
                seed=0,
            )
            return content_hash(canonical(result_to_dict(result)))

        replayed = digest(replay(store, make_workload("gups", total_misses=500_000)))
        assert digest(make_workload("gups", total_misses=500_000)) == replayed

    def test_multimachine_lockstep_matches_serial(self):
        data = record_stream(
            make_workload("gups", total_misses=500_000, seed=4), max_windows=512
        )
        grid = [(s, r) for s in (0, 1) for r in ("1:2", "1:4")]

        def machine(seed, ratio):
            return Machine(
                workload=ReplayWorkload(data),
                policy=make_policy("Memtis"),
                config=MachineConfig(),
                ratio=ratio,
                seed=seed,
            )

        serial = [machine(s, r).run() for s, r in grid]
        multi = MultiMachine([machine(s, r) for s, r in grid]).run()
        for lock, solo in zip(multi, serial):
            assert result_to_dict(lock) == result_to_dict(solo)

    def test_window_groups_layout(self):
        # The PEBS load thin reads a window's group_ptr and load
        # fractions: a replayed window carries the live window's.
        data = record_stream(make_workload("silo", total_misses=300_000), 512)
        traffic = ReplayWorkload(data).next_window()
        live = make_workload("silo", total_misses=300_000)
        live.reset()
        want = live.next_window()
        assert traffic.num_groups > 1
        assert traffic.group_ptr[0] == 0
        assert traffic.group_ptr[-1] == traffic.counts.size
        np.testing.assert_array_equal(traffic.group_ptr, want.group_ptr)
        np.testing.assert_array_equal(traffic.load_fraction, want.load_fraction)
        assert traffic.group_ptr.dtype == want.group_ptr.dtype == np.int64
