"""The per-stream memo: each keyed draw is made once per replayed stream.

Every run that replays one :class:`~repro.workloads.tracestore.TraceData`
shares its :class:`~repro.hw.drawplan.StreamMemo`, which keeps the
stream's PEBS draws and CHA/perf jitter under keys naming every input
of the draw.  These tests count draws by wrapping
``pebs.sampled_positions`` and ``KeyedStream.at``, and check that runs
sharing a memo return exactly what each returns on a fresh stream.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import make_policy
from repro.common import rngutil
from repro.hw import drawplan, pebs
from repro.hw.pebs import PebsSampler
from repro.hw.substream import KeyedJitter
from repro.mem.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import result_to_dict
from repro.sim.runbatch import MultiMachine
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream

_STREAM = record_stream(make_workload("silo", total_misses=2_000_000))

NTIER = MachineConfig(topology=make_topology("dram-cxlz-nvme"))

#: (policy, policy kwargs, ratio, config, seed): each entry differs from
#: the first in one input a draw's key must name, or in what draws the
#: run makes at all.
RUNS = [
    ("PACT", {}, "1:4", MachineConfig(), 0),
    ("PACT", {}, "1:4", MachineConfig(), 1),
    ("Memtis", {}, "1:2", MachineConfig(), 0),
    ("PACT", {}, "1:4", MachineConfig(pebs_rate=440), 0),
    ("PACT", {}, "1:4", MachineConfig(counter_noise=0.02), 0),
    ("PACT", {}, "1:4", MachineConfig(counter_noise=0.0), 0),
    ("PACT", {}, "1:4:16", NTIER, 0),
    # The zero middle part elides tier 1: two tiers at the same seed,
    # so the CHA jitter is shorter than the run above draws.
    ("PACT", {}, "1:0:16", NTIER, 0),
    ("PACT", {"access_sampler": "chmu"}, "1:4", MachineConfig(), 0),
    ("NoTier", {}, "1:4", MachineConfig(), 0),
]


def fresh_stream():
    """The test stream's columns under a new TraceData, with an empty memo."""
    return dataclasses.replace(_STREAM)


def machine(data, index):
    name, kwargs, ratio, config, seed = RUNS[index]
    return Machine(
        ReplayWorkload(data), make_policy(name, **kwargs), config=config, ratio=ratio, seed=seed
    )


_ALONE = {}


def alone(index):
    """``result_to_dict`` of run ``index`` on its own fresh stream."""
    if index not in _ALONE:
        _ALONE[index] = result_to_dict(machine(fresh_stream(), index).run())
    return _ALONE[index]


@pytest.fixture
def draw_counts(monkeypatch):
    """Calls of the PEBS gap draw and of keyed-stream positioning."""
    counts = {"sampled_positions": 0, "at": 0}
    sampled_positions = pebs.sampled_positions
    at = rngutil.KeyedStream.at

    def counted_positions(*args, **kwargs):
        counts["sampled_positions"] += 1
        return sampled_positions(*args, **kwargs)

    def counted_at(self, counter):
        counts["at"] += 1
        return at(self, counter)

    monkeypatch.setattr(pebs, "sampled_positions", counted_positions)
    monkeypatch.setattr(rngutil.KeyedStream, "at", counted_at)
    return counts


def _pebs_windows(data) -> int:
    """Windows whose PEBS draw samples: those with any miss."""
    wgp, gpp = data.columns["window_group_ptr"], data.columns["group_page_ptr"]
    counts = data.columns["counts"]
    return sum(
        int(counts[gpp[wgp[w]] : gpp[wgp[w + 1]]].sum() > 0) for w in range(data.num_windows)
    )


class TestDrawOnce:
    def test_two_pebs_runs_draw_each_window_once(self, draw_counts):
        data = fresh_stream()
        windows = _pebs_windows(data)
        assert windows >= 4
        pact = machine(data, 0).run()
        assert draw_counts["sampled_positions"] == windows
        memtis = machine(data, 2).run()  # another policy and ratio, same seed
        assert draw_counts["sampled_positions"] == windows
        assert result_to_dict(pact) == alone(0)
        assert result_to_dict(memtis) == alone(2)

    def test_jitter_is_drawn_once_per_stream_and_seed(self, draw_counts):
        data = fresh_stream()
        machine(data, 9).run()  # NoTier: jitter only
        first = draw_counts["at"]
        assert first == 2 * data.num_windows  # CHA and perf, every window
        machine(data, 9).run()
        assert draw_counts["at"] == first

    def test_lockstep_members_share_draws(self, draw_counts):
        data = fresh_stream()
        group = MultiMachine([machine(data, 0), machine(data, 1)])
        results = group.run()
        # Two seeds: one PEBS draw per seed and window, however many
        # members share a seed.
        assert draw_counts["sampled_positions"] == 2 * _pebs_windows(data)
        assert [result_to_dict(r) for r in results] == [alone(0), alone(1)]

    def test_live_runs_draw_every_window(self, draw_counts):
        # Live traffic has no stream identity, so it has no memo.
        for _ in range(2):
            Machine(
                make_workload("silo", total_misses=2_000_000), make_policy("PACT"), ratio="1:4"
            ).run()
        assert draw_counts["sampled_positions"] == 2 * _pebs_windows(_STREAM)


@settings(max_examples=12, deadline=None)
@given(order=st.lists(st.integers(0, len(RUNS) - 1), min_size=2, max_size=4))
@example(order=list(range(len(RUNS))))
@example(order=list(reversed(range(len(RUNS)))))
def test_shared_memo_results_equal_fresh_stream_results(order):
    # Runs that share a stream but differ in one key input (seed, PEBS
    # rate, counter noise, an elided tier, the access sampler) return
    # what each returns alone, in any order.  The two explicit orders
    # run every entry after every other.
    data = fresh_stream()
    for index in order:
        assert result_to_dict(machine(data, index).run()) == alone(index), RUNS[index]


class TestStoredDraws:
    def test_stored_arrays_are_read_only(self):
        data = fresh_stream()
        traffic = ReplayWorkload(data).next_window()
        sampler = PebsSampler(seed=0, memo=data.memo)
        drawn = sampler.draw(0, traffic.counts, traffic.group_ptr, traffic.load_fraction)
        assert drawn.records.size
        again = sampler.draw(0, traffic.counts, traffic.group_ptr, traffic.load_fraction)
        assert again.entries is drawn.entries and again.records is drawn.records
        with pytest.raises(ValueError, match="read-only"):
            drawn.records[0] += 1
        with pytest.raises(ValueError, match="read-only"):
            drawn.entries[0] = 0
        jitter = KeyedJitter(0, "cha", 0.01, memo=data.memo).window_values(0, 8)
        with pytest.raises(ValueError, match="read-only"):
            jitter *= 2.0
        assert data.memo.draw_bytes == (
            drawn.entries.nbytes + drawn.records.nbytes + jitter.nbytes
        )

    def test_memo_does_not_change_stream_equality(self):
        data = fresh_stream()
        machine(data, 0).run()
        assert data.memo.draw_bytes
        assert data == fresh_stream()
        assert "memo" not in repr(data)

    def test_a_tiny_bound_stores_nothing_and_moves_no_result(self, monkeypatch, draw_counts):
        monkeypatch.setattr(drawplan, "DRAW_MEMO_FRACTION", 1e-9)
        data = fresh_stream()
        assert drawplan.DRAW_MEMO_FRACTION * data.nbytes() < 8  # under one value
        assert result_to_dict(machine(data, 0).run()) == alone(0)
        assert result_to_dict(machine(data, 2).run()) == alone(2)
        assert data.memo.draw_bytes == 0
        # Nothing stored, so the second run draws every window again.
        assert draw_counts["sampled_positions"] == 2 * _pebs_windows(data)

    def test_the_bound_caps_stored_bytes(self, monkeypatch):
        full = fresh_stream()
        machine(full, 0).run()
        machine(full, 1).run()
        # Room for about half of what two seeds draw: the memo fills,
        # then stops growing, and every result stays put.
        bound = full.memo.draw_bytes // 2
        monkeypatch.setattr(drawplan, "DRAW_MEMO_FRACTION", bound / full.nbytes())
        data = fresh_stream()
        for index in (0, 1, 2, 1):
            assert result_to_dict(machine(data, index).run()) == alone(index)
            assert data.memo.draw_bytes <= bound
        assert 0 < data.memo.draw_bytes < full.memo.draw_bytes


def test_stored_pebs_draw_matches_a_live_draw():
    # The memo returns what the sampler draws without one.
    data = fresh_stream()
    replay = ReplayWorkload(data)
    memoised = PebsSampler(seed=3, rate=97, memo=data.memo)
    live = PebsSampler(seed=3, rate=97)
    for w in range(data.num_windows):
        t = replay.next_window()
        args = (w, t.counts, t.group_ptr, t.load_fraction)
        for _ in range(2):
            got = memoised.draw(*args)
            want = live.draw(*args)
            np.testing.assert_array_equal(got.entries, want.entries)
            np.testing.assert_array_equal(got.records, want.records)
