"""Compact reference implementations the property tests compare against.

The simulator ships one implementation per concept.  The plain,
ordered versions of two of them live here, so the property tests have
something independent to compare with:

* :func:`reference_split` / :func:`reference_solve` -- the
  object-per-share split and the ordered per-share fixed point of the
  stall model (:mod:`repro.hw.stall`), over a window's groups
  (:func:`window_groups` rebuilds them from a window's columns);
* :class:`PerHopMigrator` -- migration applied as it is decided: one
  :func:`move` per hop, victims ranked against live memory, outcomes
  merged as the hops land
  (:meth:`~repro.sim.migration.MigrationEngine.apply_window` plans the
  whole window on an overlay first).

:func:`move` is one migration hop committed straight to memory, the
way tests set placement up.

:func:`make_batch` packs plain :class:`Share` records into a
:class:`~repro.hw.stall.ShareBatch`, the one share type the hardware
consumers take; :func:`batch_columns` and :func:`assert_same_shares`
compare batches column by column.

:func:`ensure` and :func:`replay` look a workload instance up in a
:class:`~repro.workloads.tracestore.TraceStore` through its one lookup,
``ensure_spec``, the way tests record and replay a stream.

:func:`reservoir_offer` is Algorithm R one observation at a time, the
reference :meth:`~repro.common.reservoir.Reservoir.offer_many` must
match draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.common.units import CACHE_LINE_SIZE, ns_to_cycles
from repro.hw.access import AccessGroup
from repro.hw.stall import (
    _FIXED_POINT_ITERATIONS,
    MAX_UTILISATION,
    QUEUE_GAIN,
    ShareBatch,
    TierLoad,
)
from repro.exp.cache import workload_fingerprint
from repro.mem.page import Tier
from repro.sim.migration import MigrationOutcome
from repro.workloads.tracestore import ReplayWorkload


@dataclass
class Share:
    """One access group's traffic that landed in one tier."""

    group_index: int
    tier: int
    pages: np.ndarray
    counts: np.ndarray
    mlp: float
    load_fraction: float = 1.0
    label: str = ""
    unit_stall_cycles: float = 0.0

    @property
    def misses(self) -> int:
        return int(self.counts.sum())


def make_batch(shares: Sequence[Share], num_tiers: int = 2) -> ShareBatch:
    """Pack share records into a batch; row order is list order."""
    return ShareBatch(
        n=len(shares),
        group_index=np.array([s.group_index for s in shares], dtype=np.int64),
        tier_codes=np.array([int(s.tier) for s in shares], dtype=np.intp),
        mlp=np.array([s.mlp for s in shares], dtype=np.float64),
        load_fraction=np.array([s.load_fraction for s in shares], dtype=np.float64),
        misses=np.array([s.misses for s in shares], dtype=np.int64),
        labels=[s.label for s in shares],
        unit_stall_cycles=np.array([s.unit_stall_cycles for s in shares], dtype=np.float64),
        num_tiers=num_tiers,
    )


#: The per-row columns of a :class:`ShareBatch`.
ROW_COLUMNS = ("group_index", "tier_codes", "mlp", "load_fraction", "misses", "misses_f")


def batch_columns(batch: ShareBatch) -> dict:
    """A copy of everything a batch hands its consumers (a split's batch
    aliases its model's scratch, so compare copies)."""
    cols = {name: np.array(getattr(batch, name), copy=True) for name in ROW_COLUMNS}
    cols.update(
        n=batch.n,
        labels=list(batch.labels),
        tier_misses=tuple(batch.tier_misses),
    )
    return cols


def assert_same_shares(got: dict, want: dict) -> None:
    """Two :func:`batch_columns` snapshots agree in every column, dtype
    and bit, empty columns included."""
    assert got["n"] == want["n"]
    for name in ROW_COLUMNS:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    for name in ("labels", "tier_misses"):
        assert got[name] == want[name], name


def window_groups(traffic) -> List[AccessGroup]:
    """A :class:`~repro.hw.access.WindowTraffic`'s groups, one record
    each, sliced out of its entry columns by ``group_ptr``."""
    ptr = traffic.group_ptr
    return [
        AccessGroup(
            pages=traffic.pages[ptr[g] : ptr[g + 1]],
            counts=traffic.counts[ptr[g] : ptr[g + 1]],
            mlp=float(traffic.mlp[g]),
            load_fraction=float(traffic.load_fraction[g]),
            label=traffic.labels[g],
        )
        for g in range(traffic.num_groups)
    ]


def reference_split(groups, placement: np.ndarray, num_tiers: int = 2) -> List[Share]:
    """One freshly-allocated share per (group, tier), by boolean masks."""
    shares = []
    for gi, group in enumerate(groups):
        tiers = placement[group.pages]
        for code in range(num_tiers):
            mask = tiers == code
            if mask.any():
                shares.append(
                    Share(
                        group_index=gi,
                        tier=code,
                        pages=group.pages[mask],
                        counts=group.counts[mask],
                        mlp=group.mlp,
                        load_fraction=group.load_fraction,
                        label=group.label,
                    )
                )
    return shares


def reference_solve(
    model, shares: Sequence[Share], compute_cycles: float, extra_bytes=None, extra_cycles=0.0
) -> Tuple[List[TierLoad], float]:
    """The ordered per-share fixed point: ``(tier loads, duration)``.

    Writes each share's last-iteration unit stall cost back to it.
    """
    extra_bytes = extra_bytes or [0.0] * model.num_tiers
    loads = [TierLoad(tier=t) for t in range(model.num_tiers)]
    for share in shares:
        loads[share.tier].misses += share.misses
    for tier, load in enumerate(loads):
        load.bytes = load.misses * CACHE_LINE_SIZE * (1.0 + model.prefetch_traffic_factor)
        load.bytes += float(extra_bytes[tier])
    duration = max(compute_cycles + extra_cycles, 1.0)
    for _ in range(_FIXED_POINT_ITERATIONS):
        for tier, load in enumerate(loads):
            spec = model.spec[tier]
            supply = spec.bytes_per_ns() * (duration / model.freq_ghz)
            util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
            load.utilisation = util
            load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, model.freq_ghz) * (
                1.0 + QUEUE_GAIN * util / (1.0 - util)
            )
            load.stall_cycles = 0.0
        for share in shares:
            load = loads[share.tier]
            share.unit_stall_cycles = load.effective_latency_cycles / share.mlp
            load.stall_cycles += share.misses * share.unit_stall_cycles
        total_stalls = sum(load.stall_cycles for load in loads)
        new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
        duration = 0.5 * duration + 0.5 * new_duration
    for tier, load in enumerate(loads):
        # Miss-weighted harmonic-mean MLP.
        mine = [s for s in shares if s.tier == tier]
        inv = sum(s.misses / s.mlp for s in mine)
        load.mlp = load.misses / inv if load.misses and inv > 0 else 1.0
    return loads, duration


def ensure(store, workload, max_windows: int = 200_000):
    """``(key, stream)`` for ``workload`` in ``store``, recording it on first use."""
    return store.ensure_spec(workload_fingerprint(workload), lambda: workload, max_windows)


def replay(store, workload, max_windows: int = 200_000):
    """A :class:`ReplayWorkload` over ``workload``'s stream in ``store``
    (a replay passes through unchanged)."""
    if isinstance(workload, ReplayWorkload):
        return workload
    _, data = ensure(store, workload, max_windows)
    return ReplayWorkload(data)


def reservoir_offer(reservoir, value: float) -> None:
    """Offer one observation to ``reservoir`` (Vitter's Algorithm R).

    The first ``capacity`` observations fill the buffer; observation
    ``n`` then replaces slot ``integers(0, n)`` when that slot exists
    (Algorithm 3, lines 4-6).
    """
    reservoir._seen += 1
    if reservoir._size < reservoir.capacity:
        reservoir._data[reservoir._size] = value
        reservoir._size += 1
        return
    slot = int(reservoir._rng.integers(0, reservoir._seen))
    if slot < reservoir.capacity:
        reservoir._data[slot] = value


def move(memory, pages, dst: int, src: int) -> np.ndarray:
    """Move the ``pages`` resident in ``src`` to ``dst``; returns pages moved.

    One hop, clipped on a fresh overlay and committed with
    ``apply_moves``: pages outside ``src`` and pages beyond the
    destination's free capacity are skipped (the kernel's
    ``move_pages()`` likewise partially succeeds).
    """
    moved = memory.overlay().clip_move(pages, dst, src)
    memory.apply_moves([(moved, src, dst)])
    return moved


class PerHopMigrator:
    """Applies a decision hop by hop against live memory.

    Shares the engine's memory and helpers (THP expansion, demotion
    routing, cost accounting); what it does not share is the planning.
    """

    def __init__(self, engine):
        self.engine = engine
        self.memory = engine.memory

    def apply_window(self, decision) -> MigrationOutcome:
        total = MigrationOutcome()
        # No cascade pushes down a page this window promotes.
        promoting = self.engine._expand_thp(np.asarray(decision.promote, dtype=np.int64))
        if decision.demote_lru > 0:
            total.merge(
                self.demote_lru(
                    decision.demote_lru, decision.promote, decision.demote_victim_mode, promoting
                )
            )
        if decision.demote.size:
            total.merge(self.demote(decision.demote, promoting))
        if decision.promote.size:
            total.merge(self.promote(decision.promote))
        return total

    def demote_lru(self, count, protect, victim_mode, promoting) -> MigrationOutcome:
        max_activity = None
        if victim_mode == "cold":
            max_activity = self.engine.config.cold_activity_fraction * self.memory.mean_activity(
                Tier.FAST
            )
        victims = self.memory.overlay().lru_victims(
            Tier.FAST,
            count,
            protect=protect,
            max_activity=max_activity,
            fifo=victim_mode == "fifo",
        )
        return self.demote(victims, promoting)

    def demote(self, pages, promoting) -> MigrationOutcome:
        engine = self.engine
        pages = engine._expand_thp(np.asarray(pages, dtype=np.int64))
        outcome = MigrationOutcome()
        if pages.size == 0:
            return outcome
        place = self.memory.tier_of(pages)
        for src in range(engine.num_tiers - 1):
            dst = engine._demote_dst(src)
            sub = pages[place == src]
            if sub.size:
                outcome.merge(self._make_room(sub, dst, promoting))
                outcome.merge(self._move(sub, src, dst, promoted=False))
        return outcome

    def _make_room(self, incoming, tier, promoting) -> MigrationOutcome:
        """Cascade LRU victims out of a full intermediate ``tier``,
        sparing the incoming pages and the window's promotions."""
        engine = self.engine
        outcome = MigrationOutcome()
        if tier == engine.num_tiers - 1:
            return outcome
        deficit = incoming.size - self.memory.free_pages(tier)
        if deficit > 0:
            dst = engine._demote_dst(tier)
            protect = np.concatenate([incoming, promoting])
            victims = self.memory.overlay().lru_victims(tier, deficit, protect=protect)
            if victims.size:
                outcome.merge(self._make_room(victims, dst, promoting))
                outcome.merge(self._move(victims, tier, dst, promoted=False))
        return outcome

    def _move(self, pages, src, dst, promoted) -> MigrationOutcome:
        moved = move(self.memory, pages, dst, src)
        return self.engine._account(moved, promoted=promoted, src=src, dst=dst)

    def promote(self, pages) -> MigrationOutcome:
        engine = self.engine
        pages = engine._expand_thp(np.asarray(pages, dtype=np.int64))
        outcome = MigrationOutcome()
        if pages.size == 0:
            return outcome
        place = self.memory.tier_of(pages)
        top = int(Tier.FAST)
        for src in range(1, engine.num_tiers):
            sub = pages[place == src]
            if sub.size:
                outcome.merge(self._move(sub, src, top, promoted=True))
        return outcome
