"""Compact reference implementations the property tests compare against.

The simulator ships one implementation per concept.  The plain,
ordered versions of two of them live here, so the property tests have
something independent to compare with:

* :func:`reference_split` / :func:`reference_solve` -- the
  object-per-share split and the ordered per-share fixed point of the
  stall model (:mod:`repro.hw.stall`);
* :class:`PerHopMigrator` -- migration applied as it is decided: one
  :meth:`~repro.mem.tiered.TieredMemory.move` per hop, victims ranked
  against live memory, outcomes merged as the hops land
  (:meth:`~repro.sim.migration.MigrationEngine.apply_window` plans the
  whole window on an overlay first).

:func:`make_batch` packs plain :class:`Share` records into a
:class:`~repro.hw.stall.ShareBatch`, the one share type the hardware
consumers take; :func:`batch_columns` and :func:`assert_same_shares`
compare batches column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.units import CACHE_LINE_SIZE, ns_to_cycles
from repro.hw.stall import (
    _FIXED_POINT_ITERATIONS,
    MAX_UTILISATION,
    QUEUE_GAIN,
    ShareBatch,
    TierLoad,
)
from repro.mem.page import Tier, tier_key
from repro.sim.migration import MigrationOutcome


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
        tiers=list(batch.tiers),
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
    for name in ("labels", "tiers", "tier_misses"):
        assert got[name] == want[name], name


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
) -> Tuple[Dict[Tier, TierLoad], float]:
    """The ordered per-share fixed point: ``(tier loads, duration)``.

    Writes each share's last-iteration unit stall cost back to it.
    """
    extra_bytes = extra_bytes or {}
    loads = {tier_key(t): TierLoad(tier=tier_key(t)) for t in range(model.num_tiers)}
    for share in shares:
        loads[tier_key(share.tier)].misses += share.misses
    for tier, load in loads.items():
        load.bytes = load.misses * CACHE_LINE_SIZE * (1.0 + model.prefetch_traffic_factor)
        load.bytes += float(extra_bytes.get(tier, 0.0))
    duration = max(compute_cycles + extra_cycles, 1.0)
    for _ in range(_FIXED_POINT_ITERATIONS):
        for tier, load in loads.items():
            spec = model.spec[tier]
            supply = spec.bytes_per_ns() * (duration / model.freq_ghz)
            util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
            load.utilisation = util
            load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, model.freq_ghz) * (
                1.0 + QUEUE_GAIN * util / (1.0 - util)
            )
            load.stall_cycles = 0.0
        for share in shares:
            load = loads[tier_key(share.tier)]
            share.unit_stall_cycles = load.effective_latency_cycles / share.mlp
            load.stall_cycles += share.misses * share.unit_stall_cycles
        total_stalls = sum(load.stall_cycles for load in loads.values())
        new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
        duration = 0.5 * duration + 0.5 * new_duration
    for tier, load in loads.items():
        # Miss-weighted harmonic-mean MLP.
        mine = [s for s in shares if tier_key(s.tier) == tier]
        inv = sum(s.misses / s.mlp for s in mine)
        load.mlp = load.misses / inv if load.misses and inv > 0 else 1.0
    return loads, duration


class PerHopMigrator:
    """Applies a decision hop by hop against live memory.

    Shares the engine's memory and helpers (THP expansion, demotion
    routing, admission, cost accounting); what it does not share is
    the planning.
    """

    def __init__(self, engine):
        self.engine = engine
        self.memory = engine.memory

    def apply_window(self, decision) -> MigrationOutcome:
        total = MigrationOutcome()
        if decision.demote_lru > 0:
            total.merge(
                self.demote_lru(
                    decision.demote_lru, decision.promote, decision.demote_victim_mode
                )
            )
        if decision.demote.size:
            total.merge(self.demote(decision.demote))
        if decision.promote.size:
            total.merge(self.promote(decision.promote))
        return total

    def demote_lru(self, count, protect, victim_mode) -> MigrationOutcome:
        max_activity = None
        if victim_mode == "cold":
            max_activity = self.engine.config.cold_activity_fraction * self.memory.mean_activity(
                Tier.FAST
            )
        victims = self.memory.lru_victims(
            Tier.FAST,
            count,
            protect=protect,
            max_activity=max_activity,
            fifo=victim_mode == "fifo",
        )
        return self.demote(victims)

    def demote(self, pages) -> MigrationOutcome:
        engine = self.engine
        pages = engine._expand_thp(np.asarray(pages, dtype=np.int64))
        outcome = MigrationOutcome()
        if pages.size == 0:
            return outcome
        place = self.memory.tier_of(pages)
        for src in range(engine.num_tiers - 1):
            dst = engine._demote_dst(src)
            sub = engine._admit(src, dst, pages[place == src])
            if sub.size:
                outcome.merge(self._make_room(sub, dst))
                outcome.merge(self._move(sub, src, dst, promoted=False))
        return outcome

    def _make_room(self, incoming, tier) -> MigrationOutcome:
        """Cascade LRU victims out of a full intermediate ``tier``."""
        engine = self.engine
        outcome = MigrationOutcome()
        if tier == engine.num_tiers - 1:
            return outcome
        deficit = incoming.size - self.memory.free_pages(tier)
        if deficit > 0:
            dst = engine._demote_dst(tier)
            victims = self.memory.lru_victims(tier, deficit, protect=incoming)
            victims = engine._admit(tier, dst, victims)
            if victims.size:
                outcome.merge(self._make_room(victims, dst))
                outcome.merge(self._move(victims, tier, dst, promoted=False))
        return outcome

    def _move(self, pages, src, dst, promoted) -> MigrationOutcome:
        moved = self.memory.move(pages, dst, src)
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
            sub = engine._admit(src, top, pages[place == src])
            if sub.size:
                outcome.merge(self._move(sub, src, top, promoted=True))
        return outcome
