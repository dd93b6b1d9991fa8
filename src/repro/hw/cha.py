"""CHA/TOR occupancy counters and MLP estimation helpers.

Intel's Caching-and-Home-Agent sits between the cores and each memory
tier; its Table-Of-Requests (TOR) tracks outstanding offcore requests.
The paper's key observation (§4.2.2, Takeaway #3) is that two uncore
counters recover *per-tier* MLP:

* ``T1 = TOR_OCCUPANCY``          -- integral of in-flight entries over cycles,
* ``T2 = TOR_OCCUPANCY_COUNTER0`` -- cycles with at least one entry,

so ``MLP = dT1 / dT2`` is the average number of in-flight requests per
active cycle.

In the simulator, each request occupies a TOR entry for its effective
latency, so a share of ``m`` misses at latency ``L`` and parallelism
``mlp`` contributes ``m * L`` occupancy-cycles and ``m * L / mlp`` busy
cycles.  Multiplicative measurement noise (keyed per (group, tier) cell,
:mod:`repro.hw.substream`) is applied so the estimation pipeline
downstream is exercised with realistic counter jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.common.units import CACHE_LINE_SIZE
from repro.hw.stall import ShareBatch
from repro.mem.page import Tier, tier_key

@dataclass
class TorSnapshot:
    """Cumulative (T1, T2) values per tier at one instant."""

    occupancy: Dict[Tier, float]
    busy_cycles: Dict[Tier, float]

    def mlp_since(self, earlier: "TorSnapshot", tier: Tier) -> float:
        """Per-tier MLP from counter deltas (Algorithm 1, line 1)."""
        d_occ = self.occupancy[tier] - earlier.occupancy[tier]
        d_busy = self.busy_cycles[tier] - earlier.busy_cycles[tier]
        if d_busy <= 0.0:
            return 1.0
        return max(d_occ / d_busy, 1.0)


class ChaTorCounters:
    """Cumulative TOR occupancy counters, one pair per tier."""

    def __init__(self, num_tiers: int = 2):
        tiers = [tier_key(t) for t in range(num_tiers)]
        self._occupancy = {t: 0.0 for t in tiers}
        self._busy = {t: 0.0 for t in tiers}

    def advance(self, batch: ShareBatch, jitter: Optional[np.ndarray] = None) -> None:
        """Account one window's traffic into the cumulative counters.

        ``jitter``, when given, supplies the window's multiplicative
        noise factors as an ``(n, 2)`` array (occ, busy per row); the
        machine draws them per (group, tier) cell from a keyed
        substream (:class:`repro.hw.substream.KeyedJitter`).

        The elementwise arithmetic is batched.  The final accumulation
        stays a scalar per-share loop in row order: the counters are
        *cumulative*, so summing a window's contribution first and
        adding it once would round differently from one-share-at-a-time
        adds.
        """
        n = batch.n
        if n == 0:
            return
        lat = batch.unit_stall_cycles * batch.mlp
        occ = batch.misses_f * lat
        busy = occ / batch.mlp
        if jitter is not None:
            occ = occ * jitter[:, 0]
            busy = busy * jitter[:, 1]
        tiers = batch.tiers
        for i in range(n):
            tier = tiers[i]
            self._occupancy[tier] += float(occ[i])
            self._busy[tier] += float(busy[i])

    def read(self) -> TorSnapshot:
        """Snapshot the cumulative counters (as perf would read them)."""
        return TorSnapshot(occupancy=dict(self._occupancy), busy_cycles=dict(self._busy))


def littles_law_mlp(bytes_on_link: float, latency_ns: float, duration_ns: float) -> float:
    """AMD-path MLP estimate: ``MLP ~ latency * bandwidth / 64B`` (§4.2.2).

    This applies Little's Law to the link: in-flight lines = arrival rate
    (lines/ns) * latency (ns).  It *overestimates* demand MLP because
    ``bytes_on_link`` includes prefetch traffic -- the same bias the
    paper shows for the gray line of Figure 3.
    """
    if duration_ns <= 0.0:
        return 1.0
    lines_per_ns = bytes_on_link / CACHE_LINE_SIZE / duration_ns
    return max(lines_per_ns * latency_ns, 1.0)
