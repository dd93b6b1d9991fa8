"""Simulated hardware: stall ground truth, CHA/TOR counters, PEBS, perf."""

from repro.hw.access import AccessGroup, WindowTraffic
from repro.hw.cha import ChaTorCounters, TorSnapshot, littles_law_mlp
from repro.hw.chmu import ChmuSampler
from repro.hw.pebs import DEFAULT_PEBS_RATE, PebsBatch, PebsSampler
from repro.hw.perf import PerfCounters, PerfDelta, PerfSnapshot
from repro.hw.stall import ShareBatch, StallModel, TierLoad, WindowHardware

__all__ = [
    "AccessGroup",
    "ChaTorCounters",
    "ChmuSampler",
    "DEFAULT_PEBS_RATE",
    "ShareBatch",
    "PebsBatch",
    "PebsSampler",
    "PerfCounters",
    "PerfDelta",
    "PerfSnapshot",
    "StallModel",
    "TierLoad",
    "TorSnapshot",
    "WindowHardware",
    "WindowTraffic",
    "littles_law_mlp",
]
