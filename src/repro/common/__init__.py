"""Shared utilities: units, RNG derivation, statistics, sampling, binning."""

from repro.common.histogram import freedman_diaconis_width
from repro.common.reservoir import Reservoir
from repro.common.stats import cdf_points, pearson
from repro.common.units import (
    CACHE_LINE_SIZE,
    CPU_FREQ_GHZ,
    CXL_SPEC,
    DRAM_SPEC,
    GB,
    HUGE_PAGE_SIZE,
    KB,
    LATENCY_CONFIGS,
    MB,
    NUMA_SPEC,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
    TierSpec,
    cycles_to_ms,
    ns_to_cycles,
)

__all__ = [
    "Reservoir",
    "TierSpec",
    "cdf_points",
    "cycles_to_ms",
    "freedman_diaconis_width",
    "ns_to_cycles",
    "pearson",
    "CACHE_LINE_SIZE",
    "CPU_FREQ_GHZ",
    "CXL_SPEC",
    "DRAM_SPEC",
    "GB",
    "HUGE_PAGE_SIZE",
    "KB",
    "LATENCY_CONFIGS",
    "MB",
    "NUMA_SPEC",
    "PAGE_SIZE",
    "PAGES_PER_HUGE_PAGE",
]
