"""Shared utilities: units, RNG derivation, statistics, sampling, binning."""

from repro.common.charts import bar_chart, series_with_sparkline, sparkline
from repro.common.ewma import Ewma
from repro.common.histogram import (
    bin_index,
    bin_indices,
    freedman_diaconis_width,
    histogram_counts,
)
from repro.common.reservoir import Reservoir
from repro.common.rngutil import child_seeds, make_rng
from repro.common.stats import (
    StreamingStats,
    cdf_points,
    geometric_mean,
    pearson,
    quartiles,
)
from repro.common.units import (
    CACHE_LINE_SIZE,
    CPU_FREQ_GHZ,
    CXL_SPEC,
    DEFAULT_WINDOW_MS,
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
    cycles_to_ns,
    ns_to_cycles,
)

__all__ = [
    "Ewma",
    "bar_chart",
    "series_with_sparkline",
    "sparkline",
    "Reservoir",
    "StreamingStats",
    "TierSpec",
    "bin_index",
    "bin_indices",
    "cdf_points",
    "child_seeds",
    "cycles_to_ms",
    "cycles_to_ns",
    "freedman_diaconis_width",
    "geometric_mean",
    "histogram_counts",
    "make_rng",
    "ns_to_cycles",
    "pearson",
    "quartiles",
    "CACHE_LINE_SIZE",
    "CPU_FREQ_GHZ",
    "CXL_SPEC",
    "DEFAULT_WINDOW_MS",
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
