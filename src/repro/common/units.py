"""Units, physical constants, and the paper's testbed parameters.

All simulation time accounting is done in CPU *cycles*; wall-clock
conversions use the testbed frequency.  The constants here mirror the
experimental platform of §5.1 of the paper: a dual-socket Intel Skylake
(10-core Xeon, 2.2 GHz) with

* local DRAM:  90 ns loaded latency, 52 GB/s bandwidth,
* cross-socket NUMA: 140 ns, 32 GB/s,
* emulated CXL (uncore-throttled remote node): 190 ns.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Sizes.
# ---------------------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_SIZE = 4 * KB
HUGE_PAGE_SIZE = 2 * MB
PAGES_PER_HUGE_PAGE = HUGE_PAGE_SIZE // PAGE_SIZE  # 512
CACHE_LINE_SIZE = 64

# ---------------------------------------------------------------------------
# Time.
# ---------------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

#: Default CPU frequency of the paper's Skylake testbed (§5.1).
CPU_FREQ_GHZ = 2.2


def ns_to_cycles(ns: float, freq_ghz: float = CPU_FREQ_GHZ) -> float:
    """Convert nanoseconds to CPU cycles."""
    return ns * freq_ghz


def cycles_to_ms(cycles: float, freq_ghz: float = CPU_FREQ_GHZ) -> float:
    """Convert CPU cycles to milliseconds."""
    return cycles / freq_ghz / NS_PER_MS


# ---------------------------------------------------------------------------
# Memory-tier latency / bandwidth points (paper §5.1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TierSpec:
    """Latency/bandwidth characteristics of one memory tier."""

    name: str
    #: Unloaded (idle) access latency in nanoseconds.
    latency_ns: float
    #: Peak sustainable bandwidth in GB/s.
    bandwidth_gbps: float

    @property
    def latency_cycles(self) -> float:
        """Idle latency expressed in CPU cycles at the testbed frequency."""
        return ns_to_cycles(self.latency_ns)

    def bytes_per_ns(self) -> float:
        """Peak bandwidth expressed as bytes per nanosecond."""
        return self.bandwidth_gbps * GB / NS_PER_S


#: Local DRAM on the Skylake testbed.
DRAM_SPEC = TierSpec("dram", latency_ns=90.0, bandwidth_gbps=52.0)

#: Cross-socket NUMA memory.
NUMA_SPEC = TierSpec("numa", latency_ns=140.0, bandwidth_gbps=32.0)

#: Emulated CXL memory (remote node with throttled uncore), 2.1x DRAM latency.
CXL_SPEC = TierSpec("cxl", latency_ns=190.0, bandwidth_gbps=30.0)

#: Memory-semantic NVMe/flash tier (CXL-attached SSD class devices):
#: microsecond-scale loads, single-digit GB/s.  Used by the N-tier
#: topologies; not part of the paper's two-tier testbed.
NVME_SPEC = TierSpec("nvme", latency_ns=2_000.0, bandwidth_gbps=6.0)

#: The three latency configurations used in the Fig. 2 model study.
LATENCY_CONFIGS = (DRAM_SPEC, NUMA_SPEC, CXL_SPEC)
