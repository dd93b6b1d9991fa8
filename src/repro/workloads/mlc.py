"""Intel MLC-style bandwidth contender.

The bandwidth-contention study (§5.8) co-locates Intel's Memory Latency
Checker on the local (fast) memory node: each MLC thread generates
~8 GB/s of streaming traffic, and eight threads saturate the testbed's
52 GB/s of DRAM bandwidth.  The contender produces no policy-visible
page accesses -- it just consumes link bandwidth, inflating the fast
tier's effective latency through the queueing model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import CPU_FREQ_GHZ, GB, NS_PER_S
from repro.mem.page import Tier

#: Traffic generated per MLC thread (paper §5.8).
GBPS_PER_THREAD = 8.0


@dataclass
class MlcContender:
    """Streaming traffic injector pinned to one memory tier."""

    threads: int = 0
    #: Tier code of the memory node the contender streams to.
    tier: int = Tier.FAST
    gbps_per_thread: float = GBPS_PER_THREAD

    def bytes_for_duration(self, duration_cycles: float, freq_ghz: float = CPU_FREQ_GHZ) -> float:
        """Bytes the contender pushes during a window of the given length."""
        if self.threads <= 0:
            return 0.0
        duration_ns = duration_cycles / freq_ghz
        return self.threads * self.gbps_per_thread * GB * duration_ns / NS_PER_S
