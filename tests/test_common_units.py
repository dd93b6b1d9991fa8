"""Units, constants, and tier specifications."""

import pytest

from repro.common import units


def test_page_geometry():
    assert units.PAGE_SIZE == 4096
    assert units.HUGE_PAGE_SIZE == 2 * 1024 * 1024
    assert units.PAGES_PER_HUGE_PAGE == 512


def test_ns_to_cycles():
    assert units.ns_to_cycles(123.4) == pytest.approx(123.4 * units.CPU_FREQ_GHZ)
    assert units.ns_to_cycles(100.0, freq_ghz=3.0) == pytest.approx(300.0)


def test_cycles_to_ms():
    # 2.2 GHz: 2.2e6 cycles per ms.
    assert units.cycles_to_ms(2.2e6) == pytest.approx(1.0)


def test_testbed_latencies_match_paper():
    assert units.DRAM_SPEC.latency_ns == 90.0
    assert units.NUMA_SPEC.latency_ns == 140.0
    assert units.CXL_SPEC.latency_ns == 190.0
    # CXL is ~2.1x DRAM latency (§5.1).
    assert units.CXL_SPEC.latency_ns / units.DRAM_SPEC.latency_ns == pytest.approx(2.11, abs=0.01)


def test_latency_cycles_at_testbed_frequency():
    assert units.DRAM_SPEC.latency_cycles == pytest.approx(90.0 * 2.2)


def test_bandwidth_bytes_per_ns():
    # 52 GB/s is ~55.8 bytes/ns.
    assert units.DRAM_SPEC.bytes_per_ns() == pytest.approx(55.83, rel=0.01)


def test_latency_configs_cover_three_setups():
    names = [spec.name for spec in units.LATENCY_CONFIGS]
    assert names == ["dram", "numa", "cxl"]


def test_tier_spec_is_immutable():
    with pytest.raises(AttributeError):
        units.DRAM_SPEC.latency_ns = 100.0
