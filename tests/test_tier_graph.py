"""Tier-graph tests: N-part ratios, topologies, compression, multi-hop.

Covers the tier-graph core along four axes:

* ``parse_ratio`` N-part parsing with exact two-part back-compat,
* topology construction (the paper's DRAM/CXL pair is the default
  config's topology) and cache-key fingerprints,
* one tier vocabulary: tiers are int codes, labelled only at
  serialisation, and ``src/`` keys no dict by tier,
* N-tier ``TieredMemory`` + multi-hop migration conservation properties,
* end-to-end equivalence: a three-tier hierarchy with an empty middle
  tier reproduces the two-tier golden digests bit for bit, and a
  three-tier grid survives the result store.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.common.units import CXL_SPEC, DRAM_SPEC, NUMA_SPEC, NVME_SPEC
from repro.exp.cache import canonical, content_hash, result_to_dict
from repro.exp.service import CampaignDriver
from repro.exp.spec import ExperimentSpec, PolicySpec, RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore
from repro.mem.page import Tier, tier_from_label, tier_label
from repro.mem.tiered import TieredMemory
from repro.mem.topology import (
    CompressionSpec,
    TierDef,
    TierTopology,
    make_topology,
)
from repro.sim.config import MachineConfig, parse_ratio, parse_ratio_parts
from repro.sim.engine import run_policy
from repro.sim.machine import Machine
from repro.sim.migration import MigrationEngine
from repro.sim.policy_api import Decision
from repro.workloads import make_workload, tracestore

from oracles import move
from test_golden_digests import GOLDEN_DIGESTS


# -- ratio parsing ----------------------------------------------------------------


class TestParseRatio:
    def test_two_part_exact_values(self):
        assert parse_ratio("1:4") == 1.0 / 5.0
        assert parse_ratio("1:1") == 0.5
        assert parse_ratio("8:1") == 8.0 / 9.0

    def test_n_part_values(self):
        assert parse_ratio_parts("1:4:16") == [1.0 / 21.0, 4.0 / 21.0, 16.0 / 21.0]
        assert parse_ratio("1:4:16") == 1.0 / 21.0

    def test_zero_middle_part_matches_two_part_exactly(self):
        # "1:0:4" must yield the *bit-identical* tier-0 fraction as
        # "1:4" -- the empty-middle digest equivalence depends on it.
        assert parse_ratio("1:0:4") == parse_ratio("1:4")

    @pytest.mark.parametrize("bad", ["1-1", "1", "", "a:b", "1:", ":4", "nan:1", "inf:2"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_ratio(bad)

    @pytest.mark.parametrize("bad", ["0:1", "1:0", "-1:4", "1:-4"])
    def test_two_part_requires_both_positive(self, bad):
        # The historical two-part contract: zeros were never allowed.
        with pytest.raises(ValueError, match="positive"):
            parse_ratio(bad)

    @pytest.mark.parametrize("bad", ["0:1:4", "1:4:0", "1:-1:4"])
    def test_n_part_endpoint_and_sign_rules(self, bad):
        with pytest.raises(ValueError, match="positive"):
            parse_ratio(bad)

    def test_n_part_allows_zero_middles(self):
        assert parse_ratio_parts("2:0:0:2") == [0.5, 0.0, 0.0, 0.5]


class TestTierCapacities:
    def test_two_tier_matches_legacy_helpers(self):
        config = MachineConfig()
        caps = config.tier_capacities(1000, "1:4")
        # The historical fast-tier rule: ceil(footprint * fraction), >= 1.
        fast = max(int(np.ceil(1000 * parse_ratio("1:4"))), 1)
        assert caps == [fast, config.slow_capacity(1000)]

    def test_three_tier_split_and_bottom_slack(self):
        config = MachineConfig(topology=make_topology("dram-cxl-nvme"))
        caps = config.tier_capacities(1000, "1:4:16")
        assert len(caps) == 3
        assert caps[0] == int(np.ceil(1000 / 21.0))
        assert caps[1] == int(np.ceil(1000 * 4.0 / 21.0))
        assert caps[2] == config.slow_capacity(1000)

    def test_short_ratio_padded_with_last_part(self):
        config = MachineConfig(topology=make_topology("dram-cxl-nvme"))
        assert config.tier_capacities(1000, "1:4") == config.tier_capacities(1000, "1:4:4")

    def test_zero_middle_gives_empty_interior_tier(self):
        config = MachineConfig(topology=make_topology("dram-cxl-nvme"))
        caps = config.tier_capacities(1000, "1:0:4")
        assert caps[0] == MachineConfig().tier_capacities(1000, "1:4")[0]
        assert caps[1] == 0

    def test_too_many_parts_rejected(self):
        config = MachineConfig(topology=make_topology("dram-cxl-nvme"))
        with pytest.raises(ValueError, match="parts"):
            config.tier_capacities(1000, "1:2:3:4")
        # The default pair follows the same rule (it once silently read
        # a longer ratio's first part).
        with pytest.raises(ValueError, match="parts"):
            MachineConfig().tier_capacities(1000, "1:4:16")


# -- tier codes and labels --------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def second_tier_vocabulary(source: str):
    """``(line, what)`` for every use of a retired tier vocabulary: the
    name ``tier_key``, or a ``Dict``/``Mapping`` annotation keyed by
    ``Tier`` (per-tier state is a list indexed by tier code)."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "tier_key":
            flagged.append((node.lineno, "tier_key"))
        elif isinstance(node, ast.Attribute) and node.attr == "tier_key":
            flagged.append((node.lineno, "tier_key"))
        elif isinstance(node, ast.alias) and node.name == "tier_key":
            flagged.append((node.lineno, "tier_key"))
        elif isinstance(node, ast.Subscript):
            container = node.value
            name = getattr(container, "id", getattr(container, "attr", None))
            key = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
            if name in ("Dict", "dict", "Mapping") and getattr(key, "id", None) == "Tier":
                flagged.append((node.lineno, f"{name}[Tier, ...]"))
    return sorted(flagged)


class TestTierKeys:
    def test_tripwire_recognises_second_vocabularies(self):
        source = "\n".join(
            [
                "from repro.mem.page import tier_key",
                "x = tier_key(2)",
                "y = page.tier_key(1)",
                "a: Dict[Tier, float] = {}",
                "b: typing.Mapping[Tier, int]",
                "def f(c: dict[Tier, float]): pass",
                # Tier-code forms below must not be flagged.
                "d: List[float] = []",
                "e: Dict[int, float] = {}",
                "f = lists[Tier.SLOW]",
            ]
        )
        assert [line for line, _ in second_tier_vocabulary(source)] == [1, 2, 3, 4, 5, 6]

    def test_src_has_one_tier_vocabulary(self):
        flagged = [
            f"{path.relative_to(SRC)}:{line}: {what}"
            for path in sorted(SRC.rglob("*.py"))
            for line, what in second_tier_vocabulary(path.read_text())
        ]
        assert flagged == []

    def test_labels_round_trip(self):
        for i in range(5):
            assert tier_from_label(tier_label(i)) == i
            assert type(tier_from_label(tier_label(i))) is int
        assert tier_label(0) == "FAST" and tier_label(2) == "TIER2"
        with pytest.raises(ValueError):
            tier_from_label("bogus")


# -- topology construction --------------------------------------------------------


class TestTopology:
    def test_needs_at_least_two_tiers(self):
        with pytest.raises(ValueError):
            TierTopology(tiers=(TierDef(DRAM_SPEC),))

    def test_rejects_unknown_demotion_mode(self):
        with pytest.raises(ValueError):
            TierTopology(tiers=(TierDef(DRAM_SPEC), TierDef(CXL_SPEC)), demotion="sideways")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("dram-tape")

    def test_compression_folds_latency_into_spec(self):
        tier = TierDef(CXL_SPEC, compression=CompressionSpec(latency_ns=40.0))
        spec = tier.effective_spec()
        assert spec.latency_ns == CXL_SPEC.latency_ns + 40.0
        assert spec.name.endswith("+z")

    def test_page_ratios_are_seeded_and_bounded(self):
        comp = CompressionSpec(ratio=2.0, spread=0.5, seed=7)
        a = comp.page_ratios(512)
        b = comp.page_ratios(512)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 1.0  # a "compressed" page never grows
        assert a.max() <= 2.0 * 1.5
        costs = comp.page_frame_costs(512)
        np.testing.assert_allclose(costs, 1.0 / a)

    def test_default_pair_is_the_default_config(self):
        config = MachineConfig(topology=make_topology("dram-cxl"))
        assert config == MachineConfig()
        assert config.num_tiers == 2
        # Uncompressed tiers hand the stall model the specs themselves.
        assert config.tier_specs()[0] is DRAM_SPEC
        assert config.tier_specs()[1] is CXL_SPEC

    def test_non_default_topology_is_kept(self):
        config = MachineConfig(topology=make_topology("dram-cxlz-nvme"))
        assert config.topology == make_topology("dram-cxlz-nvme")
        assert config.num_tiers == 3
        assert config.demotion_mode == "through"


class TestMachineConfigValidation:
    """Bad machine settings fail where they enter, naming the field."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_pebs_rate_below_one(self, value):
        with pytest.raises(ValueError, match="pebs_rate"):
            MachineConfig(pebs_rate=value)

    @pytest.mark.parametrize("value", [0.0, -2.2, float("nan"), float("inf")])
    def test_freq_ghz_not_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="freq_ghz"):
            MachineConfig(freq_ghz=value)

    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_counter_noise_not_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="counter_noise"):
            MachineConfig(counter_noise=value)

    @pytest.mark.parametrize("value", [None, "dram-cxl", (DRAM_SPEC, CXL_SPEC)])
    def test_topology_not_a_tier_topology(self, value):
        with pytest.raises(ValueError, match="topology"):
            MachineConfig(topology=value)

    def test_valid_edges_build(self):
        MachineConfig(pebs_rate=1, counter_noise=0.0, freq_ghz=0.1)


class TestPoliciesModelTheirLowerTier:
    """PACT and Soar take Eq. 1's constant from the built machine's tier 1.

    On ``dram-cxlz-nvme`` that is the compressed CXL tier, 190 + 40 ns =
    506 cycles at 2.2 GHz, not the plain CXL pair's 418.
    """

    def _machine(self, policy, topology, ratio):
        return Machine(
            make_workload("gups", total_misses=500_000),
            policy,
            config=MachineConfig(topology=make_topology(topology)),
            ratio=ratio,
        )

    @pytest.mark.parametrize(
        "topology,ratio,k_cycles",
        [("dram-cxl", "1:4", 418.0), ("dram-cxlz-nvme", "1:4:16", 506.0)],
    )
    def test_pact(self, topology, ratio, k_cycles):
        sampler = self._machine(make_policy("PACT"), topology, ratio).policy.sampler
        assert sampler.coefficients.k_cycles == pytest.approx(k_cycles)
        assert sampler.slow_latency_ns == pytest.approx(k_cycles / 2.2)

    @pytest.mark.parametrize(
        "topology,ratio,k_cycles",
        [("dram-cxl", "1:4", 418.0), ("dram-cxlz-nvme", "1:4:16", 506.0)],
    )
    def test_soar_profiler(self, monkeypatch, topology, ratio, k_cycles):
        from repro.baselines import soar

        seen = []
        profiler = soar._ObjectProfiler

        def recording(footprint_pages, coefficients):
            seen.append(coefficients.k_cycles)
            return profiler(footprint_pages, coefficients)

        monkeypatch.setattr(soar, "_ObjectProfiler", recording)
        self._machine(make_policy("Soar"), topology, ratio)
        assert seen == [pytest.approx(k_cycles)]


# -- cache-key fingerprints -------------------------------------------------------


def _request_key(config: MachineConfig) -> str:
    request = RunRequest(
        kind="policy",
        workload=WorkloadSpec.registry("gups", total_misses=1_000_000),
        policy=PolicySpec(name="PACT"),
        ratio="1:4",
        seed=0,
        config=config,
    )
    return content_hash(request.fingerprint())


class TestFingerprints:
    def test_default_pair_topology_fingerprints_like_no_topology(self):
        # Spelling out the default pair is the default config: one key.
        assert _request_key(MachineConfig(topology=make_topology("dram-cxl"))) == _request_key(
            MachineConfig()
        )
        assert "topology" in canonical(MachineConfig())

    def test_non_default_topology_changes_the_key(self):
        base = _request_key(MachineConfig())
        assert _request_key(MachineConfig(topology=make_topology("dram-cxl-nvme"))) != base
        assert _request_key(MachineConfig(topology=make_topology("dram-cxlz-nvme"))) != base

    def test_demotion_mode_is_part_of_the_key(self):
        through = _request_key(MachineConfig(topology=make_topology("dram-cxl-nvme")))
        direct = _request_key(
            MachineConfig(topology=make_topology("dram-cxl-nvme", demotion="direct"))
        )
        assert through != direct


# -- N-tier memory + multi-hop migration ------------------------------------------


def _three_tier_memory(footprint=300, caps=(100, 100, 400)):
    return TieredMemory(footprint_pages=footprint, capacities=list(caps))


def _used_total(memory):
    return sum(memory.used)


class TestNTierMemory:
    def test_first_touch_spills_down_in_tier_order(self):
        memory = _three_tier_memory()
        memory.allocate_first_touch(np.arange(300), prefer=Tier.FAST)
        assert memory.used == [100, 100, 100]
        place = memory.placement
        assert (place[:100] == 0).all() and (place[100:200] == 1).all()
        assert (place[200:] == 2).all()

    def test_move_with_explicit_source_conserves_pages(self):
        memory = _three_tier_memory()
        memory.allocate_first_touch(np.arange(300), prefer=Tier.FAST)
        moved = move(memory, np.arange(50), 2, src=0)
        assert moved.size == 50
        assert _used_total(memory) == 300
        assert memory.used == [50, 100, 150]

    def test_compressed_tier_admits_beyond_page_capacity(self):
        # Every page compresses 2x, so 50 frames hold 100 pages.
        costs = [None, np.full(200, 0.5), None]
        memory = TieredMemory(
            footprint_pages=200,
            capacities=[50, 50, 200],
            page_frame_costs=costs,
        )
        memory.allocate_first_touch(np.arange(200), prefer=Tier.FAST)
        assert memory.used == [50, 100, 50]
        assert memory.frames_used(1) == pytest.approx(50.0)
        memory.check_accounting()


def _engine(memory, demotion="through"):
    topology = TierTopology(
        tiers=(TierDef(DRAM_SPEC), TierDef(CXL_SPEC), TierDef(NVME_SPEC)),
        demotion=demotion,
    )
    return MigrationEngine(memory, MachineConfig(topology=topology))


class TestMultiHopMigration:
    def test_demote_through_cascades_out_of_a_full_middle_tier(self):
        memory = _three_tier_memory(footprint=200, caps=(100, 100, 400))
        memory.allocate_first_touch(np.arange(200), prefer=Tier.FAST)
        assert memory.used == [100, 100, 0]
        engine = _engine(memory, demotion="through")
        outcome = engine.apply_window(Decision(demote=np.arange(30)))
        # 30 pages moved fast->middle; the full middle tier first pushed
        # 30 of its own victims middle->bottom.
        assert outcome.demoted == 60
        assert memory.used == [70, 100, 30]
        assert _used_total(memory) == 200
        assert set(outcome.link_bytes) == {0, 1, 2}

    def test_demote_direct_skips_the_middle_tier(self):
        memory = _three_tier_memory(footprint=200, caps=(100, 100, 400))
        memory.allocate_first_touch(np.arange(200), prefer=Tier.FAST)
        engine = _engine(memory, demotion="direct")
        outcome = engine.apply_window(Decision(demote=np.arange(30)))
        assert outcome.demoted == 30
        assert memory.used == [70, 100, 30]
        # Only the fast and bottom links carried traffic.
        assert set(outcome.link_bytes) == {0, 2}

    def test_promotion_pulls_from_every_lower_tier(self):
        memory = _three_tier_memory(footprint=300, caps=(150, 100, 400))
        memory.allocate_first_touch(np.arange(300), prefer=Tier.FAST)
        move(memory, np.arange(100), 2, src=0)  # leave tier0 half-empty
        engine = _engine(memory)
        pages = np.concatenate([np.arange(150, 170), np.arange(250, 270)])
        outcome = engine.apply_window(Decision(promote=pages))
        assert outcome.promoted == 40
        assert _used_total(memory) == 300
        assert (memory.tier_of(pages) == 0).all()

    def test_two_tier_link_bytes_match_legacy_split(self):
        memory = TieredMemory(200, [100, 400])
        memory.allocate_first_touch(np.arange(150), prefer=Tier.FAST)
        engine = MigrationEngine(memory, MachineConfig())
        outcome = engine.apply_window(Decision(demote=np.arange(20)))
        assert outcome.link_bytes == {
            0: outcome.bytes_moved / 2.0,
            1: outcome.bytes_moved / 2.0,
        }


# -- end-to-end: empty middle tier reproduces the two-tier digests -----------------


def _digest_with_ratio_label(result, ratio_label):
    # The ratio string is an input label, not an output; rewrite it so
    # "1:0:4" digests can be compared against the "1:4" goldens.
    return content_hash(canonical(result_to_dict(dataclasses.replace(result, ratio=ratio_label))))


@pytest.mark.parametrize(
    "policy,workload",
    [("PACT", "gups"), ("Memtis", "bc-kron"), ("NoTier", "gups")],
)
def test_empty_middle_tier_reproduces_two_tier_digests(policy, workload):
    # DRAM -> (empty NUMA tier) -> CXL with ratio 1:0:4: the machine
    # elides the zero-capacity interior tier, so the run must be
    # bit-identical to the recorded two-tier 1:4 golden digest.
    topology = TierTopology(
        tiers=(TierDef(DRAM_SPEC), TierDef(NUMA_SPEC), TierDef(CXL_SPEC))
    )
    config = MachineConfig(topology=topology)
    result = run_policy(
        make_workload(workload, total_misses=2_000_000),
        make_policy(policy),
        ratio="1:0:4",
        config=config,
        seed=0,
    )
    assert _digest_with_ratio_label(result, "1:4") == GOLDEN_DIGESTS[(policy, workload, False, 0)]


# -- end-to-end: three live tiers --------------------------------------------------


def _three_tier_result(policy="PACT", demotion="through", topology="dram-cxlz-nvme"):
    config = MachineConfig(topology=make_topology(topology, demotion=demotion))
    return run_policy(
        make_workload("gups", total_misses=1_000_000),
        make_policy(policy),
        ratio="1:4:16",
        config=config,
        seed=0,
    )


class TestThreeTierEndToEnd:
    def test_run_reports_three_tiers_of_misses(self):
        result = _three_tier_result()
        assert set(result.tier_misses) == {0, 1, 2}
        assert all(type(tier) is int for tier in result.tier_misses)
        assert result.total_misses == pytest.approx(sum(result.tier_misses.values()))
        assert result.runtime_cycles > 0

    def test_demotion_mode_is_a_live_ablation(self):
        through = _three_tier_result(demotion="through")
        direct = _three_tier_result(demotion="direct")
        assert through.runtime_cycles != direct.runtime_cycles

    def test_result_round_trips_through_the_cache_codec(self):
        from repro.exp.cache import result_from_dict

        result = _three_tier_result()
        doc = result_to_dict(result)
        assert set(doc["tier_misses"]) == {"FAST", "SLOW", "TIER2"}
        back = result_from_dict(doc)
        assert back.tier_misses == result.tier_misses

    def test_grid_round_trips_through_the_result_store(self, tmp_path):
        # A three-tier grid through CampaignDriver into SQLite, then
        # served warm from the reopened store.
        spec = ExperimentSpec(
            workloads=[WorkloadSpec.registry("gups", total_misses=1_000_000)],
            policies=["PACT", "NoTier"],
            ratios=("1:4:16",),
            seeds=(0, 1),
            config=MachineConfig(topology=make_topology("dram-cxlz-nvme")),
        )
        try:
            tracestore.set_default_trace_store(tracestore.TraceStore(tmp_path / "traces"))
            cold_store = SqliteResultStore(tmp_path / "cache")
            cold = CampaignDriver(jobs=1, store=cold_store).run_specs([spec])
            cold_store.close()
            warm = CampaignDriver(
                jobs=1, store=SqliteResultStore(tmp_path / "cache")
            ).run_specs([spec])
        finally:
            tracestore.reset_default_trace_store()
        assert cold.ok and warm.ok
        assert cold.stats.executed == cold.stats.unique_requests
        assert warm.stats.executed == 0
        for req in spec.expand():
            result = warm[req]
            assert result_to_dict(result) == result_to_dict(cold[req]), req.display
            assert set(result.tier_misses) == {0, 1, 2}
            assert sum(result.tier_misses.values()) == result.total_misses


# -- observability gauge names -----------------------------------------------------


class TestTierGauges:
    """Every machine publishes one gauge vocabulary, ``machine/tier{i}/...``."""

    def _check(self, config, ratio):
        from repro.obs import Observability

        result = run_policy(
            make_workload("gups", total_misses=500_000),
            make_policy("PACT"),
            ratio=ratio,
            config=config,
            seed=0,
            obs=Observability(),
        )
        summary = result.metrics_summary
        for i in range(config.num_tiers):
            assert f"machine/tier{i}/util" in summary
            assert f"machine/tier{i}/occupancy" in summary
            assert f"machine/tier{i}/effective_latency_cycles" in summary
        assert f"machine/tier{config.num_tiers}/util" not in summary
        assert "machine/tier0/resident_fraction" in summary
        assert not any(name.startswith(("hw/", "mem/")) for name in summary)

    def test_default_pair_publishes_per_tier_gauges(self):
        self._check(MachineConfig(), "1:4")

    def test_n_tier_topology_publishes_per_tier_gauges(self):
        self._check(MachineConfig(topology=make_topology("dram-cxlz-nvme")), "1:4:16")


# -- CLI ---------------------------------------------------------------------------


class TestCliTopology:
    def test_three_tier_run_smoke(self, capsys, tmp_path):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "run",
                "--workload", "gups",
                "--policy", "PACT",
                "--ratio", "1:4:16",
                "--topology", "dram-cxlz-nvme",
                "--work", "500000",
                "--no-cache",
                "--trace-dir", str(tmp_path),
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "tier2 LLC misses" in text

    def test_list_includes_topologies(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert "topologies: " in out.getvalue()
        assert "dram-cxlz-nvme" in out.getvalue()
