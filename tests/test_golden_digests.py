"""Golden ``RunResult`` digests: the hot-path optimisations must be exact.

The expected hashes below pin a small (policy x workload x THP x
contender) matrix.  Every run must reproduce them bit-for-bit: same
seeds in, same ``runtime_cycles``, placements, migration counts, and
serialised result out -- live and replayed alike.  If an intentional
behaviour change breaks these, first show it equal in law
(``benchmarks/ensemble_check.py``), then re-record the digests AND bump
``CACHE_VERSION`` -- the two must move together, because cached results
from an older simulator would otherwise be served as current.
"""

from __future__ import annotations

import pytest

from repro.baselines import make_policy
from repro.exp.cache import CACHE_VERSION, canonical, content_hash, result_to_dict
from repro.exp.spec import PolicySpec, RunRequest, WorkloadSpec
from repro.mem.page import Tier
from repro.sim.config import MachineConfig
from repro.sim.engine import run_policy
from repro.workloads import make_workload
from repro.workloads.mlc import MlcContender

#: (policy, workload, thp, contender_threads) -> digest.  Re-recorded
#: once, on top of commit d1d8819, when PEBS sampling became one keyed
#: geometric-gap draw over each window's miss stream and counter jitter
#: moved to keyed substreams; ``benchmarks/ensemble_check.py`` found the
#: 13-workload x 9-policy x 16-seed ensemble equal in law before the
#: re-pin (EXPERIMENTS.md).
GOLDEN_DIGESTS = {
    ("PACT", "bc-kron", False, 0): "64b7207c7bfd8d1080c8375fffffd55c057d5f8383223fd7f32369d920e65d1f",
    ("PACT", "bc-kron", True, 0): "7a591d304cdf6516462dbd7ad589d9d91274fc6a0e8e402aede0d8c5aa1f0e57",
    ("PACT", "bc-kron", False, 2): "3aa119603a0e0ad1cad97a4d9c9908bd040ca54017f648a54991ca268783540f",
    ("PACT", "gups", False, 0): "8279a09a224ae27fdad521d51671e5eb53a41ab9eda4d45fcd6202f4f495c050",
    ("PACT", "gups", True, 0): "4dd3bd6116b1da401afc04eb9f25302d7e94bb4f235da17af0dfb055a9a237bf",
    ("PACT", "gups", False, 2): "63286ae556cb0c3ac91948e8c3857ce9a40db0c9a9d82e0a56e46a982cafd1d6",
    ("Memtis", "bc-kron", False, 0): "68e0724449f3e047072795f0a93e1a0f30130e159cbc1cb8a510e5c55bd27e8d",
    ("Memtis", "bc-kron", True, 0): "5e00401f8c4484a4d7ada58e8548d53cd305a2869ac8ced3918f51cec61ba9c0",
    ("Memtis", "bc-kron", False, 2): "cb3ae2a7571b6b57e81ca1041f8b04ef7b510cf8ab038bd032118559b5102070",
    ("Memtis", "gups", False, 0): "85786e9f8e36997463ab2850a15ae2208714db7c4dfd02b5e404aea647190b57",
    ("Memtis", "gups", True, 0): "85786e9f8e36997463ab2850a15ae2208714db7c4dfd02b5e404aea647190b57",
    ("Memtis", "gups", False, 2): "f768d9a276ebd47723cbb1bfb4ca35603eb505bb4badf57f7f775a4dbf6cb942",
    ("NoTier", "bc-kron", False, 0): "d4def1df6ca9f12d7eecb8e9e5e68d9936a2b4400f5704a4138ba556f9c50195",
    ("NoTier", "bc-kron", True, 0): "d4def1df6ca9f12d7eecb8e9e5e68d9936a2b4400f5704a4138ba556f9c50195",
    ("NoTier", "bc-kron", False, 2): "b739700df6a9245bdf934a9becf41bfb3e9f820c9e445682bc5108897810a432",
    ("NoTier", "gups", False, 0): "c723a78ed057c1de34f1fa4c7a6c2e88a0e186db242e37d35e6a7bc6aa3661ad",
    ("NoTier", "gups", True, 0): "c723a78ed057c1de34f1fa4c7a6c2e88a0e186db242e37d35e6a7bc6aa3661ad",
    ("NoTier", "gups", False, 2): "edb03f98c389cfbc955d71600039393b4de73f6af8a3a304278cde0a96764f17",
    ("NBT", "bc-kron", False, 0): "b971fcc11ba03cf18fecea27245713a6cd94a0d39ba67a4c08b542bd5a4c6611",
    ("NBT", "gups", False, 0): "54487bdff8138f2174ae9e57152f85b587fc129c00285071dcd1fec778469175",
    ("TPP", "bc-kron", False, 0): "16ff11615cf29f583ccea6ffa529e5fb5f3fb95de7f50482b837b6e87688e8e1",
    ("TPP", "gups", False, 0): "fc665e7e81306d9011c6755d9a5314aea07ca0830dd27e0d7bc14e7398404a70",
    ("Nomad", "bc-kron", False, 0): "90a746ce6376807345c8e898a6356971656cd9a1482f94f745bc434d34bdf201",
    ("Nomad", "gups", False, 0): "6770fff7156fb334219764ef9b0ef31a7d54de79b978f8bd4ec75b2cf8a4e85e",
    ("Colloid", "bc-kron", False, 0): "4670f8bb105c63231ead32c10ad32fac086116a7eb4cb1b25971aac819e3c3fd",
    ("Colloid", "gups", False, 0): "89ca2b80d2f178bacc3a49958dcd0297cf64480517629bfc0bd270e89940fb24",
    ("Alto", "bc-kron", False, 0): "43d2e8b5fd8f57ffc6700e12016349f03fa7d58c14532d09c49138294bd37655",
    ("Alto", "gups", False, 0): "4cfeba726b6ef58ca398a938da6bbc44467dafa634b884ee2959bc4961226176",
    ("Soar", "bc-kron", False, 0): "c2df8fbce53d03916be29c474069beaad2167768596fd2ee9a97f598015b4589",
    ("Soar", "gups", False, 0): "efe6e9d7cfa0f465258bbb51281f81463d5aaa2688be61e2e1c50d44c0584f2c",
}

#: Two pinned cache keys: request fingerprints are input-derived, so
#: they must survive performance work untouched (a key change silently
#: orphans every cached result).
GOLDEN_CACHE_KEYS = [
    (
        dict(workload="bc-kron", policy="PACT", ratio="1:4", seed=0, thp=False),
        "a9532da41cf3d7ab4c2ef52affe05cc6b7bc30078821bf290711ad27f9689845",
    ),
    (
        dict(workload="gups", policy="Memtis", ratio="1:2", seed=1, thp=True),
        "df6186d4a022dec03ea332c1f2808d9009bd73ed5fa8cccd75b3694261c74a1e",
    ),
]


def result_digest(policy, workload, thp, contender_threads, trace_store=None):
    config = MachineConfig(thp=thp)
    contender = (
        MlcContender(threads=contender_threads, tier=Tier.SLOW)
        if contender_threads
        else None
    )
    instance = make_workload(workload, total_misses=2_000_000)
    if trace_store is not None:
        instance = trace_store.replay(instance)
    result = run_policy(
        instance,
        make_policy(policy),
        ratio="1:4",
        config=config,
        seed=0,
        contender=contender,
    )
    return content_hash(canonical(result_to_dict(result)))


#: Extended scenarios beyond the policy matrix: a CHMU-sampler run (the
#: CXL 3.2 hotness-monitoring path) and a traced colocation run
#: (multi-member traffic, per-member metrics, and the window-trace
#: serialisation, which pins the columnar recorder).
GOLDEN_CHMU_DIGEST = "74826f45978e894750e2b0058c63adadf8153d459d133023f0f48ca631233d07"
GOLDEN_COLOCATION_DIGEST = "20361f9f2f3c64f9b6c09f3df4c1c1f87ecda39942196ecbedc4c9a65a1a8970"


#: Three-tier runs on ``dram-cxlz-nvme`` (DRAM -> compressed CXL ->
#: NVMe) at 1:4:16, keyed by (policy, workload, topology, demotion,
#: thp).  Re-recorded with ``GOLDEN_DIGESTS``.  The two
#: ``"through"`` runs plan nested cascade nodes in 7-8 of their 8
#: windows, so these digests pin the cascade path and the float
#: association of ``cost_cycles`` that ``MovePlan.program`` fixes.
GOLDEN_NTIER_DIGESTS = {
    ("PACT", "gups", "dram-cxlz-nvme", "through", False): "be57df5e64b704ea62cdd8b3086a8cafb65cdfa707a0a91a4526a27d1d101014",
    ("TPP", "bc-kron", "dram-cxlz-nvme", "through", False): "d800e90ea8c34dc4d38935eff48281f689c4b53849f819d9e1250a72593362e4",
    ("PACT", "gups", "dram-cxlz-nvme", "direct", False): "bb19357774c0513aa7156b8a7f6bc87a0ca722153a222872316665394e144084",
    ("Memtis", "silo", "dram-cxlz-nvme", "through", True): "b4934d65de70fb39b81dfde6f30dd300558a629ad3ea6725c9dc7b43417933cf",
}


def ntier_digest(policy, workload, topology, demotion, thp, trace_store=None):
    from repro.mem.topology import make_topology

    config = MachineConfig(thp=thp, topology=make_topology(topology, demotion=demotion))
    instance = make_workload(workload, total_misses=2_000_000)
    if trace_store is not None:
        instance = trace_store.replay(instance)
    result = run_policy(
        instance, make_policy(policy), ratio="1:4:16", config=config, seed=0
    )
    return content_hash(canonical(result_to_dict(result)))


def chmu_digest(trace_store=None):
    workload = make_workload("gups", total_misses=2_000_000)
    if trace_store is not None:
        workload = trace_store.replay(workload)
    result = run_policy(
        workload,
        make_policy("PACT", access_sampler="chmu"),
        ratio="1:4",
        config=MachineConfig(),
        seed=0,
    )
    return content_hash(canonical(result_to_dict(result)))


def colocation_digest(trace_store=None):
    from repro.workloads import ColocatedWorkload, Masim

    workload = ColocatedWorkload(
        [
            Masim(
                pattern="sequential",
                footprint_pages=6_144,
                total_misses=1_000_000,
                misses_per_window=160_000,
                seed=41,
            ),
            Masim(
                pattern="random",
                footprint_pages=6_144,
                total_misses=1_000_000,
                misses_per_window=95_000,
                seed=42,
            ),
        ]
    )
    if trace_store is not None:
        workload = trace_store.replay(workload)
    result = run_policy(
        workload,
        make_policy("PACT"),
        ratio="1:1",
        config=MachineConfig(),
        seed=8,
        trace=True,
    )
    return content_hash(canonical(result_to_dict(result)))


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "policy,workload,thp,contender", sorted(GOLDEN_DIGESTS), ids=lambda v: str(v)
    )
    def test_run_result_bit_identical(self, policy, workload, thp, contender):
        expected = GOLDEN_DIGESTS[(policy, workload, thp, contender)]
        assert result_digest(policy, workload, thp, contender) == expected

    def test_chmu_sampler_bit_identical(self):
        assert chmu_digest() == GOLDEN_CHMU_DIGEST

    def test_colocation_traced_bit_identical(self):
        assert colocation_digest() == GOLDEN_COLOCATION_DIGEST

    @pytest.mark.parametrize("key", sorted(GOLDEN_NTIER_DIGESTS), ids=lambda v: str(v))
    def test_ntier_bit_identical(self, key):
        assert ntier_digest(*key) == GOLDEN_NTIER_DIGESTS[key]

    def test_cache_version_pinned(self):
        # The digests above were recorded against CACHE_VERSION 3; a
        # version bump must come with re-recorded digests (and vice
        # versa: identical results need no bump).
        assert CACHE_VERSION == 3

    @pytest.mark.parametrize("params,expected", GOLDEN_CACHE_KEYS, ids=["pact", "memtis"])
    def test_cache_keys_stable(self, params, expected):
        request = RunRequest(
            workload=WorkloadSpec.registry(params["workload"], total_misses=2_000_000),
            policy=PolicySpec(name=params["policy"]),
            ratio=params["ratio"],
            seed=params["seed"],
            config=MachineConfig(thp=params["thp"]),
        )
        assert content_hash(request.fingerprint()) == expected


@pytest.fixture(scope="module")
def trace_store():
    """One in-memory trace store shared across the replay matrix.

    Each distinct workload is recorded exactly once; the 18-scenario
    matrix then replays those recordings, which is precisely the
    record-once/replay-many contract the digests must pin.
    """
    from repro.workloads.tracestore import TraceStore

    return TraceStore()


class TestGoldenDigestsReplayed:
    """The same matrix through record -> replay: bit-identical or bust."""

    @pytest.mark.parametrize(
        "policy,workload,thp,contender", sorted(GOLDEN_DIGESTS), ids=lambda v: str(v)
    )
    def test_replay_bit_identical(self, policy, workload, thp, contender, trace_store):
        expected = GOLDEN_DIGESTS[(policy, workload, thp, contender)]
        assert (
            result_digest(policy, workload, thp, contender, trace_store=trace_store)
            == expected
        )

    def test_chmu_sampler_replay_bit_identical(self, trace_store):
        assert chmu_digest(trace_store=trace_store) == GOLDEN_CHMU_DIGEST

    def test_colocation_traced_replay_bit_identical(self, trace_store):
        assert colocation_digest(trace_store=trace_store) == GOLDEN_COLOCATION_DIGEST

    @pytest.mark.parametrize("key", sorted(GOLDEN_NTIER_DIGESTS), ids=lambda v: str(v))
    def test_ntier_replay_bit_identical(self, key, trace_store):
        assert ntier_digest(*key, trace_store=trace_store) == GOLDEN_NTIER_DIGESTS[key]

    def test_store_records_each_workload_once(self, trace_store):
        # Re-running a scenario must hit the existing recording, not
        # record again: record-once is what makes replay worth having.
        before = trace_store.stats()
        result_digest("PACT", "gups", False, 0, trace_store=trace_store)
        result_digest("NoTier", "gups", False, 0, trace_store=trace_store)
        after = trace_store.stats()
        assert after["records"] <= before["records"] + 1
        assert after["memory_hits"] >= before["memory_hits"] + 1
