"""Golden ``RunResult`` digests: the hot-path optimisations must be exact.

The expected hashes below were recorded by running the *pre-optimisation*
simulator (commit 0bc9088, before the incremental tier accounting, top-k
candidate selection, and PEBS/traffic vectorisation) over a small
(policy x workload x THP x contender) matrix.  Every future run must
reproduce them bit-for-bit: same seeds in, same ``runtime_cycles``,
placements, migration counts, and serialised result out.  If an
intentional behaviour change breaks these, re-record the digests AND
bump ``CACHE_VERSION`` -- the two must move together, because cached
results from an older simulator would otherwise be served as current.
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

#: (policy, workload, thp, contender_threads) -> pre-optimisation digest.
GOLDEN_DIGESTS = {
    ("PACT", "bc-kron", False, 0): "c108a8b943090b51cee45c2d340a71d3acc1b3df7eb615cdabc39cab0771352b",
    ("PACT", "bc-kron", True, 0): "a7b803d506341ebbb28500766097f4f0f494e9a25b77b613a13b92f728d67f17",
    ("PACT", "bc-kron", False, 2): "6ef9f8e31c7561822c0cc6abfe859d0939841ebd50f81589ca733500996646eb",
    ("PACT", "gups", False, 0): "e78d25afa4061eddcff7afdb47dff1954af3afbeff3db68cbc680d522126c1f4",
    ("PACT", "gups", True, 0): "40737ae6bca2f0cc4058d509b832d469c662f51462fbf93841fe76c8528f087c",
    ("PACT", "gups", False, 2): "58f738280c7e380aa25cd15b8782252ab70d94c942ecdda5efb9533f3e8d4bfe",
    ("Memtis", "bc-kron", False, 0): "d53fe0f5c274d12ce58bfafbc835053f02afbf3814b01fae2be33943185731b1",
    ("Memtis", "bc-kron", True, 0): "ff9249e1c9191d2dc7ae54d17f4116f710db67b841c6efc0d292c2e191f34a11",
    ("Memtis", "bc-kron", False, 2): "e3e96c409eed213b484283b8f09c1284f123befa57753f5e8c17337403f77dc0",
    ("Memtis", "gups", False, 0): "02bd6aadf537bc4ac6108ce53f426f1b6d4efdefc38616303af99340fa4c6c02",
    ("Memtis", "gups", True, 0): "02bd6aadf537bc4ac6108ce53f426f1b6d4efdefc38616303af99340fa4c6c02",
    ("Memtis", "gups", False, 2): "275de98097addb48a446436fd81bba1d25fd36856b9e569bb3da6f3c6a34a984",
    ("NoTier", "bc-kron", False, 0): "92f9b045d0fc858b38ae16a1c14dfc8314c82bf0ae806f10b3ac1aea35a250d7",
    ("NoTier", "bc-kron", True, 0): "92f9b045d0fc858b38ae16a1c14dfc8314c82bf0ae806f10b3ac1aea35a250d7",
    ("NoTier", "bc-kron", False, 2): "70a73f084d6bb19fb9384bd69bf12bffa5370898b4b61479e0b10c24ef31206c",
    ("NoTier", "gups", False, 0): "8c351e95f6c5f2f16f6ffdaf99cb1398e3d5987d5910a8b8b342b5fb0ae499a2",
    ("NoTier", "gups", True, 0): "8c351e95f6c5f2f16f6ffdaf99cb1398e3d5987d5910a8b8b342b5fb0ae499a2",
    ("NoTier", "gups", False, 2): "8409211002a91ba06c6f4dd5157946d432030e1f050b90ac8e5e05ae6915bfe3",
    # The remaining six policies were pinned later, recorded at commit
    # 1985920 (before the touched-set build and the NBT/Nomad
    # intersections moved to sort-based set algebra).
    ("NBT", "bc-kron", False, 0): "8b59c263fe8b0d3f375dfd986e949daa803af8328987a3feb1fde862f5baec69",
    ("NBT", "gups", False, 0): "acfe03468f426f36945f860e029f25f5a496c77746ef263f17dc99201c07221c",
    ("TPP", "bc-kron", False, 0): "352375c8cc8679d4401629856a309d321c1e9a82c66c12a6e3e1c97f261aa4cb",
    ("TPP", "gups", False, 0): "6cf7311b5cc8a3f1786470d85ea8eaf4984b3dac1db666482fc70f382d02fed8",
    ("Nomad", "bc-kron", False, 0): "4bbf687c9f489386a51a613503df68c34f7f981e2deb8b7ea3f4669168150a7e",
    ("Nomad", "gups", False, 0): "314a96aa4d40414011110768b267e3f0d42f80fc3d0f36359ff43078f4980585",
    ("Colloid", "bc-kron", False, 0): "90f42773da57661375becf4116285fb02fd20fb04749d750e813e70f75619da3",
    ("Colloid", "gups", False, 0): "880065ccf5b5c433107d868d4fb916a6a90175edf531b83d3cc6b51b43f4aea3",
    ("Alto", "bc-kron", False, 0): "9f41e99e8054e0867366618257e2d70e51971de909e0082a3c6b95c30c338ef2",
    ("Alto", "gups", False, 0): "84768a54fd2020d176cdc43988b50972901828c56ac8a2ccf9e09a917455514a",
    ("Soar", "bc-kron", False, 0): "7d5fdb91f77611ab62898971206216d2ee51a11480fb96f032b1972d4ed29b67",
    ("Soar", "gups", False, 0): "6eb3d4ef170a481698d2f506e766dcd4e3c526aafe385dedc671a5db5b6ed158",
}

#: The same matrix under RNG schema 2 (counter-keyed substreams,
#: :mod:`repro.hw.substream`).  Schema 2 is a *different* draw
#: convention by design -- per-(seed, purpose, window) Philox keys
#: instead of sequential streams -- so these digests differ from
#: ``GOLDEN_DIGESTS`` yet must be every bit as stable: live, replayed,
#: and prestaged execution all have to reproduce them exactly.
GOLDEN_DIGESTS_SCHEMA2 = {
    ("Memtis", "bc-kron", False, 0): "72483878461f0d53f5d3e2a5c07b0812014d9e8e498e2b15418ba2587985dd14",
    ("Memtis", "bc-kron", False, 2): "a6e0bcabc1ad0ad98dae5eb56bf897d3c067e92ae3e3ae42f6208d425f8f63fa",
    ("Memtis", "bc-kron", True, 0): "0e7e72e4e2d1010b0820e53369d2723fd9a8f792f4227fdf2c8ecd652a54d7bd",
    ("Memtis", "gups", False, 0): "dc182507cf474119f3a19a2a8a16a13500660fb5a11bdca27f5abdb942af3245",
    ("Memtis", "gups", False, 2): "7f7c6820d77ed03f8670d0a549bc0e3213b306e1623ee8d60d72c1b1763349de",
    ("Memtis", "gups", True, 0): "dc182507cf474119f3a19a2a8a16a13500660fb5a11bdca27f5abdb942af3245",
    ("NoTier", "bc-kron", False, 0): "d4def1df6ca9f12d7eecb8e9e5e68d9936a2b4400f5704a4138ba556f9c50195",
    ("NoTier", "bc-kron", False, 2): "b739700df6a9245bdf934a9becf41bfb3e9f820c9e445682bc5108897810a432",
    ("NoTier", "bc-kron", True, 0): "d4def1df6ca9f12d7eecb8e9e5e68d9936a2b4400f5704a4138ba556f9c50195",
    ("NoTier", "gups", False, 0): "c723a78ed057c1de34f1fa4c7a6c2e88a0e186db242e37d35e6a7bc6aa3661ad",
    ("NoTier", "gups", False, 2): "edb03f98c389cfbc955d71600039393b4de73f6af8a3a304278cde0a96764f17",
    ("NoTier", "gups", True, 0): "c723a78ed057c1de34f1fa4c7a6c2e88a0e186db242e37d35e6a7bc6aa3661ad",
    ("PACT", "bc-kron", False, 0): "85ea1002d2bf39c8d795f2f5d4f3757c6c733f709bd8f84ff5b4170196075460",
    ("PACT", "bc-kron", False, 2): "22c93ecc479b0ced9c8c029b9c32e3978d826bf04d8f0ade5e6c9ff4662f7ffa",
    ("PACT", "bc-kron", True, 0): "2b585196bcbdff528a8c6ca3a4c04723b9af2747c54f1146999176db7240f1bf",
    ("PACT", "gups", False, 0): "10a700c7048d234fe131302aabaf233b755b02f447ecb07d8c1cf7c1b575e0a4",
    ("PACT", "gups", False, 2): "854214d10e6c4be26c574371d550c5e0eadf1b15a3b1b60ee56c5bc4220db62a",
    ("PACT", "gups", True, 0): "30dccb4e30e96946544885f6934242b8e8f34fa9f868141ad7b6e809191d6062",
}

#: Two pinned cache keys: request fingerprints are input-derived, so
#: they must survive performance work untouched (a key change silently
#: orphans every cached result).
GOLDEN_CACHE_KEYS = [
    (
        dict(workload="bc-kron", policy="PACT", ratio="1:4", seed=0, thp=False),
        "059342919c9350773556f3bf2a18fc2bc799e5fc9aab8211e301a8161b736e84",
    ),
    (
        dict(workload="gups", policy="Memtis", ratio="1:2", seed=1, thp=True),
        "128186336c41ce5c47acc188fb5838da14a9cf4da776a041b87cbec91486db60",
    ),
]


def result_digest(
    policy, workload, thp, contender_threads, trace_store=None, rng_schema=None
):
    config = MachineConfig(thp=thp, rng_schema=rng_schema)
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


#: Extended scenarios beyond the original 18-entry matrix: a CHMU-sampler
#: run (the CXL 3.2 hotness-monitoring path never covered above) and a
#: traced colocation run (multi-member traffic, per-member metrics, and
#: the window-trace serialisation, which pins the columnar recorder).
#: Recorded with the same pre-columnar simulator as ``GOLDEN_DIGESTS``.
GOLDEN_CHMU_DIGEST = "b8ad260258a3e5cb40b9674db35ba6e2685e4adef172b8e15f234ffb0a3fc8e0"
GOLDEN_COLOCATION_DIGEST = "516ecd91d8a20b2ea03a227249f79eff6bf16be40f4caeb0cc75b4d6e555fb2d"
GOLDEN_CHMU_DIGEST_SCHEMA2 = "74826f45978e894750e2b0058c63adadf8153d459d133023f0f48ca631233d07"
GOLDEN_COLOCATION_DIGEST_SCHEMA2 = "af7298151612fc9e08c45918bec6df99a0fcacece78ad1ae8c3a3df4b2f53ca6"


#: Three-tier runs on ``dram-cxlz-nvme`` (DRAM -> compressed CXL ->
#: NVMe) at 1:4:16, keyed by (policy, workload, topology, demotion,
#: thp).  Recorded at commit 4803497, while the per-hop migration
#: reference still shipped beside the fused apply.  The two
#: ``"through"`` runs plan nested cascade nodes in 7-8 of their 8
#: windows, so these digests pin the cascade path and the float
#: association of ``cost_cycles`` that ``MovePlan.program`` fixes.
GOLDEN_NTIER_DIGESTS = {
    ("PACT", "gups", "dram-cxlz-nvme", "through", False): "439654946c8b34b3b97a4d33daa35383547a8fbf4cfff5e661e97ff15a1184aa",
    ("TPP", "bc-kron", "dram-cxlz-nvme", "through", False): "45d9ac8fc3654cd9bd42fda28298847d071f06f40b05ea9dd1b4d79c30100ae5",
    ("PACT", "gups", "dram-cxlz-nvme", "direct", False): "eee5f81599e2c365ffacfd0f2106219cb6f0df369a8b79133d2e4da6e7d3d923",
    ("Memtis", "silo", "dram-cxlz-nvme", "through", True): "ea92a39ac756c746407c8468ec9bbfff5a1c99ba6b6a6aa2c813cca748cdbbcc",
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


def chmu_digest(trace_store=None, rng_schema=None):
    workload = make_workload("gups", total_misses=2_000_000)
    if trace_store is not None:
        workload = trace_store.replay(workload)
    result = run_policy(
        workload,
        make_policy("PACT", access_sampler="chmu"),
        ratio="1:4",
        config=MachineConfig(rng_schema=rng_schema),
        seed=0,
    )
    return content_hash(canonical(result_to_dict(result)))


def colocation_digest(trace_store=None, rng_schema=None):
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
        config=MachineConfig(rng_schema=rng_schema),
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
        # The digests above were recorded against CACHE_VERSION 2; a
        # version bump must come with re-recorded digests (and vice
        # versa: identical results need no bump).
        assert CACHE_VERSION == 2

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


class TestGoldenDigestsSchema2:
    """The counter-keyed schema: live draws reproduce the pinned hashes."""

    @pytest.mark.parametrize(
        "policy,workload,thp,contender",
        sorted(GOLDEN_DIGESTS_SCHEMA2),
        ids=lambda v: str(v),
    )
    def test_run_result_bit_identical(self, policy, workload, thp, contender):
        expected = GOLDEN_DIGESTS_SCHEMA2[(policy, workload, thp, contender)]
        assert (
            result_digest(policy, workload, thp, contender, rng_schema=2) == expected
        )

    def test_chmu_sampler_bit_identical(self):
        assert chmu_digest(rng_schema=2) == GOLDEN_CHMU_DIGEST_SCHEMA2

    def test_colocation_traced_bit_identical(self):
        assert colocation_digest(rng_schema=2) == GOLDEN_COLOCATION_DIGEST_SCHEMA2

    def test_schemas_draw_distinct_streams(self):
        # Sanity: schema 2 is a different convention, not a relabelling.
        # If the two matrices ever collide, the schema plumbing is being
        # ignored somewhere (e.g. the config normalisation ate the field).
        assert set(GOLDEN_DIGESTS_SCHEMA2.values()).isdisjoint(
            set(GOLDEN_DIGESTS.values())
        )


class TestGoldenDigestsSchema2Replayed:
    """Replay prestages every schema-2 draw; prestaged == live == pinned."""

    @pytest.mark.parametrize(
        "policy,workload,thp,contender",
        sorted(GOLDEN_DIGESTS_SCHEMA2),
        ids=lambda v: str(v),
    )
    def test_replay_bit_identical(self, policy, workload, thp, contender, trace_store):
        expected = GOLDEN_DIGESTS_SCHEMA2[(policy, workload, thp, contender)]
        assert (
            result_digest(
                policy, workload, thp, contender, trace_store=trace_store, rng_schema=2
            )
            == expected
        )

    def test_chmu_sampler_replay_bit_identical(self, trace_store):
        assert chmu_digest(trace_store=trace_store, rng_schema=2) == GOLDEN_CHMU_DIGEST_SCHEMA2

    def test_colocation_traced_replay_bit_identical(self, trace_store):
        assert (
            colocation_digest(trace_store=trace_store, rng_schema=2)
            == GOLDEN_COLOCATION_DIGEST_SCHEMA2
        )
