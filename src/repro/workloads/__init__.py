"""Workload generators for the paper's evaluation suite and studies."""

from repro.workloads.base import (
    POINTER_CHASE_MLP,
    STREAMING_MLP,
    Workload,
    region_group,
    spread_counts,
    subset_group,
    zipf_weights,
)
from repro.workloads.colocation import ColocatedWorkload
from repro.workloads.corpus import SyntheticCorpusWorkload, generate_corpus
from repro.workloads.gpt2 import Gpt2Inference
from repro.workloads.graph import GRAPHS, GraphWorkload, make_graph_workload
from repro.workloads.gups import Gups
from repro.workloads.masim import Masim
from repro.workloads.mlc import MlcContender
from repro.workloads.redis_ycsb import RedisYcsbC
from repro.workloads.silo import Silo
from repro.workloads.spec import Bwaves, Deepsjeng, Xz
from repro.workloads.suite import ALL_WORKLOADS, EVAL_WORKLOADS, make_workload

__all__ = [
    "ALL_WORKLOADS",
    "Bwaves",
    "ColocatedWorkload",
    "Deepsjeng",
    "EVAL_WORKLOADS",
    "GRAPHS",
    "Gpt2Inference",
    "GraphWorkload",
    "Gups",
    "Masim",
    "MlcContender",
    "POINTER_CHASE_MLP",
    "RedisYcsbC",
    "STREAMING_MLP",
    "Silo",
    "SyntheticCorpusWorkload",
    "Workload",
    "Xz",
    "generate_corpus",
    "make_graph_workload",
    "make_workload",
    "region_group",
    "spread_counts",
    "subset_group",
    "zipf_weights",
]
