"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a (workload x policy x ratio x seed x
contender) grid plus the machine configuration; ``expand()`` turns it
into concrete :class:`RunRequest` objects, automatically adding the
shared ideal / slow-only baseline runs each figure normalises against.
Requests are plain data: picklable (so they cross process boundaries)
and fingerprintable (so the cache layer can content-address them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.exp.cache import content_hash, run_fingerprint, workload_fingerprint
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload
from repro.workloads.mlc import MlcContender

#: Window budget matching :meth:`Machine.run`'s default.
DEFAULT_MAX_WINDOWS = 200_000

#: Request kinds: a policy run, or one of the two reference runs.
KIND_POLICY = "policy"
KIND_IDEAL = "ideal"
KIND_SLOW_ONLY = "slow_only"


@dataclass
class WorkloadSpec:
    """A buildable, fingerprintable workload description.

    Registry form (``name`` + kwargs, resolved via ``make_workload``)
    pickles anywhere and is what benches and the CLI should use.
    Factory form wraps an arbitrary zero-argument callable; it must be a
    module-level function for multiprocess execution (lambdas fall back
    to serial execution).
    """

    name: Optional[str] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    factory: Optional[Callable[[], Workload]] = None
    label: Optional[str] = None
    _descriptor: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False, init=False
    )

    def __post_init__(self) -> None:
        if (self.name is None) == (self.factory is None):
            raise ValueError("WorkloadSpec needs exactly one of name= or factory=")

    @classmethod
    def registry(cls, name: str, **kwargs) -> "WorkloadSpec":
        return cls(name=name, kwargs=kwargs)

    @classmethod
    def from_factory(
        cls, factory: Callable[[], Workload], label: Optional[str] = None
    ) -> "WorkloadSpec":
        return cls(factory=factory, label=label)

    def build(self) -> Workload:
        if self.factory is not None:
            return self.factory()
        from repro.workloads.suite import make_workload

        return make_workload(self.name, **self.kwargs)

    def descriptor(self) -> Dict[str, Any]:
        """Cache identity: the fingerprint of the built instance.

        Fingerprinting the *instance* (not the spec) means a registry
        spec and a factory producing identical parameters share cache
        entries -- and that engine-level baseline calls interoperate
        with runner-level ones.
        """
        if self._descriptor is None:
            self._descriptor = workload_fingerprint(self.build())
        return self._descriptor

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if self.name:
            return self.name
        return str(self.descriptor()["name"])


@dataclass
class PolicySpec:
    """Policy identity: registry name + constructor kwargs + display label."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @classmethod
    def of(cls, value: Union[str, "PolicySpec"]) -> "PolicySpec":
        return value if isinstance(value, PolicySpec) else cls(name=value)

    def build(self):
        from repro.baselines import make_policy

        return make_policy(self.name, **self.kwargs)

    def descriptor(self) -> Dict[str, Any]:
        from repro.exp.cache import canonical

        return {"name": self.name, "kwargs": canonical(self.kwargs)}

    @property
    def display(self) -> str:
        return self.label or self.name


@dataclass
class RunRequest:
    """One concrete simulation: everything needed to run and to cache it."""

    workload: WorkloadSpec
    policy: Optional[PolicySpec] = None
    ratio: str = "1:1"
    seed: int = 0
    config: Optional[MachineConfig] = None
    contender: Optional[MlcContender] = None
    max_windows: int = DEFAULT_MAX_WINDOWS
    #: Trace the run: it carries a :mod:`repro.obs` bundle, so its result
    #: holds the window trace, the final fast-tier pages and
    #: ``metrics_summary`` telemetry.
    trace: bool = False
    kind: str = KIND_POLICY

    def __post_init__(self) -> None:
        if self.kind == KIND_POLICY and self.policy is None:
            raise ValueError("policy runs need a PolicySpec")
        if isinstance(self.policy, str):
            self.policy = PolicySpec.of(self.policy)

    @classmethod
    def ideal(
        cls,
        workload: WorkloadSpec,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        contender: Optional[MlcContender] = None,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> "RunRequest":
        """The all-in-DRAM reference run (the slowdown denominator)."""
        return cls(
            workload=workload, config=config, seed=seed, contender=contender,
            max_windows=max_windows, kind=KIND_IDEAL,
        )

    @classmethod
    def slow_only(
        cls,
        workload: WorkloadSpec,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        contender: Optional[MlcContender] = None,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> "RunRequest":
        """The all-in-slow-tier reference run (the 'CXL' line)."""
        return cls(
            workload=workload, config=config, seed=seed, contender=contender,
            max_windows=max_windows, kind=KIND_SLOW_ONLY,
        )

    def fingerprint(self) -> Dict[str, Any]:
        is_policy = self.kind == KIND_POLICY
        return run_fingerprint(
            kind=self.kind,
            workload_fp=self.workload.descriptor(),
            policy_fp=self.policy.descriptor() if is_policy else None,
            # Reference runs override capacity, so the ratio is irrelevant
            # to them -- excluding it lets every ratio share one baseline.
            ratio=self.ratio if is_policy else None,
            seed=self.seed,
            config=self.config if self.config is not None else MachineConfig(),
            contender=self.contender,
            max_windows=self.max_windows,
            trace=self.trace,
        )

    @property
    def key(self) -> str:
        return content_hash(self.fingerprint())

    @property
    def display(self) -> str:
        who = self.policy.display if self.kind == KIND_POLICY else self.kind
        return f"{self.workload.display}/{who}@{self.ratio} seed={self.seed}"


def normalise_workloads(
    workloads: Union[Mapping[str, Any], Sequence[Any]],
) -> List[WorkloadSpec]:
    """Accept dicts of specs/factories/names, or plain sequences."""
    specs: List[WorkloadSpec] = []
    if isinstance(workloads, Mapping):
        items = workloads.items()
    else:
        items = [(None, w) for w in workloads]
    for label, value in items:
        if isinstance(value, WorkloadSpec):
            spec = value
            if label and not spec.label:
                spec.label = label
        elif isinstance(value, str):
            spec = WorkloadSpec.registry(value)
            spec.label = label or value
        elif callable(value):
            spec = WorkloadSpec.from_factory(value, label=label)
        else:
            raise TypeError(f"cannot interpret workload {value!r}")
        specs.append(spec)
    return specs


@dataclass
class ExperimentSpec:
    """A full experiment grid, declared rather than looped by hand."""

    workloads: Union[Mapping[str, Any], Sequence[Any]]
    policies: Sequence[Union[str, PolicySpec]] = ()
    ratios: Sequence[str] = ("1:1",)
    seeds: Sequence[int] = (0,)
    config: Optional[MachineConfig] = None
    contenders: Sequence[Optional[MlcContender]] = (None,)
    max_windows: int = DEFAULT_MAX_WINDOWS
    #: Trace every policy run in the grid (reference runs stay untraced,
    #: so their cache entries are shared with untraced experiments).
    trace: bool = False
    #: Emit the shared slow-only reference run for each (workload,
    #: seed, contender) combination exactly once, beside the ideal one
    #: every slowdown needs.
    include_slow_only: bool = True

    def workload_specs(self) -> List[WorkloadSpec]:
        return normalise_workloads(self.workloads)

    def policy_specs(self) -> List[PolicySpec]:
        return [PolicySpec.of(p) for p in self.policies]

    def expand(self) -> List[RunRequest]:
        """The request list: deduplicated baselines first, then the grid."""
        requests: List[RunRequest] = []
        wspecs = self.workload_specs()
        pspecs = self.policy_specs()
        for wspec in wspecs:
            for seed in self.seeds:
                for contender in self.contenders:
                    requests.append(
                        RunRequest.ideal(
                            wspec, config=self.config, seed=seed,
                            contender=contender, max_windows=self.max_windows,
                        )
                    )
                    if self.include_slow_only:
                        requests.append(
                            RunRequest.slow_only(
                                wspec, config=self.config, seed=seed,
                                contender=contender, max_windows=self.max_windows,
                            )
                        )
        for wspec in wspecs:
            for ratio in self.ratios:
                for pspec in pspecs:
                    for seed in self.seeds:
                        for contender in self.contenders:
                            requests.append(
                                RunRequest(
                                    workload=wspec,
                                    policy=pspec,
                                    ratio=ratio,
                                    seed=seed,
                                    config=self.config,
                                    contender=contender,
                                    max_windows=self.max_windows,
                                    trace=self.trace,
                                )
                            )
        return requests
