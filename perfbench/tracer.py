"""Layer attribution for the sweep benchmark, installed from outside ``src/``.

The simulator carries no spans of its own, so this module wraps the
public entry points of each ``repro`` module at runtime (class methods
on their class, module functions under every name they are bound to)
and restores the originals afterwards.  A wrapped call is a span; a
span's *self time* is its duration minus the time of the wrapped calls
it made, so self times over all layers add up to the time spent inside
the outermost wrapped calls and nothing is counted twice.

Two recorders share the patching machinery:

* :class:`PathRecorder` only counts (no clock reads): which code path a
  cold pass took -- lockstep group sizes and how many ``drawplan.attach``
  calls engaged a plan.  It stays installed during untraced passes.
* :class:`Tracer` times every layer in :func:`layer_targets`; it is
  installed only around traced passes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

_MISSING = object()


class Patches:
    """Replaced attributes and how to put each one back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, cls, attr: str, make: Callable) -> None:
        """Replace ``cls.attr`` (a function or property) with ``make(original)``."""
        own = cls.__dict__.get(attr, _MISSING)
        current = getattr(cls, attr) if own is _MISSING else own
        if isinstance(current, property):
            replacement = property(make(current.fget))
        else:
            replacement = make(current)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, own))

    def function(self, module, attr: str, make: Callable) -> None:
        """Replace a module function under every name it is bound to."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(mod, name, replacement)
                    self._undo.append((mod, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def _policy_layer(args) -> str:
    return f"baselines.{type(args[0]).name}.observe"


def _baseline_classes():
    """Every policy class outside PACT's own hierarchy that defines ``observe``."""
    from repro.core.pact import PactPolicy
    from repro.sim.policy_api import TieringPolicy

    found, todo = [], [TieringPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if issubclass(cls, PactPolicy) or cls is TieringPolicy:
            continue
        if "observe" in cls.__dict__:
            found.append(cls)
    return found


def layer_targets():
    """(layer, owner, attribute, is_method) for every timed entry point.

    ``layer`` is a string, or a callable of the call's arguments when the
    layer depends on the receiver (the per-class baseline breakdown).
    """
    from repro.core.pact import PactPolicy
    from repro.exp import runner
    from repro.exp.cache import ResultStore
    from repro.exp.service import CampaignDriver
    from repro.exp.spec import ExperimentSpec, RunRequest, WorkloadSpec
    from repro.exp.store import SqliteResultStore
    from repro.hw import drawplan
    from repro.hw.cha import ChaTorCounters
    from repro.hw.chmu import ChmuSampler
    from repro.hw.pebs import PebsSampler
    from repro.hw.perf import PerfCounters
    from repro.hw.stall import StallModel
    from repro.hw.substream import KeyedJitter, KeyedPebsSampler
    from repro.mem.tiered import TieredMemory
    from repro.sim.machine import Machine
    from repro.sim.migration import MigrationEngine
    from repro.sim.runbatch import MultiMachine
    from repro.workloads.tracestore import ReplayWorkload, TraceStore

    targets = [
        ("exp.driver", CampaignDriver, "run", True),
        ("exp.driver", runner, "group_requests", False),
        ("exp.expand", ExperimentSpec, "expand", True),
        ("exp.expand", RunRequest, "key", True),
        ("exp.expand", RunRequest, "fingerprint", True),
        ("exp.execute", runner, "execute_request", False),
        ("exp.execute", runner, "execute_request_group", False),
        ("exp.store_get", ResultStore, "get", True),
        ("exp.store_put", ResultStore, "put", True),
        ("exp.store_flush", SqliteResultStore, "flush", True),
        ("workloads.trace", TraceStore, "ensure_spec", True),
        ("workloads.build", WorkloadSpec, "build", True),
        ("workloads.next_window", ReplayWorkload, "next_window", True),
        ("sim.construct", Machine, "__init__", True),
        ("sim.loop", Machine, "run", True),
        ("sim.loop", MultiMachine, "run", True),
        ("sim.migrate", MigrationEngine, "apply_window", True),
        ("hw.attach", drawplan, "attach", False),
        ("hw.split", StallModel, "split_groups", True),
        ("hw.solve", StallModel, "solve", True),
        ("hw.solve_many", StallModel, "solve_many", True),
        ("hw.sample", PebsSampler, "draw", True),
        ("hw.sample", PebsSampler, "merge", True),
        ("hw.sample", PebsSampler, "sample", True),
        ("hw.sample", ChmuSampler, "sample", True),
        ("hw.sample", KeyedPebsSampler, "window_records", True),
        ("hw.sample", KeyedPebsSampler, "merge_window", True),
        ("hw.sample", KeyedPebsSampler, "merge_window_pos", True),
        ("hw.counters", ChaTorCounters, "advance", True),
        ("hw.counters", PerfCounters, "advance", True),
        ("hw.counters", KeyedJitter, "window_values", True),
        ("core.observe", PactPolicy, "observe", True),
        ("mem.touch", TieredMemory, "touch", True),
        ("mem.allocate", TieredMemory, "allocate_first_touch", True),
    ]
    targets += [(_policy_layer, cls, "observe", True) for cls in _baseline_classes()]
    return targets


class PathRecorder:
    """Counts the execution path of cold passes without timing anything."""

    def __init__(self) -> None:
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.group_sizes: List[int] = []
        self.attach_calls = 0
        self.attach_engaged = 0

    def install(self) -> "PathRecorder":
        from repro.exp import runner
        from repro.hw import drawplan

        def count_groups(fn):
            def group_requests(*args, **kwargs):
                units = fn(*args, **kwargs)
                self.group_sizes += [len(u) for u in units if isinstance(u, list)]
                return units

            return group_requests

        def count_attach(fn):
            def attach(*args, **kwargs):
                engaged = fn(*args, **kwargs)
                self.attach_calls += 1
                self.attach_engaged += bool(engaged)
                return engaged

            return attach

        self._patches.function(runner, "group_requests", count_groups)
        self._patches.function(drawplan, "attach", count_attach)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def record(self) -> Dict[str, object]:
        return {
            "lockstep_groups": sorted(self.group_sizes, reverse=True),
            "attach_engaged": self.attach_engaged,
            "attach_calls": self.attach_calls,
        }


class Tracer:
    """Self time, inclusive time and call counts per layer."""

    def __init__(self) -> None:
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []

    def install(self) -> "Tracer":
        for layer, owner, attr, is_method in layer_targets():
            make = lambda fn, layer=layer: self._wrap(layer, fn)
            if is_method:
                self._patches.method(owner, attr, make)
            else:
                self._patches.function(owner, attr, make)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, layer, fn):
        stack, depth = self._stack, self._depth
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter
        dynamic = callable(layer)

        def traced(*args, **kwargs):
            name = layer(args) if dynamic else layer
            depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[name] += elapsed - children
                calls[name] += 1
                depth[name] -= 1
                if depth[name] == 0:
                    incl_s[name] += elapsed
            return result

        return traced

    def snapshot(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
        }
