"""Multi-run SoA simulation: R machines over one trace in lockstep.

A campaign sweep spends most of its wall-clock re-simulating the same
(workload, policy) pair under different seeds and capacity ratios.  All
of those runs replay the *same* recorded trace, so their window loops
are structurally identical: every run pulls the same window, splits it
by its own placement, and solves an independent fixed point.  The only
cross-window coupling (pending migration bytes, PEBS overhead, the
contender's duration feedback) is *per run* -- there is no coupling
across runs at all.

:class:`MultiMachine` exploits that: it steps R fully-constructed
:class:`~repro.sim.machine.Machine` instances window by window, keeping
each machine's prepare/finish phases (placement, counters, keyed draws,
policy) exactly as they run solo, but fusing the R per-window stall
solves into one :meth:`~repro.hw.stall.StallModel.solve_many` call;
every member joins it, static and dynamic placement alike.
Every run's result is **bit-identical** to running its machine alone --
the property tests assert it -- so multi-run execution is purely an
execution strategy, invisible to caches and digests.

Members carry no sequential RNG streams through the loop: every
sampler and jitter draw is keyed by each member's own (seed, purpose,
window) (:mod:`repro.hw.substream`), so lockstep grouping, member
order, and serial execution all consume the same keyed values by
construction.

Constraints (a :class:`ValueError` asks the caller to fall back to
serial execution):

* every machine replays the same recorded trace (same fingerprint and
  window count), so the runs stay in lockstep;
* observability is off (the batched solver publishes no fixed-point
  residual gauge, and no member records a trace);
* identical tier count, tier specs, and clock, so one solver serves all.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.machine import Machine
from repro.sim.metrics import RunResult


class MultiMachine:
    """Lockstep executor for runs that replay one recorded trace."""

    def __init__(self, machines: Sequence[Machine]):
        if not machines:
            raise ValueError("MultiMachine needs at least one machine")
        self.machines = list(machines)
        self._validate()

    def _validate(self) -> None:
        from repro.workloads.tracestore import ReplayWorkload

        first = self.machines[0]
        ref = first.workload
        if not isinstance(ref, ReplayWorkload):
            raise ValueError("multi-run execution needs replay workloads")
        model0 = first.stall_model
        for m in self.machines:
            wl = m.workload
            if not isinstance(wl, ReplayWorkload):
                raise ValueError("multi-run execution needs replay workloads")
            if (
                wl.replay_fingerprint != ref.replay_fingerprint
                or wl.trace_windows != ref.trace_windows
            ):
                raise ValueError("all runs must replay the same recorded trace")
            if m.obs.enabled:
                raise ValueError("multi-run execution requires observability off")
            if (
                m.num_tiers != first.num_tiers
                or m.stall_model.spec != model0.spec
                or m.stall_model.freq_ghz != model0.freq_ghz
                or m.stall_model.prefetch_traffic_factor != model0.prefetch_traffic_factor
            ):
                raise ValueError("all runs must share one tier topology and clock")

    def step(self) -> None:
        """Advance every run by one window: one batched solve for all."""
        machines = self.machines
        traffics = [m.workload.next_window() for m in machines]
        # One trace drives all runs, so windows are empty together.
        if not traffics[0].num_groups:
            for m in machines:
                m._step_empty_window()
            return
        preps = [m._prepare_window(t) for m, t in zip(machines, traffics)]
        outcomes = machines[0].stall_model.solve_many(
            [p[1] for p in preps],
            [t.compute_cycles for t in traffics],
            [p[2] for p in preps],
            [p[3] for p in preps],
        )
        for m, traffic, prep, outcome in zip(machines, traffics, preps, outcomes):
            m._finish_window(traffic, prep[0], outcome)

    def run(self, max_windows: int = 200_000) -> List[RunResult]:
        """Simulate all runs to completion; results in machine order."""
        lead = self.machines[0]
        while not lead.workload.done and lead._window < max_windows:
            self.step()
        return [m.result() for m in self.machines]


__all__ = ["MultiMachine"]
