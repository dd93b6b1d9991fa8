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
solves into one :meth:`~repro.hw.stall.StallModel.solve_many` call.
Members whose whole run was pre-solved at construction (static no-PEBS
replay, :func:`repro.hw.drawplan.plan_window_solves`) take their
window from that plan, as they do solo, and stay out of the batch.
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
  window count), non-looping, so the runs stay in lockstep;
* observability and tracing are off (the batched solver publishes no
  fixed-point residual gauge);
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
        if not isinstance(ref, ReplayWorkload) or ref.loop:
            raise ValueError("multi-run execution needs non-looping replay workloads")
        model0 = first.stall_model
        for m in self.machines:
            wl = m.workload
            if not isinstance(wl, ReplayWorkload) or wl.loop:
                raise ValueError("multi-run execution needs non-looping replay workloads")
            if (
                wl.replay_fingerprint != ref.replay_fingerprint
                or wl.trace_windows != ref.trace_windows
            ):
                raise ValueError("all runs must replay the same recorded trace")
            if m.obs.enabled or m.trace_enabled:
                raise ValueError("multi-run execution requires observability off")
            if (
                m.num_tiers != first.num_tiers
                or m.stall_model.spec != model0.spec
                or m.stall_model.freq_ghz != model0.freq_ghz
                or m.stall_model.prefetch_traffic_factor != model0.prefetch_traffic_factor
            ):
                raise ValueError("all runs must share one tier topology and clock")

    def step(self) -> None:
        """Advance every run by one window.

        Members without a whole-run solve plan share one batched solve.
        """
        machines = self.machines
        traffics = [m.workload.next_window() for m in machines]
        # One trace drives all runs, so windows are empty together.
        if not traffics[0].groups:
            for m in machines:
                m._step_empty_window()
            return
        preps = [m._prepare_window(t) for m, t in zip(machines, traffics)]
        outcomes = [m._planned_outcome(p[4], p[5]) for m, p in zip(machines, preps)]
        live = [r for r, outcome in enumerate(outcomes) if outcome is None]
        if live:
            solved = machines[0].stall_model.solve_many(
                [preps[r][3] for r in live],
                [traffics[r].compute_cycles for r in live],
                [preps[r][4] for r in live],
                [preps[r][5] for r in live],
            )
            for r, outcome in zip(live, solved):
                outcomes[r] = outcome
        for m, traffic, prep, outcome in zip(machines, traffics, preps, outcomes):
            m._finish_window(traffic, prep[0], prep[1], prep[2], outcome)

    def run(self, max_windows: int = 200_000) -> List[RunResult]:
        """Simulate all runs to completion; results in machine order."""
        lead = self.machines[0]
        while not lead.workload.done and lead._window < max_windows:
            self.step()
        return [m.result() for m in self.machines]


__all__ = ["MultiMachine"]
