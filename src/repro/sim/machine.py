"""The machine: wires a workload, tiered memory, hardware, and a policy.

One :class:`Machine` simulates one run.  Time advances in sampling
windows; each window the machine

1. pulls the workload's traffic (every page was placed before window 0),
2. splits traffic by page placement and solves ground-truth stalls
   (with bandwidth contention from the app, any MLC contender, and last
   window's migration copies),
3. draws PEBS samples and counter jitter from keyed substreams (one
   per (seed, purpose), positioned at the window's counter; a replayed
   run reads a draw another run of its stream already made) and
   advances the CHA/TOR and perf counters,
4. hands the policy an :class:`Observation` and applies its
   :class:`Decision` through the migration engine,
5. charges migration costs: synchronously for hint-fault designs,
   partially (interference factor) for background migration threads.

Runtime is the sum of window durations plus synchronous migration cost;
the paper's slowdown metric compares it to an ideal all-DRAM run.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.arrays import sorted_unique
from repro.hw import drawplan
from repro.hw.cha import ChaTorCounters
from repro.hw.chmu import ChmuSampler
from repro.hw.pebs import PebsBatch, PebsSampler
from repro.hw.perf import PerfCounters
from repro.hw.stall import StallModel
from repro.hw.substream import KeyedJitter
from repro.obs import NULL_OBS, Observability
from repro.mem.page import Tier
from repro.mem.tiered import TieredMemory
from repro.sim.config import MachineConfig
from repro.sim.metrics import RunResult, WindowRecord
from repro.sim.migration import MigrationEngine, MigrationOutcome
from repro.sim.policy_api import Decision, Observation, TieringPolicy
from repro.workloads.base import Workload
from repro.workloads.mlc import MlcContender
from repro.workloads.tracestore import ReplayWorkload

#: Duration guess for the first window's contender traffic (20 ms).
_INITIAL_WINDOW_CYCLES = 44_000_000.0


class Machine:
    """One simulated run of ``workload`` under ``policy``."""

    def __init__(
        self,
        workload: Workload,
        policy: TieringPolicy,
        config: Optional[MachineConfig] = None,
        ratio: str = "1:1",
        fast_capacity_override: Optional[int] = None,
        contender: Optional[MlcContender] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ):
        self.workload = workload
        self.policy = policy
        self.config = config if config is not None else MachineConfig()
        self.ratio = ratio
        self.contender = contender
        #: Observability bundle: an enabled one records metrics and the
        #: window trace; without one the run carries the no-op singleton.
        self.obs = obs if obs is not None else NULL_OBS

        footprint = workload.footprint_pages
        caps = self.config.tier_capacities(footprint, ratio)
        if fast_capacity_override is not None:
            caps[0] = fast_capacity_override
        specs = self.config.tier_specs()
        costs = self.config.topology.page_frame_costs(footprint)
        # Elide zero-capacity *interior* tiers before building anything:
        # an empty middle tier contributes no placement, no stall share,
        # and no counter stream, so collapsing it keeps the run
        # bit-identical to the equivalent shorter hierarchy (per-tier
        # keyed draws included).  Tier 0 and the bottom tier always stay.
        keep = [i for i in range(len(caps)) if caps[i] > 0 or i == 0 or i == len(caps) - 1]
        if contender is not None:
            tier = int(contender.tier)
            if tier not in keep:
                where = (
                    f"which has no capacity at ratio {ratio} and is elided "
                    "from the machine"
                    if 0 <= tier < len(caps)
                    else f"but the machine has tiers 0..{len(caps) - 1}"
                )
                raise ValueError(f"contender pinned to tier {tier}, {where}")
            #: The contender's link as a code of the built machine
            #: (``contender.tier`` names a tier of the configured hierarchy).
            self._contender_tier = keep.index(tier)
        caps = [caps[i] for i in keep]
        specs = [specs[i] for i in keep]
        costs = [costs[i] for i in keep]
        self.num_tiers = len(caps)
        self.memory = TieredMemory(
            footprint_pages=footprint,
            capacities=caps,
            page_frame_costs=costs,
        )
        self.stall_model = StallModel(
            specs,
            freq_ghz=self.config.freq_ghz,
            obs=self.obs if self.obs.enabled else None,
        )
        self.cha = ChaTorCounters(num_tiers=self.num_tiers)
        self.perf = PerfCounters(num_tiers=self.num_tiers)
        # A replayed run draws through its stream's memo, which every run
        # replaying the stream shares; live traffic has no stream
        # identity, so it draws every window itself.
        memo = workload.trace_data.memo if isinstance(workload, ReplayWorkload) else None
        #: Keyed counter-noise substreams (None when noise is off).
        noise = self.config.counter_noise
        self._cha_jitter = KeyedJitter(seed, "cha", noise, memo) if noise > 0.0 else None
        self._perf_jitter = KeyedJitter(seed, "perf", noise, memo) if noise > 0.0 else None
        self._chmu = policy.access_sampler == "chmu"
        if self._chmu:
            self.pebs = ChmuSampler(footprint_pages=footprint)
        else:
            self.pebs = PebsSampler(
                seed=seed,
                rate=self.config.pebs_rate,
                sampled_codes=range(0 if policy.sample_fast_tier else 1, self.num_tiers),
                num_tiers=self.num_tiers,
                report_latency=policy.wants_pebs_latency,
                memo=memo,
            )
        self.engine = MigrationEngine(
            self.memory, self.config, obs=self.obs if self.obs.enabled else None
        )

        self._pending_overhead_cycles = 0.0
        #: Link bytes carried into the next window, by tier code.
        self._pending_bytes = [0.0] * self.num_tiers
        self._last_duration = _INITIAL_WINDOW_CYCLES
        self._last_perf = self.perf.read()
        self._last_tor = self.cha.read()
        self._runtime_cycles = 0.0
        self._window = 0
        self._empty_windows = 0

        workload.reset()
        policy.attach(self)
        self._preallocate()
        #: Where each window's shares come from: one
        #: :mod:`repro.hw.drawplan` source per run, chosen by placement
        #: regime once placement is settled.
        self._source = drawplan.attach(self)

    def _preallocate(self) -> None:
        """Place the whole footprint before the measured region starts.

        All evaluated applications allocate their memory during a load
        phase (graph construction, model load, DB population) that
        precedes the measured run, so placement is settled up front:
        either by the policy's static plan (Soar) or by first-touch in
        the workload's allocation order.  The window loop allocates
        nothing, so an order that leaves a page unplaced is an error.
        """
        plan = self.policy.placement_plan(self.workload, self.memory)
        order = plan if plan is not None else self.workload.allocation_order()
        self.memory.allocate_first_touch(order, prefer=self.policy.alloc_prefer)
        unplaced = self.memory.footprint_pages - sum(self.memory.used)
        if unplaced:
            raise ValueError(
                f"workload {self.workload.name!r} leaves {unplaced} of its "
                f"{self.memory.footprint_pages} pages unplaced before window 0: "
                "its allocation order must cover the footprint"
            )

    # -- main loop ---------------------------------------------------------------

    def run(self, max_windows: int = 200_000) -> RunResult:
        """Simulate until the workload finishes (or ``max_windows``)."""
        while not self.workload.done and self._window < max_windows:
            self.step()
        return self.result()

    def step(self) -> None:
        """Advance the simulation by one sampling window."""
        traffic = self.workload.next_window()
        if not traffic.num_groups:
            self._step_empty_window()
            return
        touched, shares, extra_bytes, extra_cycles = self._prepare_window(traffic)
        with self.obs.profile("stall_solve"):
            outcome = self.stall_model.solve(
                shares, traffic.compute_cycles, extra_bytes=extra_bytes, extra_cycles=extra_cycles
            )
        self._finish_window(traffic, touched, outcome)

    def _prepare_window(self, traffic):
        """Everything before the stall solve: the touched-page set, the
        (group, tier) split, and contention inputs.

        Split out of :meth:`step` so the multi-run driver
        (:mod:`repro.sim.runbatch`) can prepare every run's window, solve
        them all in one batched call, then finish each run."""
        # The sorted touched-page set feeds only the Observation's
        # touched_slow/touched_fast fields, so it is built only for
        # policies that read them.  It is one sort + run-flag pass:
        # about 0.1 ms on a 12k-entry window, ~17x under numpy's
        # hash-table np.unique (DESIGN.md §3b).
        touched = None
        if self.policy.needs_touched_pages:
            touched = sorted_unique(traffic.pages[traffic.counts > 0])

        shares = self._source.shares(self._window, traffic)

        extra_bytes = self._pending_bytes
        if self.contender is not None:
            extra_bytes[self._contender_tier] += self.contender.bytes_for_duration(
                self._last_duration, self.config.freq_ghz
            )
        extra_cycles = self._pending_overhead_cycles
        self._pending_overhead_cycles = 0.0
        self._pending_bytes = [0.0] * self.num_tiers
        return touched, shares, extra_bytes, extra_cycles

    def _finish_window(self, traffic, touched, outcome) -> None:
        """Everything after the stall solve: counters, observation,
        policy decision, migration, and window bookkeeping."""
        # Sample after the solve so TPEBS-style latency reporting sees
        # each share's effective (loaded) latency; the PEBS processing
        # overhead is charged to the next window (the dedicated thread
        # drains records asynchronously, §4.6).  The hw_draw child span
        # covers the RNG stage (PEBS gap draws, keyed jitter); hw_merge
        # covers the record merge and the counter advances, so sampler
        # regressions are attributable per stage.
        with self.obs.profile("hw_observe"):
            with self.obs.profile("hw_draw"):
                pebs_drawn, cha_jitter, perf_jitter = self._draw_hw(traffic, outcome.shares)
            with self.obs.profile("hw_merge"):
                pebs_batch = self._merge_hw(pebs_drawn, traffic, outcome.shares)
                self._pending_overhead_cycles += pebs_batch.overhead_cycles
                self.cha.advance(outcome.shares, jitter=cha_jitter)
                self.perf.advance(outcome, jitter=perf_jitter)
        # Page activity feeds only reclaim, which a static run never
        # issues, so static runs skip the touch.
        if not self.policy.static_placement:
            self.memory.touch(
                traffic.pages,
                self._window,
                counts=self._source.touch_counts(self._window, traffic.counts),
            )

        obs = self._observe(pebs_batch, touched, outcome.duration_cycles)
        with self.obs.profile("policy_observe"):
            decision = self.policy.observe(obs)
        with self.obs.profile("migration_apply"):
            migration = self._apply(decision)
        if self.policy.static_placement and (migration.promoted or migration.demoted):
            raise RuntimeError(
                f"policy {self.policy.name!r} declares static_placement "
                f"but migrated pages in window {self._window}"
            )

        duration = outcome.duration_cycles
        duration += self.policy.window_overhead_cycles(obs)
        migration.cost_cycles *= self.policy.migration_cost_multiplier
        if self.policy.synchronous_migration:
            duration += migration.cost_cycles
        else:
            interference = migration.cost_cycles * self.config.migration.background_interference
            self._pending_overhead_cycles += interference
        if migration.bytes_moved > 0:
            # Charge each hop's copy traffic to the links it actually
            # crossed (on two tiers this is the historical half/half
            # split of ``bytes_moved``, bit for bit).
            for tier, nbytes in migration.link_bytes.items():
                if nbytes > 0.0:
                    self._pending_bytes[tier] += nbytes

        self._runtime_cycles += duration
        self._last_duration = duration
        if self.obs.enabled:
            self._publish_window(outcome, migration, duration)
            self._record(traffic.phase, outcome, migration, duration)
        self._window += 1

    def _step_empty_window(self) -> None:
        """One window in which the workload emitted no traffic.

        Idle phases (and workload stubs that stall between bursts) must
        still advance the window clock -- otherwise ``run()``'s
        ``max_windows`` budget never binds and the loop spins forever --
        and must still pay overheads already charged to this window
        (PEBS drain, background-migration interference).  Pending link
        bytes from last window's migration copies are *kept* for the
        next window with traffic, where contention can be modelled.
        """
        duration = self._pending_overhead_cycles
        self._pending_overhead_cycles = 0.0
        self._runtime_cycles += duration
        self._window += 1
        self._empty_windows += 1
        if self.obs.enabled:
            self.obs.count("machine/windows")
            self.obs.count("machine/empty_windows")
            self.obs.observe("machine/window_duration_cycles", duration)

    # -- internals ----------------------------------------------------------------

    def _draw_hw(self, traffic, shares):
        """The window's RNG stage: PEBS records and jitter factors.

        Returns ``(pebs_drawn, cha_jitter, perf_jitter)``.  Every value
        comes from a keyed substream at this window's counter and reads
        only trace-determined inputs, so live and replayed runs, serial
        and lockstep ones, draw identical values.  ``pebs_drawn`` is
        None unless the policy samples through PEBS (CHMU accumulates in
        the merge stage).
        """
        w = self._window
        T = self.num_tiers
        pebs_drawn = cha_jitter = perf_jitter = None
        if self._cha_jitter is not None and shares.n:
            pairs = self._cha_jitter.window_values(w, 2 * traffic.num_groups * T).reshape(-1, 2)
            cha_jitter = pairs[shares.group_index * T + shares.tier_codes]
        if self._perf_jitter is not None:
            perf_jitter = self._perf_jitter.window_values(w, 2 * T)
        if self.policy.needs_pebs and not self._chmu:
            pebs_drawn = self.pebs.draw(
                w, traffic.counts, traffic.group_ptr, traffic.load_fraction
            )
        return pebs_drawn, cha_jitter, perf_jitter

    def _merge_hw(self, pebs_drawn, traffic, shares) -> PebsBatch:
        """The window's merge stage: turn draws into a PebsBatch."""
        if not self.policy.needs_pebs:
            return PebsBatch.empty(self.pebs.rate)
        pages, placement = traffic.pages, self.memory.placement
        if self._chmu:
            # RNG-free accumulation of the entries in the device's tier.
            return self.pebs.sample(pages, traffic.counts, placement[pages])
        return self.pebs.merge(pebs_drawn, pages, placement, shares=shares)

    def _observe(
        self, pebs_batch: PebsBatch, touched: Optional[np.ndarray], duration: float
    ) -> Observation:
        perf_now = self.perf.read()
        tor_now = self.cha.read()
        last_tor = self._last_tor
        perf_delta = perf_now.delta(self._last_perf)
        tor_mlp = [tor_now.mlp_since(last_tor, t) for t in range(self.num_tiers)]
        tor_occ = [a - b for a, b in zip(tor_now.occupancy, last_tor.occupancy)]
        tor_busy = [a - b for a, b in zip(tor_now.busy_cycles, last_tor.busy_cycles)]
        self._last_perf = perf_now
        self._last_tor = tor_now
        obs = Observation(
            window=self._window,
            window_cycles=duration,
            perf=perf_delta,
            tor_mlp=tor_mlp,
            pebs=pebs_batch,
            memory=self.memory,
            tor_occupancy_delta=tor_occ,
            tor_busy_delta=tor_busy,
            progress=self.workload.progress,
            num_tiers=self.num_tiers,
        )
        if touched is not None:
            # touched is None only when the policy declared (via
            # needs_touched_pages) that it never reads these fields.
            # "Slow" means any tier below tier 0.
            placement = self.memory.placement[touched]
            obs.touched_slow = touched[placement >= 1]
            obs.touched_fast = touched[placement == int(Tier.FAST)]
        return obs

    def _apply(self, decision: Decision) -> MigrationOutcome:
        if decision.empty:
            return MigrationOutcome()
        total = self.engine.apply_window(decision)
        self.policy.on_migration(total)
        return total

    def _publish_window(self, outcome, migration, duration) -> None:
        """Publish this window's loop-health metrics into the registry."""
        o = self.obs
        o.count("machine/windows")
        # Zero-delta so the empty-window count is always reported, even
        # (especially) when it is zero.
        o.count("machine/empty_windows", 0.0)
        o.observe("machine/window_duration_cycles", duration)
        o.gauge("migrate/promoted_last_window", migration.promoted)
        o.gauge("migrate/demoted_last_window", migration.demoted)
        o.gauge("machine/tier0/resident_fraction", self.memory.resident_fraction(Tier.FAST))
        for i, load in enumerate(outcome.tier_loads):
            o.gauge(f"machine/tier{i}/util", load.utilisation)
            o.gauge(f"machine/tier{i}/effective_latency_cycles", load.effective_latency_cycles)
            o.gauge(f"machine/tier{i}/occupancy", self.memory.occupancy_fraction(i))

    def _record(self, phase, outcome, migration, duration) -> None:
        loads = outcome.tier_loads
        # "Slow" aggregates every tier below tier 0; mlp_slow reports the
        # nearest lower tier (the CXL link on the paper's testbed).
        slow_misses = 0.0
        for load in loads[1:]:
            slow_misses += load.misses
        label_stalls: Dict[str, float] = {}
        shares = outcome.shares
        stalls = shares.misses_f * shares.unit_stall_cycles
        for i, label in enumerate(shares.labels):
            prefix = label.split(":", 1)[0] if label else ""
            label_stalls[prefix] = label_stalls.get(prefix, 0.0) + float(stalls[i])
        # Counts are stored as ints (the slow sum is a float) and the rest
        # as Python floats, so the trace's JSON keeps its exact bytes.
        self.obs.recorder.append(
            WindowRecord(
                window=int(self._window),
                duration_cycles=float(duration),
                stall_cycles=float(outcome.total_stall_cycles),
                slow_misses=int(slow_misses),
                fast_misses=int(loads[0].misses),
                promoted=int(migration.promoted),
                demoted=int(migration.demoted),
                mlp_slow=float(loads[1].mlp),
                mlp_fast=float(loads[0].mlp),
                fast_resident_fraction=float(self.memory.resident_fraction(Tier.FAST)),
                phase=phase,
                policy_debug=self.policy.debug_info(),
                label_stalls=label_stalls,
                metrics=self.obs.registry.gauges(),
            )
        )

    def result(self) -> RunResult:
        perf = self.perf.read()
        return RunResult(
            workload=self.workload.name,
            policy=self.policy.name,
            ratio=self.ratio,
            runtime_cycles=self._runtime_cycles,
            windows=self._window,
            promoted=self.engine.total_promoted,
            demoted=self.engine.total_demoted,
            migration_cost_cycles=self.engine.total_cost_cycles,
            total_stall_cycles=sum(perf.stall_cycles),
            total_misses=sum(perf.llc_misses),
            tier_misses=dict(enumerate(perf.llc_misses)),
            empty_windows=self._empty_windows,
            trace=self.obs.recorder.records() if self.obs.enabled else None,
            workload_metrics=self.workload.final_metrics(),
            fast_pages=(
                np.flatnonzero(self.memory.placement == int(Tier.FAST)).tolist()
                if self.obs.enabled
                else None
            ),
            metrics_summary=self.obs.summary(),
        )
