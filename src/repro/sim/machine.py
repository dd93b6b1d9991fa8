"""The machine: wires a workload, tiered memory, hardware, and a policy.

One :class:`Machine` simulates one run.  Time advances in sampling
windows; each window the machine

1. pulls the workload's traffic and first-touch-allocates new pages,
2. splits traffic by page placement and solves ground-truth stalls
   (with bandwidth contention from the app, any MLC contender, and last
   window's migration copies),
3. draws PEBS samples and counter jitter from keyed substreams (one
   per (seed, purpose), positioned at the window's counter) and advances
   the CHA/TOR and perf counters,
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
from repro.hw.pebs import PebsBatch, PebsSampler, group_layout
from repro.hw.perf import PerfCounters
from repro.hw.stall import StallModel
from repro.hw.substream import KeyedJitter
from repro.obs import Observability, resolve as resolve_obs
from repro.mem.page import Tier, tier_key
from repro.mem.tiered import TieredMemory
from repro.sim.config import MachineConfig
from repro.sim.metrics import RunResult
from repro.sim.migration import MigrationEngine, MigrationOutcome
from repro.sim.policy_api import Decision, Observation, TieringPolicy
from repro.workloads.base import Workload
from repro.workloads.mlc import MlcContender

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
        trace: bool = False,
        obs: Optional[Observability] = None,
    ):
        self.workload = workload
        self.policy = policy
        self.config = config if config is not None else MachineConfig()
        self.ratio = ratio
        self.contender = contender
        #: Observability bundle: an explicit ``obs`` wins, else
        #: ``trace=True`` builds an enabled one, else the no-op singleton.
        self.obs = resolve_obs(obs, trace)
        self.trace_enabled = self.obs.wants_trace

        footprint = workload.footprint_pages
        caps = self.config.tier_capacities(footprint, ratio)
        if fast_capacity_override is not None:
            caps[0] = fast_capacity_override
        specs = self.config.tier_specs()
        if self.config.topology is not None:
            costs = self.config.topology.page_frame_costs(footprint)
        else:
            costs = [None] * len(specs)
        # Elide zero-capacity *interior* tiers before building anything:
        # an empty middle tier contributes no placement, no stall share,
        # and no counter stream, so collapsing it keeps the run
        # bit-identical to the equivalent shorter hierarchy (per-tier
        # keyed draws included).  Tier 0 and the bottom tier always stay.
        keep = [i for i in range(len(caps)) if caps[i] > 0 or i == 0 or i == len(caps) - 1]
        caps = [caps[i] for i in keep]
        specs = [specs[i] for i in keep]
        costs = [costs[i] for i in keep]
        self.num_tiers = len(caps)
        #: Ordered tier keys (Tier enums for tiers 0/1, ints beyond).
        self.tiers = tuple(tier_key(t) for t in range(self.num_tiers))
        self.memory = TieredMemory(
            footprint_pages=footprint,
            capacities=caps,
            specs=specs,
            page_frame_costs=costs,
        )
        self.stall_model = StallModel(
            specs,
            freq_ghz=self.config.freq_ghz,
            obs=self.obs if self.obs.enabled else None,
        )
        self.cha = ChaTorCounters(num_tiers=self.num_tiers)
        self.perf = PerfCounters(num_tiers=self.num_tiers)
        #: Keyed counter-noise substreams (None when noise is off).
        noise = self.config.counter_noise
        self._cha_jitter = KeyedJitter(seed, "cha", noise) if noise > 0.0 else None
        self._perf_jitter = KeyedJitter(seed, "perf", noise) if noise > 0.0 else None
        self._chmu = policy.access_sampler == "chmu"
        if self._chmu:
            self.pebs = ChmuSampler(footprint_pages=footprint)
        else:
            self.pebs = PebsSampler(
                seed=seed,
                rate=self.config.pebs_rate,
                sampled_codes=[int(t) for t in self._pebs_tiers()],
                num_tiers=self.num_tiers,
                report_latency=policy.wants_pebs_latency,
            )
        self.engine = MigrationEngine(
            self.memory, self.config, obs=self.obs if self.obs.enabled else None
        )

        self._pending_overhead_cycles = 0.0
        self._pending_bytes: Dict[Tier, float] = {}
        self._last_duration = _INITIAL_WINDOW_CYCLES
        self._last_perf = self.perf.read()
        self._last_tor = self.cha.read()
        self._runtime_cycles = 0.0
        self._window = 0
        self._empty_windows = 0
        #: Whole-run plans (:mod:`repro.hw.drawplan`): a pre-split
        #: ShareBatch per recorded window, precomputed CHMU batches, and
        #: (for static no-PEBS runs without a contender) the pre-solved
        #: per-window hardware outcomes.  All stay ``None`` outside
        #: static replayed runs.
        self._split_plan = None
        self._pebs_plan = None
        self._solve_plan = None
        #: Dynamic-replay prestage: trace-determined split/touch inputs
        #: (:mod:`repro.hw.drawplan`).
        self._entry_meta = None
        #: This window's prestaged float counts from the entry meta
        #: plan, consumed by the touch in :meth:`_finish_window`.
        self._window_meta = None
        #: Static runs whose policy never reads activity/LRU state skip
        #: the per-window touch -- nothing observable depends on it.
        self._skip_touch = bool(
            policy.static_placement and not policy.reads_page_activity
        )
        #: Only the CHMU sampler walks per-share page lists; every other
        #: consumer of a window's ShareBatch (the solver, the TOR/perf
        #: counters, the PEBS merge, the trace recorder) reads row
        #: columns only, so the split can skip building the page/count
        #: partition entirely.
        self._misses_only_split = not (policy.needs_pebs and self._chmu)

        workload.reset()
        policy.attach(self)
        self._preallocate()
        drawplan.attach(self)

    def _preallocate(self) -> None:
        """Place the footprint before the measured region starts.

        All evaluated applications allocate their memory during a load
        phase (graph construction, model load, DB population) that
        precedes the measured run, so placement is settled up front:
        either by the policy's static plan (Soar) or by first-touch in
        the workload's allocation order.
        """
        plan = self.policy.placement_plan(self.workload, self.memory)
        order = plan if plan is not None else self.workload.allocation_order()
        self.memory.allocate_first_touch(order, prefer=self.policy.alloc_prefer)

    # -- main loop ---------------------------------------------------------------

    def run(self, max_windows: int = 200_000) -> RunResult:
        """Simulate until the workload finishes (or ``max_windows``)."""
        while not self.workload.done and self._window < max_windows:
            self.step()
        return self.result()

    def step(self) -> None:
        """Advance the simulation by one sampling window."""
        traffic = self.workload.next_window()
        if not traffic.groups:
            self._step_empty_window()
            return
        all_pages, all_counts, touched, shares, extra_bytes, extra_cycles = (
            self._prepare_window(traffic)
        )
        outcome = self._planned_outcome(extra_bytes, extra_cycles)
        if outcome is None:
            with self.obs.profile("stall_solve"):
                outcome = self.stall_model.solve(
                    shares, traffic.compute_cycles, extra_bytes=extra_bytes, extra_cycles=extra_cycles
                )
        self._finish_window(traffic, all_pages, all_counts, touched, outcome)

    def _planned_outcome(self, extra_bytes, extra_cycles):
        """This window's pre-solved hardware outcome, or None to solve live.

        Static no-PEBS replay solves the whole run up front: the extra
        inputs are provably zero every window, and are checked anyway
        so that a surprise carry-over falls back to a live solve.
        """
        if self._solve_plan is not None and extra_cycles == 0.0 and not extra_bytes:
            return self._solve_plan.outcome_for(self._window)
        return None

    def _prepare_window(self, traffic):
        """Everything before the stall solve: traffic concat, first-touch
        allocation, the (group, tier) split, and contention inputs.

        Split out of :meth:`step` so the multi-run driver
        (:mod:`repro.sim.runbatch`) can prepare every run's window, solve
        them all in one batched call, then finish each run."""
        # Concatenate the window's traffic once and reuse it for both
        # the touched-page set (first-touch allocation, the policy's
        # Observation) and the LRU/activity touch in _finish_window --
        # ``traffic.touched_pages()`` would redo the same concatenation.
        groups = traffic.groups
        if traffic.flat_pages is not None and traffic.flat_counts is not None:
            # Replayed windows are contiguous slices of one flat trace
            # column; reuse the slice instead of re-concatenating.
            all_pages, all_counts = traffic.flat_pages, traffic.flat_counts
        elif len(groups) == 1:
            all_pages, all_counts = groups[0].pages, groups[0].counts
        else:
            all_pages = np.concatenate([g.pages for g in groups])
            all_counts = np.concatenate([g.counts for g in groups])
        # The sorted touched-page set exists for two consumers: first-touch
        # allocation and the Observation's touched_slow/touched_fast
        # fields.  Once the footprint is fully allocated (normally right
        # after _preallocate) and the policy declares it never reads the
        # touched fields, the build is skipped.  It is one sort + run-flag
        # pass: about 0.1 ms on a 12k-entry window, ~17x under numpy's
        # hash-table np.unique (DESIGN.md §3b).
        if self.memory.fully_allocated and not self.policy.needs_touched_pages:
            touched = None
        else:
            touched = sorted_unique(all_pages[all_counts > 0])
            self.memory.allocate_first_touch(touched, prefer=self.policy.alloc_prefer)

        if self._split_plan is not None:
            # Static placement under replay: the whole run was split up
            # front; this window's ShareBatch is a pre-sliced view.
            shares = self._split_plan.window_batch(self._window)
            self._window_meta = None
        else:
            entry_tiers = self.memory.placement[all_pages]
            meta = self._entry_meta
            if meta is not None:
                key_base, counts_f = meta.window(self._window)
                shares = self.stall_model.split_groups(
                    traffic.groups,
                    self.memory.placement,
                    pages=all_pages,
                    counts=all_counts,
                    tiers=entry_tiers,
                    misses_only=self._misses_only_split,
                    key_base=key_base,
                    counts_f=counts_f,
                    counts_positive=meta.counts_positive,
                    assume_allocated=self.memory.fully_allocated,
                )
                self._window_meta = counts_f
            else:
                shares = self.stall_model.split_groups(
                    traffic.groups,
                    self.memory.placement,
                    pages=all_pages,
                    counts=all_counts,
                    tiers=entry_tiers,
                    misses_only=self._misses_only_split,
                )
                self._window_meta = None

        extra_bytes = dict(self._pending_bytes)
        if self.contender is not None:
            for tier, nbytes in self.contender.extra_bytes(
                self._last_duration, self.config.freq_ghz
            ).items():
                extra_bytes[tier] = extra_bytes.get(tier, 0.0) + nbytes
        extra_cycles = self._pending_overhead_cycles
        self._pending_overhead_cycles = 0.0
        self._pending_bytes = {}
        return all_pages, all_counts, touched, shares, extra_bytes, extra_cycles

    def _finish_window(self, traffic, all_pages, all_counts, touched, outcome) -> None:
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
                pebs_drawn, cha_jitter, perf_jitter = self._draw_hw(
                    traffic, all_counts, outcome.shares
                )
            with self.obs.profile("hw_merge"):
                pebs_batch = self._merge_hw(pebs_drawn, all_pages, outcome.shares)
                self._pending_overhead_cycles += pebs_batch.overhead_cycles
                self.cha.advance(outcome.shares, jitter=cha_jitter)
                self.perf.advance(outcome, jitter=perf_jitter)
        # Count-zero entries are deliberately kept: they stamp
        # ``last_touch`` (as they always have) while adding no activity.
        if not self._skip_touch:
            # The prestaged float counts (when replay provides them)
            # save the per-window int->float conversion.
            wm = self._window_meta
            self.memory.touch(
                all_pages,
                self._window,
                counts=all_counts if wm is None else wm,
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
            for tier in self.tiers:
                nbytes = migration.link_bytes.get(int(tier), 0.0)
                if nbytes > 0.0:
                    self._pending_bytes[tier] = self._pending_bytes.get(tier, 0.0) + nbytes

        self._runtime_cycles += duration
        self._last_duration = duration
        if self.obs.enabled:
            self._publish_window(outcome, migration, duration)
        if self.trace_enabled:
            self._record(traffic.phase, outcome, migration, obs, duration)
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

    def _pebs_tiers(self):
        # Lower tiers first (nearest to farthest), then the fast tier if
        # the policy samples it -- the two-tier order was (SLOW, FAST).
        if self.policy.sample_fast_tier:
            return self.tiers[1:] + (self.tiers[0],)
        return self.tiers[1:]

    def _draw_hw(self, traffic, all_counts, shares):
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
            pairs = self._cha_jitter.window_values(
                w, 2 * len(traffic.groups) * T
            ).reshape(-1, 2)
            cha_jitter = pairs[shares.group_index * T + shares.tier_codes]
        if self._perf_jitter is not None:
            perf_jitter = self._perf_jitter.window_values(w, 2 * T)
        if self.policy.needs_pebs and not self._chmu:
            group_ptr, group_lf = group_layout(traffic.groups)
            pebs_drawn = self.pebs.draw(w, all_counts, group_ptr, group_lf)
        return pebs_drawn, cha_jitter, perf_jitter

    def _merge_hw(self, pebs_drawn, all_pages, shares) -> PebsBatch:
        """The window's merge stage: turn draws into a PebsBatch."""
        if not self.policy.needs_pebs:
            return PebsBatch.empty(self.pebs.rate)
        if pebs_drawn is not None:
            return self.pebs.merge(
                pebs_drawn, all_pages, self.memory.placement, shares=shares
            )
        if self._pebs_plan is not None:
            # Static replay: the CHMU epochs were drained up front.
            return self._pebs_plan.batch_for(self._window)
        # CHMU: RNG-free accumulation over the partitioned split.
        return self.pebs.sample(shares, tiers=self._pebs_tiers())

    def _observe(
        self, pebs_batch: PebsBatch, touched: Optional[np.ndarray], duration: float
    ) -> Observation:
        perf_now = self.perf.read()
        tor_now = self.cha.read()
        perf_delta = perf_now.delta(self._last_perf)
        tor_mlp = {tier: tor_now.mlp_since(self._last_tor, tier) for tier in self.tiers}
        tor_occ = {
            tier: tor_now.occupancy[tier] - self._last_tor.occupancy[tier]
            for tier in self.tiers
        }
        tor_busy = {
            tier: tor_now.busy_cycles[tier] - self._last_tor.busy_cycles[tier]
            for tier in self.tiers
        }
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
        if self.config.topology is None:
            # Default pair: keep the historical gauge names (dashboards
            # and the trace-digest tests pin them).
            o.gauge(
                "machine/fast_resident_fraction", self.memory.resident_fraction(Tier.FAST)
            )
            for tier, tag in ((Tier.FAST, "fast"), (Tier.SLOW, "slow")):
                load = outcome.tier_loads[tier]
                o.gauge(f"hw/util_{tag}", load.utilisation)
                o.gauge(f"hw/effective_latency_{tag}_cycles", load.effective_latency_cycles)
                used = self.memory.used[tier]
                cap = self.memory.capacity[tier]
                o.gauge(f"mem/occupancy_{tag}", used / cap if cap > 0 else 0.0)
        else:
            o.gauge("machine/tier0/resident_fraction", self.memory.resident_fraction(Tier.FAST))
            for i, tier in enumerate(self.tiers):
                load = outcome.tier_loads[tier]
                o.gauge(f"machine/tier{i}/util", load.utilisation)
                o.gauge(f"machine/tier{i}/effective_latency_cycles", load.effective_latency_cycles)
                o.gauge(f"machine/tier{i}/occupancy", self.memory.occupancy_fraction(i))

    def _record(self, phase, outcome, migration, obs, duration) -> None:
        loads = outcome.tier_loads
        # "Slow" aggregates every tier below tier 0; mlp_slow reports the
        # nearest lower tier (the CXL link on the paper's testbed).
        slow_misses = 0.0
        for tier in self.tiers[1:]:
            slow_misses += loads[tier].misses
        label_stalls: Dict[str, float] = {}
        shares = outcome.shares
        stalls = shares.misses_f * shares.unit_stall_cycles
        for i, label in enumerate(shares.labels):
            prefix = label.split(":", 1)[0] if label else ""
            label_stalls[prefix] = label_stalls.get(prefix, 0.0) + float(stalls[i])
        self.obs.recorder.append_window(
            window=self._window,
            duration_cycles=duration,
            stall_cycles=outcome.total_stall_cycles,
            slow_misses=slow_misses,
            fast_misses=loads[self.tiers[0]].misses,
            promoted=migration.promoted,
            demoted=migration.demoted,
            mlp_slow=loads[self.tiers[1]].mlp,
            mlp_fast=loads[self.tiers[0]].mlp,
            fast_resident_fraction=self.memory.resident_fraction(Tier.FAST),
            phase=phase,
            policy_debug=self.policy.debug_info(),
            label_stalls=label_stalls,
            metrics=self.obs.window_metrics(),
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
            total_stall_cycles=sum(perf.stall_cycles.values()),
            total_misses=sum(perf.llc_misses.values()),
            tier_misses=dict(perf.llc_misses),
            empty_windows=self._empty_windows,
            trace=self.obs.recorder.records() if self.trace_enabled else None,
            workload_metrics=self.workload.final_metrics(),
            fast_pages=(
                np.flatnonzero(self.memory.placement == int(Tier.FAST)).tolist()
                if self.trace_enabled
                else None
            ),
            metrics_summary=self.obs.summary(),
        )
