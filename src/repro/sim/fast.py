"""Vectorised engine for *oblivious* algorithms.

Both randomized algorithms studied in the paper — the Kowalski–Pelc stage
algorithm and BGI Decay — as well as the round-robin and selective-family
deterministic baselines are *oblivious*: a node's decision to transmit in
slot ``t`` depends only on ``(t, label, wake slot, coin flips)``, never on
received message contents.  For such algorithms the channel can be resolved
with one sparse matrix-vector product per slot, which makes the large
parameter sweeps of EXPERIMENTS.md feasible in pure Python.

One engine lives here: :class:`BatchedFastEngine` runs ``T`` independent
Monte-Carlo trials at once, state lifted to ``(T, n)``; one gather over
the transmitters' edges (one sparse product, once transmitters are
dense) per slot resolves the channel for *every* trial simultaneously.
It is the workhorse of :func:`run_broadcast_batch` and the sweep runner,
and a single run (:func:`run_broadcast_fast`) is its one-trial batch.

*Adaptive* algorithms — the paper's token algorithms, whose decisions do
depend on message contents — cannot be vectorised this way, but they have
their own fast path: the event-driven engine in :mod:`repro.sim.event`,
driven by ``Protocol.quiet_until`` idle hints.  Both engine families
resolve the channel from the same precompiled topology,
:class:`repro.sim.channel.ChannelKernel` — this module uses its sparse
``adjacency`` views and its batched hit counts, the event engine its CSR
neighbour gather.

Semantics are identical to :class:`repro.sim.engine.SynchronousEngine`
(verified per-node, per-slot by ``tests/sim/test_differential.py``):
exactly-one reception, half-duplex, no spontaneous transmissions, nodes
woken in slot ``t`` first act in ``t + 1``, and — because transmission
coins are slot-indexed and derived from the same
:mod:`repro.sim.coins` helpers all engines share — the *same coin flips*
for the same ``(seed, label, step)``.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Protocol as TypingProtocol, Sequence, runtime_checkable

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ChannelKernel
from .coins import CoinSource, derive_trial_seeds
from .errors import ConfigurationError
from .faults import (
    CompiledFaults,
    FaultCounters,
    FaultPlan,
    apply_delivery_faults,
    compile_faults,
    derive_fault_seed,
)
from .network import RadioNetwork
from .guard import check_memory_budget
from .run import (
    BroadcastResult,
    _layer_times_for,
    _record_result_metrics,
    default_max_steps,
)
from .trace import Trace, TraceLevel

__all__ = [
    "VectorizedAlgorithm",
    "BatchedFastEngine",
    "run_broadcast_fast",
    "run_broadcast_batch",
    "ASLEEP",
]

#: Sentinel wake step for nodes that are not informed yet.
ASLEEP: int = np.iinfo(np.int64).max


@runtime_checkable
class VectorizedAlgorithm(TypingProtocol):
    """Structural interface for algorithms runnable on the vector engines.

    Implementors also subclass
    :class:`~repro.sim.protocol.BroadcastAlgorithm` so the same object runs
    on either engine.
    """

    name: str
    deterministic: bool

    def transmit_mask(
        self,
        step: int,
        labels: np.ndarray,
        wake_steps: np.ndarray,
        r: int,
        coins: CoinSource,
    ) -> np.ndarray:
        """Transmit decisions for slot ``step``.

        Args:
            step: Global slot number.
            labels: ``int64`` array of node labels (fixed across steps),
                always of shape ``(n,)``.
            wake_steps: ``int64`` array of shape ``(trials, n)`` on
                :class:`BatchedFastEngine` (``(n,)`` on the macro engine's
                per-slot fallback); ``ASLEEP`` for uninformed nodes.
                Implementations may ignore sleepers — the engine masks
                them out — but must not let them influence other nodes.
            r: Public label bound.
            coins: Slot-indexed coin flips, keyed like ``wake_steps``;
                ``coins.thin(mask, step, p)`` keeps each ``True`` cell of
                ``mask`` with its coin's probability ``p``, flipping coins
                at those cells only.  Deterministic schedules never touch
                it.

        Returns:
            Boolean array broadcastable to ``wake_steps.shape``: True where
            the node transmits.
        """
        ...  # pragma: no cover - protocol definition


def _check_vectorized(algorithm) -> None:
    if not isinstance(algorithm, VectorizedAlgorithm):
        raise ConfigurationError(
            f"{algorithm!r} does not implement the vectorised interface"
        )


class BatchedFastEngine:
    """Array-based engine running ``T`` independent trials in lock-step.

    Per-node state is lifted to shape ``(trials, n)``; one
    :meth:`~repro.sim.channel.ChannelKernel.hit_counts` call per slot
    resolves the channel of every trial at once, at the cost of the
    transmitters' edges while they are sparse.  Trial ``t`` executes
    *exactly* the single run with seed ``seeds[t]`` — same coin flips,
    same wake slots — because coins are slot-indexed per
    ``(seed, label)`` and carry no cross-trial state.  A single run
    (:func:`run_broadcast_fast`) is the one-trial batch.

    Args:
        network: Topology (directed or undirected).
        algorithm: An oblivious algorithm implementing
            :class:`VectorizedAlgorithm`.
        seeds: One master seed per trial.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`; crashes,
            jams and delays are identical across trials (the fault
            environment is the adversary), while the loss stream is keyed
            per trial seed — trial ``t`` reproduces exactly the single
            run with seed ``seeds[t]`` under the same plan.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            Tallies are *per-trial-slot* and filtered to active
            (unsettled) trials, so they match what ``trials`` single
            runs would have recorded in aggregate.  Batches of more than
            one trial also keep the ``batch_active_trials`` gauge.
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            the whole batch (stage costs are joint across trials).
        trace_level: Per-trial channel traces with the reference
            engine's exact records (a settled trial stops recording, like
            the run it reproduces stops executing); retrieve with
            :meth:`trace_for`.  ``NONE`` (the default) records nothing.
    """

    def __init__(
        self,
        network: RadioNetwork,
        algorithm: VectorizedAlgorithm,
        seeds: Sequence[int],
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        trace_level: TraceLevel = TraceLevel.NONE,
    ):
        _check_vectorized(algorithm)
        if len(seeds) < 1:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.seeds = [int(s) for s in seeds]
        self.trials = len(self.seeds)
        kernel = ChannelKernel(network)
        self._kernel = kernel
        self.labels = kernel.labels
        self._index = kernel.index
        self.coins = CoinSource.for_batch(self.seeds, self.labels)
        self._traces: list[Trace] | None = None
        self._trace_full = trace_level is TraceLevel.FULL
        self._trace_weights: np.ndarray | None = None
        if trace_level is not TraceLevel.NONE:
            self._traces = []
            for _ in range(self.trials):
                trace = Trace(level=trace_level)
                trace.mark_initially_informed(network.source)
                self._traces.append(trace)
            if self._trace_full:
                self._trace_weights = np.arange(network.n, dtype=np.int64) + 1
        self.wake_steps = np.full((self.trials, network.n), ASLEEP, dtype=np.int64)
        self.wake_steps[:, self._index[network.source]] = -1
        # ``wake_steps != ASLEEP``, kept up to date by run_step.
        self._awake = self.wake_steps != ASLEEP
        # Hot-loop scratch buffers: boolean collision temporaries, written
        # in place instead of freshly allocated every slot.
        self._coll_buf = np.empty((self.trials, network.n), dtype=bool)
        self._not_tx_buf = np.empty((self.trials, network.n), dtype=bool)
        self.step = 0
        self.timings = timings
        self.metrics = metrics
        self._tx_counts: np.ndarray | None = None
        #: Per-slot collision observations are buffered here and flushed
        #: once per :meth:`run` (histograms are order-invariant, so the
        #: single ``observe_many`` is tally-identical to observing inside
        #: the slot loop — it just skips ~one searchsorted per slot).
        self._collision_chunks: list[np.ndarray] = []
        self._collision_zero_trials = 0
        if metrics is not None:
            self._slots_counter = metrics.counter("engine_slots")
            self._tx_counter = metrics.counter("engine_transmissions")
            # A one-trial batch is a single run: no batch liveness gauge.
            self._active_gauge = (
                metrics.gauge("batch_active_trials") if self.trials > 1 else None
            )
            self._collision_hist = metrics.histogram(
                "collisions_per_slot", COUNT_BUCKETS
            )
            self._tx_counts = np.zeros((self.trials, network.n), dtype=np.int64)
        self.faults = faults
        self._cf: CompiledFaults | None = None
        if faults is not None:
            self._cf = compile_faults(
                faults, network, self._index, self.labels,
                [derive_fault_seed(faults.seed, s) for s in self.seeds],
            )
            # All four tallies are per-trial: although crashes and jams
            # are trial-independent events, a trial stops *accruing* them
            # once it settles (mirroring a single run, which stops
            # executing slots at that point), and settle times differ
            # across trials.  ``_executed`` counts the slots each trial
            # was still active for — a single run's ``engine.step``.
            self._crashed = np.zeros(self.trials, dtype=np.int64)
            self._jammed = np.zeros(self.trials, dtype=np.int64)
            self._lost = np.zeros(self.trials, dtype=np.int64)
            self._delayed = np.zeros(self.trials, dtype=np.int64)
            self._executed = np.zeros(self.trials, dtype=np.int64)
        reset = getattr(algorithm, "reset_run", None)
        if reset is not None:
            reset((self.trials, network.n))

    # ------------------------------------------------------------------

    @property
    def awake(self) -> np.ndarray:
        """Boolean ``(trials, n)`` mask of informed nodes (read-only)."""
        view = self._awake.view()
        view.flags.writeable = False
        return view

    @property
    def trials_informed(self) -> np.ndarray:
        """Boolean ``(trials,)`` vector: which trials have completed."""
        return self._awake.all(axis=1)

    @property
    def all_informed(self) -> bool:
        """Whether *every* trial has informed every node."""
        return bool(self._awake.all())

    @property
    def trials_settled(self) -> np.ndarray:
        """Boolean ``(trials,)`` vector: no further wake possible per trial."""
        cf = self._cf
        awake = self._awake
        if cf is None or not cf.has_crashes:
            return awake.all(axis=1)
        return (awake | (cf.crash_slots <= self.step)).all(axis=1)

    @property
    def all_settled(self) -> bool:
        """Every trial informed everyone or lost them to crashes."""
        cf = self._cf
        if cf is None or not cf.has_crashes:
            return bool(self._awake.all())
        return bool(self.trials_settled.all())

    def informed_counts(self) -> np.ndarray:
        """``(trials,)`` vector of informed-node counts."""
        return self._awake.sum(axis=1)

    def run_step(self) -> np.ndarray:
        """Execute one slot across all trials; returns the ``(T, n)`` mask."""
        step = self.step
        awake = self._awake
        cf = self._cf
        timings = self.timings
        t_start = perf_counter() if timings is not None else 0.0
        alive = None
        active = None
        if cf is not None:
            # Counter parity with the single-run engines: a settled trial
            # would have stopped executing there, so its tallies freeze.
            active = ~self.trials_settled
            self._executed += active
            crash_count = cf.crash_counts.get(step, 0)
            if crash_count:
                self._crashed += crash_count * active
            jam_count = len(cf.jam_indices.get(step, ()))
            if jam_count:
                self._jammed += jam_count * active
            if cf.has_crashes:
                alive = cf.crash_slots > step  # (n,), broadcasts over trials
        m_active = None
        if self.metrics is not None:
            # Same freeze rule for metric tallies: settled trials keep
            # stepping as array rows, but the runs they reproduce have
            # already stopped, so their slots no longer count.  Without a
            # fault plan "settled" is just "all awake", which the local
            # ``awake`` already holds — don't recompute the (T, n) mask.
            m_active = active if active is not None else ~awake.all(axis=1)
        rec_active = None
        if self._traces is not None:
            # Trace parity with the single-run engines: a settled trial's
            # run has already stopped, so it records no further slots.
            rec_active = active if active is not None else ~awake.all(axis=1)
        mask = self.algorithm.transmit_mask(
            step, self.labels, self.wake_steps, self.network.r, self.coins
        )
        if timings is not None:
            t_coins = perf_counter()
            timings.add("engine.coins", t_coins - t_start)
        mask = np.logical_and(mask, awake)
        if mask.shape != awake.shape:
            raise ConfigurationError(
                f"transmit mask of shape {mask.shape} does not broadcast to "
                f"the batch's {awake.shape}"
            )
        if alive is not None:
            mask &= alive  # crashed nodes are silent forever
        collisions = None
        newly = rec_deliver = trace_colls = sender_sums = None
        live = int(np.count_nonzero(mask))
        any_tx = live > 0
        if any_tx:
            hits = self._kernel.hit_counts(mask, live)
            if self.metrics is not None:
                coll = np.greater_equal(hits, 2, out=self._coll_buf)
                coll &= np.logical_not(mask, out=self._not_tx_buf)
                collisions = coll.sum(axis=1)
            if self._trace_full:
                trace_colls = (hits >= 2) & ~mask
                if alive is not None:
                    trace_colls = trace_colls & alive
                sender_sums = (
                    self._kernel.adjacency_t @ (mask * self._trace_weights).T
                ).T
            if cf is None:
                # Exactly-one rule; transmitters cannot receive (half-duplex)
                # but they are already informed, so only sleepers matter.
                newly = (~awake) & (hits == 1)
                if self._trace_full:
                    rec_deliver = (hits == 1) & ~mask
            else:
                t_faults = perf_counter() if timings is not None else 0.0
                newly, rec_deliver, lost, delayed = apply_delivery_faults(
                    cf, (hits == 1) & ~mask, awake, alive, step
                )
                self._lost += lost * active
                self._delayed += delayed * active
                if timings is not None:
                    timings.add("engine.faults", perf_counter() - t_faults)
            self.wake_steps[newly] = step
            awake |= newly
        if timings is not None:
            t_end = perf_counter()
            timings.add("engine.channel", t_end - t_coins)
            timings.add("engine.step", t_end - t_start)
        if self.metrics is not None:
            # One engine_slots tick per *active trial*, so counters stay
            # comparable with running the trials on single-run engines.
            n_active = int(m_active.sum())
            self._slots_counter.inc(n_active)
            if self._active_gauge is not None:
                self._active_gauge.set(n_active)
            if n_active == self.trials:
                active_mask, active_tx = mask, live
            else:
                active_mask = mask & m_active[:, None]
                active_tx = int(active_mask.sum())
            self._tx_counter.inc(active_tx)
            self._tx_counts += active_mask
            # Collision observations are buffered and flushed once per
            # run (see flush_metrics); a silent slot is n_active zeros.
            if collisions is None:
                self._collision_zero_trials += n_active
            elif n_active:
                self._collision_chunks.append(collisions[m_active])
        if rec_active is not None:
            self._record_batch_step(
                step, mask if any_tx else None,
                rec_deliver, trace_colls, sender_sums, newly, rec_active,
            )
        self.step += 1
        return mask

    def _record_batch_step(
        self, step, mask, rec_deliver, trace_colls, sender_sums, newly, rec_active
    ) -> None:
        """Append slot ``step`` to every still-active trial's trace."""
        labels = self.labels
        counts = self._awake.sum(axis=1)
        full = self._trace_full
        for t in np.flatnonzero(rec_active):
            trace = self._traces[t]
            if mask is None:  # globally silent slot
                trace.record(
                    step=step, transmitters=(), deliveries={},
                    collisions=(), woken=(), informed=int(counts[t]),
                )
                continue
            deliveries: dict[int, int] = {}
            collisions: tuple[int, ...] = ()
            if full:
                row = sender_sums[t]
                deliveries = {
                    int(labels[i]): int(labels[row[i] - 1])
                    for i in np.flatnonzero(rec_deliver[t])
                }
                collisions = tuple(int(v) for v in labels[trace_colls[t]])
            trace.record(
                step=step,
                transmitters=tuple(int(v) for v in labels[mask[t]]),
                deliveries=deliveries,
                collisions=collisions,
                woken=tuple(int(v) for v in labels[newly[t]]),
                informed=int(counts[t]),
            )

    def trace_for(self, trial: int) -> Trace:
        """Per-trial channel trace (an empty ``NONE`` trace when untraced),
        carrying the trial's fault tallies under a fault plan."""
        if self._traces is None:
            trace = Trace(level=TraceLevel.NONE)
        else:
            trace = self._traces[trial]
        if self._cf is not None:
            trace.fault_counters = self.fault_counters_for(trial)
        return trace

    def flush_metrics(self) -> None:
        """Flush buffered collision observations into the histogram.

        :meth:`run` calls this after its slot loop; callers stepping the
        engine manually with :meth:`run_step` must call it before
        snapshotting the registry.  Idempotent between steps.  Also
        refreshes ``batch_active_trials`` (batches of more than one trial)
        to the *current* unsettled count (0 after a completed run) —
        during the slot loop the gauge tracks the count entering each
        slot.
        """
        if self.metrics is None:
            return
        if self._collision_chunks:
            self._collision_hist.observe_many(np.concatenate(self._collision_chunks))
            self._collision_chunks.clear()
        if self._collision_zero_trials:
            self._collision_hist.observe_repeated(0, self._collision_zero_trials)
            self._collision_zero_trials = 0
        if self._active_gauge is not None:
            self._active_gauge.set(int((~self.trials_settled).sum()))

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run until every trial settles or the step limit; returns slots.

        Settled trials keep stepping (their wake times and fault tallies
        are frozen, so the extra slots are no-ops for them) until the last
        trial finishes — exactly the per-trial executions of one-trial
        batches.
        """
        executed = 0
        while executed < max_steps:
            if stop_when_informed and self.all_settled:
                break
            self.run_step()
            executed += 1
        self.flush_metrics()
        return executed

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit.

        Without a fault plan this is the batch's global step count (a
        trial only stops early by completing, in which case its time comes
        from :meth:`completion_times` instead).  Under a plan with crashes
        a trial can settle *incomplete*, and its executed-slot count —
        what a single run reports as its time — is frozen at that point.
        """
        if self._cf is None:
            return self.step
        return int(self._executed[trial])

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its single-run values."""
        if self._cf is None:
            return None
        return FaultCounters(
            crashed_nodes=int(self._crashed[trial]),
            jammed_slots=int(self._jammed[trial]),
            lost_messages=int(self._lost[trial]),
            delayed_wakes=int(self._delayed[trial]),
        )

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        done = self.trials_informed
        latest = self.wake_steps.max(axis=1, initial=-1, where=self._awake)
        return [
            int(latest[t]) + 1 if done[t] else None for t in range(self.trials)
        ]

    def wake_times(self, trial: int) -> dict[int, int]:
        """Map informed labels of one trial to their wake slots."""
        row = self.wake_steps[trial]
        return {
            int(label): int(ws)
            for label, ws in zip(self.labels, row)
            if ws != ASLEEP
        }

    def transmission_counts(self) -> np.ndarray | None:
        """``(trials, n)`` per-node transmission tallies (label order);
        ``None`` when the engine ran uninstrumented."""
        return self._tx_counts


def run_broadcast_fast(
    network: RadioNetwork,
    algorithm: VectorizedAlgorithm,
    seed: int = 0,
    max_steps: int | None = None,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    allow_large: bool = False,
) -> BroadcastResult:
    """Vectorised counterpart of :func:`repro.sim.run.run_broadcast`.

    Runs as the one-trial batch ``[seed]`` of :class:`BatchedFastEngine`.
    ``allow_large`` skips the :func:`~repro.sim.guard.check_memory_budget`
    estimate guard (FULL traces at large ``n * max_steps``)."""
    if max_steps is None:
        max_steps = default_max_steps(network, algorithm)
    check_memory_budget(
        network.n, max_steps, trace_level,
        dense_metrics=metrics is not None, allow_large=allow_large,
    )
    if timings is None and (metrics is not None or spans is not None):
        timings = Timings()
    engine = BatchedFastEngine(
        network, algorithm, [seed], faults=faults,
        metrics=metrics, timings=timings, trace_level=trace_level,
    )
    with (
        spans.trial_span(
            f"trial[{seed}]", timings,
            seed=seed, algorithm=algorithm.name, n=network.n,
        )
        if spans is not None
        else nullcontext()
    ) as trial:
        engine.run(max_steps)
        if trial is not None:
            trial.attrs["completed"] = engine.all_informed
    (result,) = _batch_results(
        "fast", engine, network, algorithm, metrics, timings, engine.wake_steps
    )
    return result


def _batch_results(
    name, engine, network, algorithm, metrics, timings, wake_rows=None
) -> list[BroadcastResult]:
    """One :class:`BroadcastResult` per trial of a finished batch engine.

    ``name`` is reported as :attr:`~repro.sim.run.BroadcastResult.engine`;
    ``wake_rows`` is the engine's ``(trials, n)`` wake-slot array when it
    keeps one (the array fast path of the layer times).
    """
    results = []
    for t, time in enumerate(engine.completion_times()):
        wake_times = engine.wake_times(t)
        result = BroadcastResult(
            completed=time is not None,
            time=engine.trial_steps(t) if time is None else time,
            informed=len(wake_times),
            n=network.n,
            radius=network.radius,
            algorithm=algorithm.name,
            seed=engine.seeds[t],
            wake_times=wake_times,
            layer_times=_layer_times_for(
                network, wake_times, None if wake_rows is None else wake_rows[t]
            ),
            trace=engine.trace_for(t),
            fault_counters=engine.fault_counters_for(t),
            timings=timings,
            engine=name,
        )
        if metrics is not None:
            _record_result_metrics(metrics, result)
        results.append(result)
    if metrics is not None:
        # Every trial's per-node tallies in one observation: a histogram
        # does not depend on how its observations are grouped.
        metrics.histogram("transmissions_per_node", COUNT_BUCKETS).observe_many(
            engine.transmission_counts()
        )
    return results


def run_broadcast_batch(
    network: RadioNetwork,
    algorithm,
    seeds: Sequence[int] | None = None,
    trials: int | None = None,
    base_seed: int = 0,
    max_steps: int | None = None,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    engine: str = "auto",
    trace_level: TraceLevel = TraceLevel.NONE,
    collision_detection: bool = False,
    step_hooks=None,
    allow_large: bool = False,
) -> list[BroadcastResult]:
    """Run many Monte-Carlo trials of one broadcast as a single batch.

    Result ``i`` is *identical* (per-node wake slots and fault counters
    included) to the corresponding single-run engine with seed
    ``seeds[i]`` — batching is purely an execution strategy, not a
    semantic variant.  Two batch engines implement it:

    * ``"batched_fast"`` — the ``(trials, n)`` array program of
      :class:`BatchedFastEngine`; oblivious
      (:class:`VectorizedAlgorithm`) algorithms only, trial ``i``
      reproduces ``run_broadcast_fast(..., seed=seeds[i])``.
    * ``"batched_event"`` — the
      :class:`~repro.sim.batched_event.BatchedEventEngine`; any
      protocol-based algorithm, trial ``i`` reproduces
      ``run_broadcast(..., seed=seeds[i], engine="event")`` slot for
      slot (traces, hooks, and fault counters included).

    ``"auto"`` (the default) picks ``batched_fast`` when the algorithm is
    vectorisable and ``batched_event`` otherwise, which makes this the
    single batched entry point for every algorithm in the repo.

    Args:
        network: Topology to broadcast on.
        algorithm: A :class:`VectorizedAlgorithm` and/or
            :class:`~repro.sim.protocol.BroadcastAlgorithm` (see the
            engine table above).
        seeds: Explicit per-trial master seeds.  Mutually exclusive with
            ``trials``.
        trials: Number of trials; seeds default to
            ``derive_trial_seeds(base_seed, trials)`` (``base_seed + i``,
            the :func:`~repro.sim.run.repeat_broadcast` convention).
        base_seed: First trial seed when ``trials`` is given.
        max_steps: Step limit; defaults exactly as in
            :func:`~repro.sim.run.run_broadcast`.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            every trial (per-trial loss realisations).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving per-trial-slot engine tallies and per-trial run
            summaries.
        timings: Optional :class:`~repro.obs.timings.Timings`; the batch
            runs as one program, so every returned result carries the
            *same* (shared) timings object.
        spans: Optional :class:`~repro.obs.spans.SpanRecorder`; the whole
            batch records as one ``trial`` span (stage costs are joint).
        engine: ``"auto"``, ``"batched_fast"``, or ``"batched_event"``.
        trace_level: Per-trial channel traces — supported by *both* batch
            engines, with identical records (asserted by the conformance
            suite).
        collision_detection: CD model variant (``batched_event`` only).
        step_hooks: Optional per-trial step hooks (``batched_event``
            only), one entry per trial.

    Returns:
        One :class:`~repro.sim.run.BroadcastResult` per trial, in seed order.
    """
    if seeds is None:
        if trials is None:
            raise ConfigurationError("provide either seeds or trials")
        seeds = derive_trial_seeds(base_seed, trials)
    elif trials is not None and trials != len(seeds):
        raise ConfigurationError(
            f"trials={trials} conflicts with {len(seeds)} explicit seeds"
        )
    if max_steps is None:
        max_steps = default_max_steps(network, algorithm)
    check_memory_budget(
        network.n, max_steps, trace_level, trials=len(seeds),
        dense_metrics=metrics is not None, allow_large=allow_large,
    )
    if timings is None and (metrics is not None or spans is not None):
        timings = Timings()
    if engine == "auto":
        engine = (
            "batched_fast"
            if isinstance(algorithm, VectorizedAlgorithm)
            else "batched_event"
        )
    batch_span = (
        spans.trial_span(
            f"batch[{len(seeds)}]", timings,
            trials=len(seeds), algorithm=algorithm.name, n=network.n,
        )
        if spans is not None
        else nullcontext()
    )
    if engine == "batched_event":
        with batch_span:
            return _run_batched_event(
                network, algorithm, seeds, max_steps, faults, metrics, timings,
                trace_level, collision_detection, step_hooks,
            )
    if engine != "batched_fast":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'auto', 'batched_fast', "
            f"or 'batched_event'"
        )
    if collision_detection or step_hooks is not None:
        raise ConfigurationError(
            "collision detection and step hooks require "
            "engine='batched_event' (the array engine supports neither)"
        )
    engine = BatchedFastEngine(
        network, algorithm, seeds, faults=faults,
        metrics=metrics, timings=timings, trace_level=trace_level,
    )
    with batch_span:
        engine.run(max_steps)
    return _batch_results(
        "batched_fast", engine, network, algorithm, metrics, timings,
        engine.wake_steps,
    )


def _run_batched_event(
    network, algorithm, seeds, max_steps, faults, metrics, timings,
    trace_level, collision_detection, step_hooks,
) -> list[BroadcastResult]:
    """The ``engine="batched_event"`` arm of :func:`run_broadcast_batch`."""
    # Imported lazily to keep the oblivious array path's import graph flat.
    from .batched_event import BatchedEventEngine

    engine = BatchedEventEngine(
        network, algorithm, seeds,
        faults=faults, metrics=metrics, timings=timings,
        trace_level=trace_level, collision_detection=collision_detection,
        step_hooks=step_hooks,
    )
    engine.run(max_steps)
    return _batch_results(
        "batched_event", engine, network, algorithm, metrics, timings
    )
