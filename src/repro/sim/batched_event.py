"""Batched event-driven engine: Monte-Carlo trials of adaptive protocols.

:class:`~repro.sim.event.EventDrivenEngine` makes one adaptive run cheap
by polling only the nodes whose ``quiet_until`` promise expired and
fast-forwarding provably silent slots.  This engine runs a batch of such
trials for the adaptive protocols the array engines cannot run: it groups
the trials into execution classes and runs each class to its end on
:meth:`EventDrivenEngine.run <repro.sim.event.EventDrivenEngine.run>`,
the one event loop, one class after the other.

Trial ``i`` of a batch is **slot-for-slot identical** to a serial
``EventDrivenEngine`` run with seed ``seeds[i]`` — batching is an
execution strategy, never a semantic variant (the conformance harness in
``tests/sim/conformance.py`` pins this across the full engine x algorithm
x topology x fault-plan matrix).

Two structural facts make the batch fast rather than merely T serial
loops glued together:

1. **Execution-class collapse.**  Trials differ only through their seeds,
   and a seed reaches an execution through exactly two doors: the
   per-node RNGs (:func:`~repro.sim.coins.derive_node_rng`) and the
   per-trial message-loss stream
   (:func:`~repro.sim.faults.derive_fault_seed`).  When
   :func:`~repro.sim.faults.trials_identical` holds (the algorithm never
   consults its RNG and the fault plan has no loss component), *every*
   trial is provably the same execution — one representative run serves
   the whole batch, with per-trial results replicated in O(1) and the
   metric tallies merged with multiplicity
   (:meth:`~repro.obs.metrics.MetricsRegistry.merge` with ``weight``).
   Otherwise trials are grouped by seed value: equal seeds are still
   provably identical, distinct seeds get genuinely independent runs.
   :func:`~repro.sim.run.repeat_broadcast` applies the same rule.

2. **Shared topology compilation.**  All classes resolve the channel
   through one :class:`~repro.sim.channel.ChannelKernel` (CSR arrays are
   compiled once per batch); classes run one after the other, so the
   kernel's scratch buffers are never shared concurrently.

Select via ``run_broadcast_batch(..., engine="batched_event")`` (or let
``engine="auto"`` pick it for non-vectorisable algorithms);
``docs/PERFORMANCE.md`` covers the cost model.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.timings import Timings
from .channel import ChannelKernel
from .errors import ConfigurationError, ProtocolViolationError
from .event import EventDrivenEngine
from .faults import FaultCounters, FaultPlan, trials_identical
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm
from .trace import Trace, TraceLevel

__all__ = ["BatchedEventEngine"]

StepHook = Callable[[int, tuple[int, ...]], None]


class _ExecutionClass:
    """One representative :class:`EventDrivenEngine` plus the trials it serves."""

    __slots__ = ("engine", "members", "metrics", "error")

    def __init__(
        self,
        engine: EventDrivenEngine,
        members: list[int],
        metrics: MetricsRegistry | None,
    ):
        self.engine = engine
        self.members = members
        self.metrics = metrics
        self.error: ProtocolViolationError | None = None


def _fan_out_hook(
    members: Sequence[int], step_hooks: Sequence[StepHook | None]
) -> StepHook | None:
    """One engine-side hook that replays the slot to every member trial's
    hook, in trial order — for executed and synthesized slots alike."""
    hooks = [step_hooks[t] for t in members if step_hooks[t] is not None]
    if not hooks:
        return None

    def hook(step: int, transmitters: tuple[int, ...]) -> None:
        for member_hook in hooks:
            member_hook(step, transmitters)

    return hook


class BatchedEventEngine:
    """Run ``T`` adaptive Monte-Carlo trials, one event run per execution class.

    Args:
        network: Topology (directed or undirected).
        algorithm: Any :class:`~repro.sim.protocol.BroadcastAlgorithm`
            (its protocol factory must be stateless, which every
            algorithm in the repo is — per-run state lives on the
            protocol instances the factory creates).
        seeds: One master seed per trial.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            every trial; crashes, jams, and delays are identical across
            trials, the loss stream is keyed per trial seed — exactly the
            :class:`~repro.sim.fast.BatchedFastEngine` convention.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            Each execution class records into a private registry; after
            the run the private registries are merged in with
            multiplicity = class size, so the shared registry holds
            exactly what ``T`` serial event-engine runs would have
            recorded in aggregate (:meth:`run` merges them once, which
            is why an engine runs only once).
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            the whole batch (stage costs are joint across trials).
        trace_level: Channel detail to record; collapsed trials share
            their class's trace object (the executions are identical, so
            the records are too).
        collision_detection: Run the CD model variant in every trial.
        step_hooks: Optional per-trial ``(step, transmitters)`` callbacks,
            one entry per trial (``None`` entries allowed).  Trial ``i``'s
            hook sees exactly the stream a serial run would produce,
            silent slots included.
    """

    def __init__(
        self,
        network: RadioNetwork,
        algorithm: BroadcastAlgorithm,
        seeds: Sequence[int],
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        trace_level: TraceLevel = TraceLevel.NONE,
        collision_detection: bool = False,
        step_hooks: Sequence[StepHook | None] | None = None,
    ):
        if len(seeds) < 1:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.seeds = [int(s) for s in seeds]
        self.trials = len(self.seeds)
        if step_hooks is not None and len(step_hooks) != self.trials:
            raise ConfigurationError(
                f"step_hooks has {len(step_hooks)} entries for "
                f"{self.trials} trials"
            )
        self.faults = faults
        self.metrics = metrics
        self.timings = timings
        self._kernel = ChannelKernel(network)
        self._ran = False
        self._classes: list[_ExecutionClass] = []
        for rep_seed, members in self._group_trials().items():
            private = MetricsRegistry() if metrics is not None else None
            hook = (
                _fan_out_hook(members, step_hooks)
                if step_hooks is not None
                else None
            )
            engine = EventDrivenEngine(
                network,
                algorithm,
                seed=rep_seed,
                trace_level=trace_level,
                step_hook=hook,
                collision_detection=collision_detection,
                faults=faults,
                metrics=private,
                timings=timings,
                kernel=self._kernel,
            )
            self._classes.append(_ExecutionClass(engine, members, private))
        #: trial index -> its execution class (shared for collapsed trials).
        self._class_of: dict[int, _ExecutionClass] = {
            t: cls for cls in self._classes for t in cls.members
        }

    def _group_trials(self) -> dict[int, list[int]]:
        """Partition trial indices into provably-identical execution classes.

        Returns ``representative seed -> member trial indices``: the whole
        batch when :func:`~repro.sim.faults.trials_identical` holds, else
        one class per distinct seed (equal seeds are byte-identical
        executions).
        """
        if trials_identical(self.algorithm, self.faults):
            return {self.seeds[0]: list(range(self.trials))}
        groups: dict[int, list[int]] = {}
        for trial, seed in enumerate(self.seeds):
            groups.setdefault(seed, []).append(trial)
        return groups

    # ------------------------------------------------------------------
    # Batch-level state, mirroring BatchedFastEngine's vocabulary.

    @property
    def execution_classes(self) -> int:
        """How many representative runs the batch actually executes."""
        return len(self._classes)

    @property
    def all_settled(self) -> bool:
        return all(cls.engine.all_settled for cls in self._classes)

    @property
    def all_informed(self) -> bool:
        return all(cls.engine.all_informed for cls in self._classes)

    # ------------------------------------------------------------------

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run each execution class on :meth:`EventDrivenEngine.run`, in turn.

        Classes share nothing mutable but the compiled channel kernel, so
        each one advances by up to ``max_steps`` slots on its own clock
        and stops exactly where its serial runs would have.

        A :class:`~repro.sim.errors.ProtocolViolationError` aborts only
        its own class; the remaining classes run to completion, and the
        error of the lowest aborted trial index is re-raised — the same
        error a serial seed-order loop would have surfaced first.

        Returns the slots executed: the largest advance of any class
        (silent slots count, as on the serial engine).

        One-shot: the class registries merge into the shared one once, so
        a second call raises
        :class:`~repro.sim.errors.ConfigurationError` instead of silently
        recording nothing.
        """
        if max_steps < 0:
            raise ConfigurationError(
                f"max_steps must be non-negative, got {max_steps}"
            )
        if self._ran:
            raise ConfigurationError(
                "BatchedEventEngine.run was already called: the batch "
                "merges its per-class metrics once, so it cannot resume; "
                "build a new engine for another run"
            )
        self._ran = True
        executed = 0
        for cls in self._classes:
            if cls.error is not None:
                continue
            engine = cls.engine
            start = engine.step
            try:
                engine.run(max_steps, stop_when_informed)
            except ProtocolViolationError as exc:
                cls.error = exc
            executed = max(executed, engine.step - start)
        self._merge_metrics()
        first_failed = min(
            (cls for cls in self._classes if cls.error is not None),
            key=lambda cls: cls.members[0],
            default=None,
        )
        if first_failed is not None:
            raise first_failed.error
        return executed

    def _merge_metrics(self) -> None:
        """Merge each class's private registry into the shared one.

        Counters and histogram tallies are folded in with multiplicity =
        class size, so the shared registry equals the aggregate of ``T``
        serial event-engine runs exactly.  Batches of more than one trial
        also set ``batch_active_trials`` to the current unsettled count,
        mirroring the batched fast engine.
        """
        if self.metrics is None:
            return
        for cls in self._classes:
            self.metrics.merge(cls.metrics, weight=len(cls.members))
        if self.trials > 1:
            self.metrics.gauge("batch_active_trials").set(
                sum(
                    len(cls.members)
                    for cls in self._classes
                    if not cls.engine.all_settled
                )
            )

    # ------------------------------------------------------------------
    # Per-trial accessors (the driver's view), all O(1) per trial.

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit —
        the serial run's final ``engine.step``."""
        return self._class_of[trial].engine.step

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        return [
            self._class_of[t].engine.completion_time for t in range(self.trials)
        ]

    def wake_times(self, trial: int) -> dict[int, int]:
        """Map informed labels of one trial to their wake slots."""
        return dict(self._class_of[trial].engine.wake_times)

    def trace_for(self, trial: int) -> Trace:
        """The trial's channel trace (collapsed trials share one object —
        their executions, hence their records, are identical)."""
        return self._class_of[trial].engine.trace

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its serial values."""
        counters = self._class_of[trial].engine.fault_counters
        return counters.snapshot() if counters is not None else None

    def transmission_counts(self) -> list[list[int]] | None:
        """Per-node transmission tallies of every trial (label order);
        ``None`` when the batch ran uninstrumented."""
        if self.metrics is None:
            return None
        return [
            self._class_of[t].engine.transmission_counts()
            for t in range(self.trials)
        ]
