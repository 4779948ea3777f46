"""High-level drivers: run one broadcast, or many for Monte-Carlo estimates.

These are the functions most users call::

    from repro import run_broadcast
    result = run_broadcast(network, algorithm, seed=7)
    print(result.time, result.engine)

:func:`run_broadcast` is the one single-run dispatcher: it reads the
engine table :data:`ENGINES` and, by default (``engine="auto"``), picks
the fastest engine that can run the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry, SLOT_BUCKETS
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings

# Seed-derivation helpers: defined in repro.sim.coins (run.py sits above
# the engines in the import graph) and re-exported here as the canonical
# public location.  Every engine derives per-node randomness through these
# two functions; tests pin the exact streams.
from .coins import derive_node_rng, derive_trial_seeds
from .engine import SynchronousEngine
from .errors import BroadcastIncompleteError, ConfigurationError
from .event import EventDrivenEngine
from .faults import FaultCounters, FaultPlan, trials_identical
from .guard import check_memory_budget
from .network import RadioNetwork, as_radio_network
from .protocol import BroadcastAlgorithm, Protocol
from .trace import Trace, TraceLevel

__all__ = [
    "BroadcastResult",
    "ENGINES",
    "ENGINE_CHOICES",
    "EngineSpec",
    "default_max_steps",
    "run_broadcast",
    "repeat_broadcast",
    "derive_node_rng",
    "derive_trial_seeds",
]


def default_max_steps(network: RadioNetwork, algorithm: object) -> int:
    """The step-limit rule shared by every driver and engine.

    Prefers the algorithm's own ``max_steps_hint`` when it exists *and*
    returns one; falls back to ``64 * n * (log2(n) + 1)`` — comfortably
    above every upper bound proved in the paper.  ``getattr`` tolerance
    matters: duck-typed algorithms (e.g. objects implementing only the
    vectorised interface) need not subclass
    :class:`~repro.sim.protocol.BroadcastAlgorithm`, and the reference
    and fast paths must agree on the default either way.
    """
    hint = getattr(algorithm, "max_steps_hint", None)
    max_steps = hint(network.n, network.r) if hint is not None else None
    if max_steps is None:
        max_steps = 64 * network.n * (network.n.bit_length() + 1)
    return max_steps


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of a single broadcast execution.

    Attributes:
        completed: Whether every node was informed within the step limit.
        time: Broadcasting time in slots (the paper's measure), or the
            number of executed slots if incomplete.
        informed: How many nodes held the source message at the end.
        n: Network size.
        radius: The network's radius D.
        algorithm: Name of the algorithm that ran.
        seed: Seed used for this run.
        wake_times: label -> slot at which the node was informed
            (source: -1).
        layer_times: For each BFS layer j, the slot by which the whole
            layer was informed (index 0 is the source layer, always -1);
            ``None`` entries mark layers not fully informed.
        trace: Channel trace at the requested level of detail.
        fault_counters: What the fault plan did to this run
            (:class:`~repro.sim.faults.FaultCounters`); ``None`` when the
            run executed without a plan.
        timings: Wall-clock stage timings (:class:`~repro.obs.timings.Timings`)
            when the run was instrumented; ``None`` otherwise.  Results
            from one batched execution share a single ``Timings`` object —
            the batch ran as one array program, so its stage costs are
            joint, not per-trial.
        engine: Name of the engine that actually executed the run
            (``"reference"``, ``"event"``, ``"fast"``, ``"macro"``, or
            ``"batched_fast"`` / ``"batched_event"`` for a trial of a
            batch); ``None`` for a result loaded from a document.  Not
            part of equality and not serialised: every engine computes
            the same result.
    """

    completed: bool
    time: int
    informed: int
    n: int
    radius: int
    algorithm: str
    seed: int
    wake_times: dict[int, int] = field(repr=False, default_factory=dict)
    layer_times: tuple[int | None, ...] = field(repr=False, default=())
    trace: Trace = field(repr=False, default_factory=Trace)
    fault_counters: FaultCounters | None = field(repr=False, default=None)
    timings: Timings | None = field(repr=False, default=None)
    engine: str | None = field(repr=False, default=None, compare=False)

    @property
    def slowdown_vs_radius(self) -> float:
        """Ratio of broadcasting time to the trivial lower bound D."""
        return self.time / max(1, self.radius)


def _layer_times(network: RadioNetwork, wake_times: dict[int, int]) -> tuple[int | None, ...]:
    times: list[int | None] = []
    for layer in network.layers():
        if all(v in wake_times for v in layer):
            times.append(max(wake_times[v] for v in layer))
        else:
            times.append(None)
    return tuple(times)


def _layer_times_from_arrays(
    depths: "np.ndarray", wake_steps: "np.ndarray"
) -> tuple[int | None, ...]:
    """:func:`_layer_times` computed from flat arrays — identical output,
    no per-node Python loop.  ``depths`` is the BFS depth of every node
    (e.g. :meth:`~repro.topology.csr.CSRNetwork.depths_array`) and
    ``wake_steps`` the engine's wake array in the same node order, with
    sleepers at the int64 max sentinel."""
    import numpy as np

    asleep = np.iinfo(np.int64).max
    num_layers = int(depths.max()) + 1
    totals = np.bincount(depths, minlength=num_layers)
    informed = wake_steps != asleep
    informed_depths = depths[informed]
    settled = np.bincount(informed_depths, minlength=num_layers)
    latest = np.full(num_layers, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(latest, informed_depths, wake_steps[informed])
    return tuple(
        int(latest[j]) if settled[j] == totals[j] else None
        for j in range(num_layers)
    )


def _layer_times_for(
    network, wake_times: dict[int, int], wake_steps=None
) -> tuple[int | None, ...]:
    """Layer times via the array fast path when the network carries
    precomputed depths (CSR-native topologies; node order == label
    order), else via the label-dict walk over ``network.layers()``."""
    depths_fn = getattr(network, "depths_array", None)
    if depths_fn is not None and wake_steps is not None:
        return _layer_times_from_arrays(depths_fn(), wake_steps)
    return _layer_times(network, wake_times)


def _record_result_metrics(
    metrics: MetricsRegistry,
    result: BroadcastResult,
    transmission_counts=None,
) -> None:
    """Driver-level metric observations for one finished run.

    The per-slot engine counters (``engine_*``) are incremented by the
    engines themselves; this records the per-*run* summary metrics the
    canonical registry exposes (names documented in
    ``docs/OBSERVABILITY.md``).
    """
    metrics.counter("runs_total").inc()
    if result.completed:
        metrics.counter("runs_completed").inc()
    metrics.histogram("slots_to_completion", SLOT_BUCKETS).observe(result.time)
    if transmission_counts is not None:
        metrics.histogram("transmissions_per_node", COUNT_BUCKETS).observe_many(
            transmission_counts
        )
    counters = result.fault_counters
    if counters is not None:
        metrics.counter("faults_crashed_nodes").inc(counters.crashed_nodes)
        metrics.counter("faults_jammed_slots").inc(counters.jammed_slots)
        metrics.counter("faults_lost_messages").inc(counters.lost_messages)
        metrics.counter("faults_delayed_wakes").inc(counters.delayed_wakes)


def _run_per_node(
    engine_cls, name: str, network, algorithm, *, seed, max_steps,
    trace_level, collision_detection, faults, metrics, timings, spans,
) -> BroadcastResult:
    """Shared runner of the per-node entries (``reference``, ``event``)."""
    network = as_radio_network(network)
    engine = engine_cls(
        network,
        algorithm,
        seed=seed,
        trace_level=trace_level,
        collision_detection=collision_detection,
        faults=faults,
        metrics=metrics,
        timings=timings,
    )
    if spans is None:
        engine.run(max_steps)
    else:
        with spans.trial_span(
            f"trial[{seed}]", timings,
            seed=seed, algorithm=algorithm.name, n=network.n,
        ) as trial:
            engine.run(max_steps)
            trial.attrs["completed"] = engine.all_informed
    completed = engine.all_informed
    result = BroadcastResult(
        completed=completed,
        time=engine.completion_time if completed else engine.step,
        informed=engine.informed_count,
        n=network.n,
        radius=network.radius,
        algorithm=algorithm.name,
        seed=seed,
        wake_times=dict(engine.wake_times),
        layer_times=_layer_times(network, engine.wake_times),
        trace=engine.trace,
        fault_counters=(
            engine.fault_counters.snapshot()
            if engine.fault_counters is not None
            else None
        ),
        timings=timings,
        engine=name,
    )
    if metrics is not None:
        _record_result_metrics(metrics, result, engine.transmission_counts())
    return result


def _run_fast(network, algorithm, **options) -> BroadcastResult:
    # The array modules import this one (for BroadcastResult), so their
    # runners import them lazily; run_broadcast has already checked the
    # memory budget, hence ``allow_large=True``.
    from .fast import run_broadcast_fast

    return run_broadcast_fast(network, algorithm, allow_large=True, **options)


def _run_macro(network, algorithm, **options) -> BroadcastResult:
    from .macro import run_broadcast_macro

    return run_broadcast_macro(network, algorithm, allow_large=True, **options)


@dataclass(frozen=True)
class EngineSpec:
    """One row of the single-run engine table :data:`ENGINES`.

    Attributes:
        oblivious_only: An array engine: runs only oblivious algorithms
            (those implementing
            :class:`~repro.sim.fast.VectorizedAlgorithm`), and not the
            collision-detection model.  The per-node engines run both.
        runner: ``runner(network, algorithm, *, seed, max_steps,
            trace_level, faults, metrics, timings, spans)``, plus
            ``collision_detection`` for the per-node rows; called by
            :func:`run_broadcast` after it has resolved the step limit and
            checked the memory budget.
    """

    oblivious_only: bool
    runner: Callable[..., BroadcastResult]


#: The single-run engine table, keyed by the names
#: ``run_broadcast(engine=...)`` and ``repro run --engine`` accept, in the
#: order the CLI lists them.  Every entry computes bit-identical results
#: (the conformance matrix in ``tests/sim/conformance.py`` holds them to
#: ``reference``, the oracle); they differ only in speed.
ENGINES: dict[str, EngineSpec] = {
    "reference": EngineSpec(
        False, partial(_run_per_node, SynchronousEngine, "reference")
    ),
    "event": EngineSpec(False, partial(_run_per_node, EventDrivenEngine, "event")),
    "fast": EngineSpec(True, _run_fast),
    "macro": EngineSpec(True, _run_macro),
}

#: Every value ``run_broadcast(engine=...)`` accepts.
ENGINE_CHOICES: tuple[str, ...] = ("auto", *ENGINES)


def _is_oblivious(algorithm) -> bool:
    from .fast import VectorizedAlgorithm

    return isinstance(algorithm, VectorizedAlgorithm)


def _has_quiet_hint(network, algorithm, seed: int) -> bool:
    """Whether ``algorithm``'s protocol overrides
    :meth:`~repro.sim.protocol.Protocol.quiet_until`, judged from one
    ``create`` call (protocol factories are pure)."""
    create = getattr(algorithm, "create", None)
    if create is None:
        return False
    protocol = create(
        network.source, network.r, derive_node_rng(seed, network.source)
    )
    return type(protocol).quiet_until is not Protocol.quiet_until


def _auto_engine(network, algorithm, seed: int, collision_detection: bool) -> str:
    if not collision_detection and _is_oblivious(algorithm):
        return "macro"
    return "event" if _has_quiet_hint(network, algorithm, seed) else "reference"


def _resolve_engine(
    engine: str, network, algorithm, seed: int, collision_detection: bool
) -> EngineSpec:
    """The :data:`ENGINES` row ``engine`` names (``"auto"`` resolved),
    checked against what the run asks of it."""
    if engine == "auto":
        engine = _auto_engine(network, algorithm, seed, collision_detection)
    spec = ENGINES.get(engine)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of "
            + ", ".join(repr(name) for name in ENGINE_CHOICES)
        )
    if spec.oblivious_only and collision_detection:
        raise ConfigurationError(
            f"engine {engine!r} does not support collision detection; "
            f"use 'auto', 'reference' or 'event'"
        )
    if spec.oblivious_only and not _is_oblivious(algorithm):
        raise ConfigurationError(
            f"engine {engine!r} runs only oblivious (vectorised) algorithms "
            f"and {algorithm.name} is not one; use 'auto', 'reference' or "
            f"'event'"
        )
    return spec


def run_broadcast(
    network: RadioNetwork,
    algorithm: BroadcastAlgorithm,
    seed: int = 0,
    max_steps: int | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    require_completion: bool = False,
    collision_detection: bool = False,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    engine: str = "auto",
    allow_large: bool = False,
) -> BroadcastResult:
    """Execute one broadcast and measure its time.

    The run executes on one row of the engine table :data:`ENGINES`.
    Every engine gives bit-identical results; they differ in speed:

    * ``reference`` — :class:`~repro.sim.engine.SynchronousEngine`,
      every node polled every slot; the oracle.
    * ``event`` — :class:`~repro.sim.event.EventDrivenEngine`, which
      skips the slots protocols promise are silent
      (:meth:`~repro.sim.protocol.Protocol.quiet_until`).
    * ``fast`` — :func:`~repro.sim.fast.run_broadcast_fast`, the
      one-trial array batch; oblivious algorithms only.
    * ``macro`` — :func:`~repro.sim.macro.run_broadcast_macro`,
      multi-slot blocks; oblivious algorithms only.  Instrumented runs
      (faults, metrics, timings, spans, traces) execute on ``fast``.

    Only the per-node engines (``reference``, ``event``) run the
    collision-detection model.

    ``engine="auto"`` (the default) picks, in order:

    1. with ``collision_detection``: ``event`` if the algorithm's
       protocol overrides ``quiet_until``, else ``reference``;
    2. an oblivious algorithm
       (:class:`~repro.sim.fast.VectorizedAlgorithm`): ``macro``;
    3. a protocol that overrides ``quiet_until``: ``event``;
    4. everything else: ``reference``.

    Protocols without the hint stay on ``reference``: on ``event`` they
    would be polled every slot anyway, at a higher cost per poll.  The
    engine that actually executed is reported as
    :attr:`BroadcastResult.engine`.  CSR-native networks
    (:class:`~repro.topology.csr.CSRNetwork`) convert to
    :class:`~repro.sim.network.RadioNetwork` on the per-node engines.

    Args:
        network: Topology to broadcast on.
        algorithm: The broadcasting algorithm.
        seed: Master seed for the per-node RNGs.
        max_steps: Step limit.  Defaults to
            :func:`default_max_steps` — the algorithm's own hint, and
            failing that ``64 * n * (log2(n) + 1)``.
        trace_level: Channel detail to record.
        require_completion: Raise
            :class:`~repro.sim.errors.BroadcastIncompleteError` instead of
            returning a partial result when the limit is hit.
        collision_detection: Run the collision-detection model variant
            (see :class:`~repro.sim.engine.SynchronousEngine`); requires a
            CD-aware algorithm and a per-node engine.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` injected
            into the execution; the result then carries
            :attr:`BroadcastResult.fault_counters`.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            When given, the engine records per-slot counters and the
            driver observes the per-run summary metrics; the result also
            carries stage :attr:`BroadcastResult.timings`.  Instrumenting
            never changes what the run computes.
        timings: Optional :class:`~repro.obs.timings.Timings` to
            accumulate into (shared across several runs, e.g. by a sweep
            point); defaults to a fresh one when ``metrics`` or ``spans``
            is given.
        spans: Optional :class:`~repro.obs.spans.SpanRecorder`.  When
            given, the execution is wrapped in a ``trial`` span with
            synthetic ``engine.*`` stage children taken from the
            ``Timings`` delta.  Recording spans never changes the result.
        engine: ``"auto"`` or a key of :data:`ENGINES`.  An unknown name,
            or an engine that cannot run the request (collision
            detection or a non-oblivious algorithm on ``fast`` /
            ``macro``), raises
            :class:`~repro.sim.errors.ConfigurationError`.
        allow_large: Skip the up-front memory-estimate guard
            (:func:`~repro.sim.guard.check_memory_budget`) that refuses
            FULL traces / dense metrics whose footprint scales past the
            configured limits.

    Returns:
        A :class:`BroadcastResult`.
    """
    spec = _resolve_engine(engine, network, algorithm, seed, collision_detection)
    if max_steps is None:
        max_steps = default_max_steps(network, algorithm)
    check_memory_budget(
        network.n, max_steps, trace_level,
        dense_metrics=metrics is not None, allow_large=allow_large,
    )
    if timings is None and (metrics is not None or spans is not None):
        timings = Timings()
    options = dict(
        seed=seed, max_steps=max_steps, trace_level=trace_level,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
    )
    if not spec.oblivious_only:
        # The array rows have no collision-detection model (_resolve_engine
        # refused it above), so only the per-node rows take the flag.
        options["collision_detection"] = collision_detection
    result = spec.runner(network, algorithm, **options)
    if require_completion and not result.completed:
        raise BroadcastIncompleteError(
            f"{algorithm.name} informed {result.informed}/{network.n} nodes "
            f"within {max_steps} steps",
            result=result,
        )
    return result


def repeat_broadcast(
    network: RadioNetwork,
    algorithm: BroadcastAlgorithm,
    runs: int,
    base_seed: int = 0,
    max_steps: int | None = None,
    require_completion: bool = True,
    engine: str = "auto",
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
) -> list[BroadcastResult]:
    """Run the same broadcast ``runs`` times with seeds ``base_seed + i``.

    Used to estimate expected broadcasting time (Corollary 1) and its
    spread.  When every repetition would be identical (a deterministic
    algorithm under a loss-free plan, see
    :func:`~repro.sim.faults.trials_identical`) the broadcast runs once.

    Unless ``engine="reference"`` is forced, all trials execute as one
    batch through :func:`~repro.sim.fast.run_broadcast_batch`: oblivious
    algorithms (anything implementing
    :class:`~repro.sim.fast.VectorizedAlgorithm`) as a ``(trials, n)``
    array program, every other algorithm through the
    :class:`~repro.sim.batched_event.BatchedEventEngine`.  Per-trial
    results are identical to the serial path, only faster.

    Args:
        engine: ``"auto"`` (run all trials as one batch) or
            ``"reference"`` (force the serial per-node engine, e.g. for
            benchmarking the batch paths against it).
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            every trial (the loss realisation still differs per trial).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            shared by every trial.
        timings: Optional :class:`~repro.obs.timings.Timings` shared by
            every trial; defaults to a fresh one when ``metrics`` or
            ``spans`` is given.
        spans: Optional :class:`~repro.obs.spans.SpanRecorder` shared by
            every trial (batched execution records one ``trial`` span for
            the whole batch — its stage costs are joint).
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be positive, got {runs}")
    if engine not in ("auto", "reference"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'auto' or 'reference'"
        )
    if trials_identical(algorithm, faults):
        runs = 1
    if timings is None and (metrics is not None or spans is not None):
        timings = Timings()
    if engine != "reference":
        # Imported lazily: fast.py imports this module for BroadcastResult.
        from .fast import run_broadcast_batch

        results = run_broadcast_batch(
            network,
            algorithm,
            trials=runs,
            base_seed=base_seed,
            max_steps=max_steps,
            faults=faults,
            metrics=metrics,
            timings=timings,
            spans=spans,
        )
        if require_completion:
            for result in results:
                if not result.completed:
                    raise BroadcastIncompleteError(
                        f"{algorithm.name} informed {result.informed}/"
                        f"{network.n} nodes (seed {result.seed})",
                        result=result,
                    )
        return results
    return [
        run_broadcast(
            network,
            algorithm,
            seed=seed,
            max_steps=max_steps,
            require_completion=require_completion,
            faults=faults,
            metrics=metrics,
            timings=timings,
            spans=spans,
            engine="reference",
        )
        for seed in derive_trial_seeds(base_seed, runs)
    ]
