"""Batched event engine: property tests and degenerate batch shapes.

The conformance matrix (``test_conformance.py``) pins trial-for-trial
identity with the serial event engine on the curated cases; this module
adds what the matrix cannot express:

* **hint honesty under batching** — across randomly drawn topologies and
  fault plans, no ``quiet_until`` promise may hide an action in *any*
  trial of a batch (every class engine polls through the checking
  wrapper), and the batch still reproduces the serial runs exactly;
* **trial independence** — permuting the trial seeds permutes the
  results and nothing else: a trial's outcome depends only on its seed,
  never on its batch position or companions;
* **degenerate shapes** — one-trial batches, single-node networks,
  batches settled before the first slot, batches settling *on* the
  first slot, and a zero step budget, all in exact parity with the
  serial engine.
* **the run's return value** — out-of-step randomized classes, with and
  without a budget that cuts trials short, return the longest serial
  run's slot count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KnownRadiusKP, SelectAndSend
from repro.obs.metrics import MetricsRegistry
from repro.baselines import RoundRobinBroadcast
from repro.sim import BatchedEventEngine, FaultPlan, run_broadcast
from repro.sim.errors import ConfigurationError, ProtocolViolationError
from repro.sim.event import EventDrivenEngine
from repro.sim.fast import run_broadcast_batch
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, path, star

from .conformance import (
    HintCheckedAlgorithm,
    adaptive_faulty_networks,
    assert_results_match,
)


def _serial_results(net, algorithm, seeds, **kwargs):
    return [
        run_broadcast(
            net, algorithm, seed=seed, engine="event",
            require_completion=False, **kwargs,
        )
        for seed in seeds
    ]


def _assert_batch_matches_serial(net, algorithm, seeds, **kwargs):
    serial = _serial_results(net, algorithm, seeds, **kwargs)
    batched = run_broadcast_batch(
        net, algorithm, seeds=seeds, engine="batched_event", **kwargs,
    )
    assert len(batched) == len(serial)
    for i, (from_batch, reference) in enumerate(zip(batched, serial)):
        assert_results_match(
            from_batch, reference, key=("trial", i),
            compare_traces=kwargs.get("trace_level") is TraceLevel.FULL,
        )
    return batched


# ---------------------------------------------------------------------------
# Hint honesty under batching


@settings(max_examples=15, deadline=None)
@given(case=adaptive_faulty_networks(), extra_seed=st.integers(0, 1000))
def test_no_quiet_promise_hides_an_action_in_any_trial(case, extra_seed):
    """Every class engine in the batch polls through the hint-checking
    wrapper: if compression ever trusted a promise that hides an action
    in *any* trial, the wrapper's assertions (or the parity check below)
    would fire."""
    net, plan = case
    algorithm = HintCheckedAlgorithm(SelectAndSend())
    seeds = [0, extra_seed, extra_seed + 1]
    try:
        _assert_batch_matches_serial(
            net, algorithm, seeds, faults=plan, max_steps=3000,
        )
    except ProtocolViolationError:
        # Echo is not fault-tolerant; an aborted run is an algorithm
        # property, not a hint violation (identical-failure parity is
        # pinned by the conformance suite).
        pass


# ---------------------------------------------------------------------------
# Trial independence


@settings(max_examples=10, deadline=None)
@given(
    topo_seed=st.integers(0, 500),
    base_seed=st.integers(0, 10_000),
    permutation=st.permutations(list(range(4))),
)
def test_permuting_trial_seeds_permutes_results(topo_seed, base_seed, permutation):
    """A trial's outcome is a function of its seed alone: reordering the
    seed list reorders the results and changes nothing else."""
    net = gnp_connected(20, 0.25, seed=topo_seed)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    seeds = [base_seed + i for i in range(4)]

    straight = run_broadcast_batch(
        net, algorithm, seeds=seeds, engine="batched_event", max_steps=4000,
    )
    permuted_seeds = [seeds[i] for i in permutation]
    permuted = run_broadcast_batch(
        net, algorithm, seeds=permuted_seeds, engine="batched_event",
        max_steps=4000,
    )
    by_seed = {result.seed: result for result in straight}
    for result in permuted:
        reference = by_seed[result.seed]
        assert result.wake_times == reference.wake_times, result.seed
        assert result.time == reference.time, result.seed
        assert result.completed == reference.completed, result.seed


# ---------------------------------------------------------------------------
# Degenerate batch shapes, each in exact parity with the serial engine.


def test_single_trial_batch_matches_serial():
    net = gnp_connected(24, 0.2, seed=3)
    _assert_batch_matches_serial(
        net, SelectAndSend(), [7], trace_level=TraceLevel.FULL, max_steps=4000,
    )


def test_single_node_network():
    """n=1: the source is every node — informed at birth, zero slots."""
    net = path(1)
    batched = _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1, 2], max_steps=100,
    )
    for result in batched:
        assert result.completed
        assert result.time == 0
        assert result.informed == 1
        assert result.wake_times == {net.source: -1}


def test_batch_settled_before_first_slot():
    """Crashing every non-source node at slot 0 settles the batch before
    any slot runs: nothing further can wake, zero slots execute."""
    net = path(5)
    plan = FaultPlan(
        crashes=tuple((label, 0) for label in set(net.nodes) - {net.source}),
    )
    engine = BatchedEventEngine(net, SelectAndSend(), seeds=[0, 1], faults=plan)
    executed = engine.run(100)
    assert executed == 0 or engine.all_settled
    _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1], faults=plan, max_steps=100,
    )


def test_batch_where_every_trial_settles_on_first_slot():
    """On a star the source informs every leaf in slot 0: each trial
    settles on the very first slot and the batch stops with it."""
    net = star(8)
    algorithm = RoundRobinBroadcast(net.r)
    batched = _assert_batch_matches_serial(
        net, algorithm, [0, 1, 5], max_steps=100,
    )
    for result in batched:
        assert result.completed
        assert result.time == 1
        assert all(slot == 0 for label, slot in result.wake_times.items()
                   if label != net.source)


def test_zero_step_budget():
    net = path(6)
    batched = _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1], max_steps=0,
    )
    for result in batched:
        assert not result.completed
        assert result.time == 0
        assert result.informed == 1


@pytest.mark.parametrize("budget", [20, 24, 1000])
def test_run_returns_the_longest_trial_advance(budget):
    """Four randomized classes run out of step (KP on G(30, 0.15) takes
    19, 21, 26 and 28 slots for seeds 3, 0, 2, 1).  Whether the budget
    cuts some trials short or none, the batch returns the largest
    slot count any serial run executed, and every trial ends as its
    serial run did."""
    net = gnp_connected(30, 0.15, seed=0)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    seeds = [0, 1, 2, 3]
    executed = [
        EventDrivenEngine(net, algorithm, seed=seed).run(budget) for seed in seeds
    ]
    serial = _serial_results(net, algorithm, seeds, max_steps=budget)
    if budget < 1000:
        assert any(r.completed for r in serial)
        assert not all(r.completed for r in serial)

    engine = BatchedEventEngine(net, algorithm, seeds=seeds)
    assert engine.execution_classes == len(seeds)
    assert engine.run(budget) == max(executed)

    batched = run_broadcast_batch(
        net, algorithm, seeds=seeds, engine="batched_event", max_steps=budget,
    )
    for from_batch, reference in zip(batched, serial):
        assert from_batch.time == reference.time, reference.seed
        assert from_batch.completed == reference.completed, reference.seed
        assert from_batch.wake_times == reference.wake_times, reference.seed


# ---------------------------------------------------------------------------
# Constructor validation


def test_rejects_empty_seed_list():
    with pytest.raises(ConfigurationError):
        BatchedEventEngine(path(4), SelectAndSend(), seeds=[])


def test_rejects_mismatched_step_hooks():
    with pytest.raises(ConfigurationError):
        BatchedEventEngine(
            path(4), SelectAndSend(), seeds=[0, 1], step_hooks=[None],
        )


def test_rejects_negative_budget():
    engine = BatchedEventEngine(path(4), SelectAndSend(), seeds=[0])
    with pytest.raises(ConfigurationError):
        engine.run(-1)


def test_duplicate_seeds_share_one_execution_class():
    net = gnp_connected(20, 0.25, seed=1)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    engine = BatchedEventEngine(net, algorithm, seeds=[3, 9, 3, 9, 3])
    assert engine.execution_classes == 2
    engine.run(4000)
    assert engine.wake_times(0) == engine.wake_times(2) == engine.wake_times(4)
    assert engine.wake_times(1) == engine.wake_times(3)


def test_deterministic_lossless_batch_collapses_to_one_class():
    net = path(10)
    engine = BatchedEventEngine(net, SelectAndSend(), seeds=[0, 1, 2, 3])
    assert engine.execution_classes == 1
    engine.run(4000)
    assert engine.all_informed
    # Per-trial accessors still answer for every trial.
    assert engine.completion_times().count(engine.completion_times()[0]) == 4


def test_second_run_is_refused_with_its_cause():
    """Per-class metrics merge into the shared registry once per batch, so
    a batch cannot resume: after 10 slots a second ``run(100)`` raises
    instead of silently recording nothing, and the registry keeps exactly
    what the two 10-slot serial runs record."""
    net = gnp_connected(30, 0.15, seed=0)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    serial = MetricsRegistry()
    for seed in (0, 1):
        EventDrivenEngine(net, algorithm, seed=seed, metrics=serial).run(10)
    shared = MetricsRegistry()
    engine = BatchedEventEngine(net, algorithm, seeds=[0, 1], metrics=shared)
    assert engine.run(10) == 10
    snapshot = shared.to_dict()
    assert shared.counters["engine_slots"].value == 20
    assert snapshot["counters"] == serial.to_dict()["counters"]
    with pytest.raises(ConfigurationError, match="already called"):
        engine.run(100)
    assert shared.to_dict() == snapshot
