"""Differential spot checks on top of the conformance harness.

The full engine x algorithm x topology x fault-plan identity matrix now
lives in ``test_conformance.py``, driven by the shared harness in
``conformance.py`` (which owns the matrices this module used to define).
What remains here are the oblivious-path checks that do not fit the
uniform runner shape: single-run engine equality via the public
entry points, exercised exactly the way library users call them.
"""

from __future__ import annotations

import pytest

from repro.sim import run_broadcast, run_broadcast_batch, run_broadcast_fast

from .conformance import OBLIVIOUS_ALGORITHMS, OBLIVIOUS_TOPOLOGIES, SEEDS


@pytest.fixture(scope="module")
def networks():
    return {name: build() for name, build in OBLIVIOUS_TOPOLOGIES.items()}


@pytest.mark.parametrize("topo", sorted(OBLIVIOUS_TOPOLOGIES))
@pytest.mark.parametrize("algo_name", ["kp-known-d", "round-robin"])
def test_public_entry_points_agree(networks, topo, algo_name):
    """The user-facing drivers — one run each way — produce identical
    executions.  (The exhaustive matrix, incl. faults and the batched
    engines, is ``test_conformance.py``; this pins the public API shape:
    default arguments, one seed at a time.)"""
    net = networks[topo]
    make = OBLIVIOUS_ALGORITHMS[algo_name]

    batched = run_broadcast_batch(net, make(net), seeds=SEEDS)
    for seed, from_batch in zip(SEEDS, batched):
        reference = run_broadcast(
            net, make(net), seed=seed, engine="reference"
        )
        fast = run_broadcast_fast(net, make(net), seed=seed)

        assert reference.completed and fast.completed and from_batch.completed, (
            topo, algo_name, seed,
        )
        assert fast.wake_times == reference.wake_times, (topo, algo_name, seed)
        assert from_batch.wake_times == reference.wake_times, (topo, algo_name, seed)
        assert fast.time == reference.time == from_batch.time
        assert fast.layer_times == reference.layer_times == from_batch.layer_times
