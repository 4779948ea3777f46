"""Sparse slot execution of the batched engine: every path, one answer.

:class:`~repro.sim.fast.BatchedFastEngine` pays per slot only for its
live work: :meth:`~repro.sim.coins.CoinSource.thin` flips coins at live
cells only, and :meth:`~repro.sim.channel.ChannelKernel.hit_counts`
gathers the transmitters' edges while they are sparse.  Each has a dense
fallback chosen by an internal crossover constant.  These tests hold
both paths of both layers to the dense definitions, and force each path
through whole engine runs to check that results, fault counters,
metrics and FULL traces never depend on the crossover.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.sim.channel as channel_module
import repro.sim.coins as coins_module
from repro.obs.metrics import MetricsRegistry
from repro.sim.channel import ChannelKernel
from repro.sim.coins import CoinSource, derive_trial_seeds
from repro.sim.fast import run_broadcast_batch
from repro.sim.network import RadioNetwork
from repro.sim.trace import TraceLevel

from .conformance import (
    OBLIVIOUS_ALGORITHMS,
    OBLIVIOUS_PLANS,
    OBLIVIOUS_TOPOLOGIES,
    SEEDS,
    assert_results_match,
)

SETTINGS = settings(max_examples=40, deadline=None)


@contextmanager
def forced(gather_density: float | None = None, thin_dense_share: float | None = None):
    """Pin the crossovers, so that every call takes one path."""
    with pytest.MonkeyPatch.context() as patch:
        if gather_density is not None:
            patch.setattr(channel_module, "_GATHER_DENSITY", gather_density)
        if thin_dense_share is not None:
            patch.setattr(coins_module, "_THIN_DENSE_SHARE", thin_dense_share)
        yield


@st.composite
def kernels(draw):
    """A random directed or undirected network on shuffled, gappy labels
    (every node reachable from the source), compiled to a kernel."""
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = [0] + sorted(rng.choice(np.arange(1, 4 * n), n - 1, replace=False).tolist())
    order = [0] + rng.permutation(labels[1:]).tolist()
    # A spanning tree from the source keeps every node reachable.
    edges = {(order[rng.integers(0, i)], order[i]) for i in range(1, n)}
    density = draw(st.sampled_from([0.0, 0.1, 0.5]))
    for u in labels:
        for v in labels:
            if u != v and rng.random() < density:
                edges.add((u, v))
    if draw(st.booleans()):
        net = RadioNetwork.directed(labels, sorted(edges))
    else:
        net = RadioNetwork.undirected(labels, sorted(edges))
    return ChannelKernel(net)


@SETTINGS
@given(
    kernel=kernels(),
    trials=st.integers(1, 6),
    share=st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gathered_hit_counts_equal_adjacency_product(kernel, trials, share, seed):
    mask = np.random.default_rng(seed).random((trials, kernel.n)) < share
    expected = (kernel.adjacency_t @ mask.T.astype(np.int32)).T
    for crossover in (math.inf, 0.0):  # gather path, then product path
        with forced(gather_density=crossover):
            np.testing.assert_array_equal(kernel.hit_counts(mask), expected)


@SETTINGS
@given(kernel=kernels(), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40))
def test_gather_concatenates_neighbour_lists(kernel, seed, size):
    rows = np.random.default_rng(seed).integers(0, kernel.n, size)
    cat, lengths = kernel.gather(rows)
    indptr, indices = kernel.indptr, kernel.indices
    slices = [indices[indptr[v]:indptr[v + 1]] for v in rows]
    np.testing.assert_array_equal(cat, np.concatenate(slices or [indices[:0]]))
    np.testing.assert_array_equal(lengths, [len(s) for s in slices])


probabilities = st.one_of(
    st.sampled_from([0.0, 0.5, 0.25, 2.0**-30, 1.0 - 2.0**-53, 1.0, 1.5, -0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


@SETTINGS
@given(
    n=st.integers(1, 60),
    trials=st.one_of(st.none(), st.integers(1, 6)),
    base_seed=st.integers(0, 2**32),
    step=st.integers(0, 2**40),
    p=probabilities,
    share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    mask_seed=st.integers(0, 2**32 - 1),
)
def test_thin_equals_dense_coin_rule(n, trials, base_seed, step, p, share, mask_seed):
    labels = np.arange(n, dtype=np.int64) * 3 + 1
    if trials is None:
        coins = CoinSource.for_run(base_seed, labels)
    else:
        coins = CoinSource.for_batch(derive_trial_seeds(base_seed, trials), labels)
    mask = np.random.default_rng(mask_seed).random(coins.shape) < share
    expected = mask & (coins.uniform(step) < p)
    for crossover in (math.inf, 0.0):  # gathered coins, then dense coins
        thinned = mask.copy()
        with forced(thin_dense_share=crossover):
            assert coins.thin(thinned, step, p) is thinned
        np.testing.assert_array_equal(thinned, expected)


def test_thin_is_exact_at_coin_boundaries():
    """``p`` equal to a coin, or one ulp either side of it: the integer
    comparison must agree with the float rule on every cell."""
    coins = CoinSource.for_batch([3, 4, 5], np.arange(50))
    for step in (0, 1, 99):
        uniform = coins.uniform(step)
        for coin in uniform.ravel()[:40]:
            for p in (np.nextafter(coin, 0.0), coin, np.nextafter(coin, 1.0)):
                for crossover in (math.inf, 0.0):
                    mask = np.ones(coins.shape, dtype=bool)
                    with forced(thin_dense_share=crossover):
                        coins.thin(mask, step, p)
                    np.testing.assert_array_equal(mask, uniform < p)


def test_thin_is_exact_when_the_dropped_bits_are_zero():
    """A coin keeps the top 53 bits of its 64-bit hash.  Where the 11
    dropped bits are all zero, the hash sits exactly on the integer bound
    of ``p = coin``, so only a strict comparison gives ``coin < p``."""
    found = []
    for label in range(20_000):
        hashed = coins_module._mix64(
            coins_module.node_key(7, label) ^ coins_module._step_salt(5)
        )
        if hashed & 0x7FF == 0:
            found.append(label)
    assert found, "no zero-tail hash among the labels searched"
    coins = CoinSource.for_run(7, np.array(found, dtype=np.int64))
    uniform = coins.uniform(5)
    for i, coin in enumerate(uniform):
        for p in (coin, np.nextafter(coin, 1.0)):
            for crossover in (math.inf, 0.0):
                mask = np.zeros(len(found), dtype=bool)
                mask[i] = True
                with forced(thin_dense_share=crossover):
                    coins.thin(mask, 5, p)
                assert mask[i] == (coin < p)


@SETTINGS
@given(trials=st.integers(1, 6), n=st.integers(1, 30), step=st.integers(0, 10_000),
       seed=st.integers(0, 2**32 - 1))
def test_uniform_at_takes_flat_indices(trials, n, step, seed):
    coins = CoinSource.for_batch(derive_trial_seeds(seed, trials), np.arange(n))
    idx = np.random.default_rng(seed).integers(0, trials * n, 2 * n)
    np.testing.assert_array_equal(
        coins.uniform_at(step, idx), coins.uniform(step).ravel()[idx]
    )


def test_thin_rejects_a_mask_that_is_not_shaped_like_the_keys():
    coins = CoinSource.for_batch([1, 2], np.arange(5))
    with pytest.raises(ValueError, match="shape"):
        coins.thin(np.ones(5, dtype=bool), 3, 0.5)
    with pytest.raises(ValueError, match="C-contiguous"):
        coins.thin(np.ones((5, 2), dtype=bool).T, 3, 0.5)


# -- whole runs: the crossovers never change an execution ----------------

#: Gather hit counts with gathered coins, then products with dense coins.
PATHS = ((math.inf, math.inf), (0.0, 0.0))


def _run_forced(path, net, algo, plan):
    metrics = MetricsRegistry()
    with forced(*path):
        results = run_broadcast_batch(
            net, OBLIVIOUS_ALGORITHMS[algo](net), seeds=SEEDS,
            engine="batched_fast", faults=OBLIVIOUS_PLANS[plan](net),
            max_steps=4000, metrics=metrics, trace_level=TraceLevel.FULL,
        )
    return results, metrics.to_dict()


@pytest.mark.parametrize("plan", sorted(OBLIVIOUS_PLANS))
@pytest.mark.parametrize("topology", sorted(OBLIVIOUS_TOPOLOGIES))
@pytest.mark.parametrize("algo", sorted(OBLIVIOUS_ALGORITHMS))
def test_channel_and_coin_paths_give_identical_runs(algo, topology, plan):
    net = OBLIVIOUS_TOPOLOGIES[topology]()
    (sparse, sparse_metrics), (dense, dense_metrics) = (
        _run_forced(path, net, algo, plan) for path in PATHS
    )
    for i, (mine, theirs) in enumerate(zip(sparse, dense)):
        assert_results_match(mine, theirs, (algo, topology, plan, i), compare_traces=True)
    assert sparse_metrics == dense_metrics
