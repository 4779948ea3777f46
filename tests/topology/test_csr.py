"""CSR-native topology generation: structure, determinism, and exact
equivalence with the legacy (dict-of-sets) layered builders."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import guard
from repro.sim.channel import ChannelKernel
from repro.sim.errors import ConfigurationError
from repro.sim.fast import run_broadcast_fast
from repro.core.randomized import KnownRadiusKP
from repro.topology import (
    CSRNetwork,
    complete_layered,
    complete_layered_csr,
    gnp_random_csr,
    km_hard_layered,
    km_hard_layered_csr,
    uniform_complete_layered,
    uniform_complete_layered_csr,
)
from repro.topology import csr as csr_module


def _edge_set(net) -> set[tuple[int, int]]:
    """Undirected edge set of any network exposing ``out_neighbors``."""
    return {
        (min(u, v), max(u, v))
        for u, nbrs in net.out_neighbors.items()
        for v in nbrs
    }


def _csr_edge_set(net: CSRNetwork) -> set[tuple[int, int]]:
    indptr, indices = net.csr_arrays()
    src = np.repeat(np.arange(net.n), np.diff(indptr))
    return {(min(u, v), max(u, v)) for u, v in zip(src.tolist(), indices.tolist())}


class TestCSRNetworkStructure:
    def test_gnp_is_simple_symmetric_and_connected(self):
        net = gnp_random_csr(800, 9 / 800, seed=4)
        indptr, indices = net.csr_arrays()
        src = np.repeat(np.arange(net.n), np.diff(indptr))
        assert not np.any(src == indices), "self-loops"
        pairs = set(zip(src.tolist(), indices.tolist()))
        assert len(pairs) == len(indices), "duplicate edges"
        assert all((v, u) in pairs for u, v in pairs), "asymmetric edge"
        # rows sorted (CSR canonical form, required by the kernels)
        for i in (0, 1, net.n // 2, net.n - 1):
            row = indices[indptr[i]:indptr[i + 1]]
            assert np.all(np.diff(row) > 0)
        depths = net.depths_array()
        assert depths[0] == 0 and np.all(depths >= 0), "disconnected node"

    def test_gnp_deterministic_per_seed(self):
        a = gnp_random_csr(300, 10 / 300, seed=9)
        b = gnp_random_csr(300, 10 / 300, seed=9)
        c = gnp_random_csr(300, 10 / 300, seed=10)
        assert np.array_equal(a.csr_arrays()[1], b.csr_arrays()[1])
        assert not np.array_equal(a.csr_arrays()[1], c.csr_arrays()[1])

    def test_gnp_density_tracks_p(self):
        n, p = 2000, 8 / 2000
        net = gnp_random_csr(n, p, seed=0)
        expected = p * n * (n - 1) / 2
        assert 0.7 * expected < net.num_edges < 1.4 * expected

    def test_sparse_gnp_augmented_to_connected(self):
        # Far below the connectivity threshold: augmentation must kick in
        # and still yield one component with every edge symmetric.
        net = gnp_random_csr(500, 1.5 / 500, seed=2)
        assert np.all(net.depths_array() >= 0)
        pairs = _csr_edge_set(net)
        assert len(pairs) >= net.n - 1

    def test_resample_mode_raises_when_hopeless(self):
        with pytest.raises(ConfigurationError):
            gnp_random_csr(400, 0.5 / 400, seed=0, connect="resample",
                           max_attempts=3)

    def test_layers_and_radius_match_bfs(self):
        net = gnp_random_csr(400, 10 / 400, seed=1)
        depths = net.depths_array()
        assert net.radius == int(depths.max())
        for d, layer in enumerate(net.layers()):
            assert sorted(layer) == np.flatnonzero(depths == d).tolist()


class TestLegacyEquivalence:
    """The CSR builders reproduce the legacy generators edge for edge."""

    def test_km_hard_layered_exact(self):
        for n, depth, seed in [(60, 4, 0), (97, 6, 3), (200, 8, 11)]:
            legacy = km_hard_layered(n, depth, seed=seed)
            csr = km_hard_layered_csr(n, depth, seed=seed)
            assert csr.n == legacy.n and csr.r == legacy.r
            assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_uniform_complete_layered_exact(self):
        for n, depth, relabel in [(50, 5, None), (80, 4, 7)]:
            legacy = uniform_complete_layered(n, depth, relabel_seed=relabel)
            csr = uniform_complete_layered_csr(n, depth, relabel_seed=relabel)
            assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_complete_layered_exact(self):
        legacy = complete_layered([1, 4, 9, 2], relabel_seed=13)
        csr = complete_layered_csr([1, 4, 9, 2], relabel_seed=13)
        assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_to_radio_network_round_trip(self):
        csr = km_hard_layered_csr(80, 5, seed=1)
        net = csr.to_radio_network()
        assert _edge_set(net) == _csr_edge_set(csr)
        assert net.r == csr.r and net.source == 0


class TestEngineAdoption:
    def test_channel_kernel_adopts_csr_zero_copy(self):
        net = gnp_random_csr(200, 12 / 200, seed=5)
        kernel = ChannelKernel(net)
        indptr, indices = net.csr_arrays()
        assert kernel.indptr is indptr and kernel.indices is indices
        assert kernel.index[7] == 7 and kernel.index.get(net.n) is None
        with pytest.raises(KeyError):
            kernel.index[net.n]

    def test_fast_engine_identical_on_csr_and_converted(self):
        csr = km_hard_layered_csr(90, 5, seed=4)
        legacy = csr.to_radio_network()
        for seed in (0, 1):
            a = run_broadcast_fast(csr, KnownRadiusKP(csr.r, csr.radius),
                                   seed=seed)
            b = run_broadcast_fast(legacy, KnownRadiusKP(legacy.r, csr.radius),
                                   seed=seed)
            assert a.wake_times == b.wake_times
            assert a.time == b.time and a.layer_times == b.layer_times


def _legacy_gnp_arrays(n, p, seed, connect="augment", max_attempts=200):
    """The G(n, p) assembly as first written: a lexsort of both edge
    directions, an ``np.unique`` frontier BFS, and a full rebuild after
    augmenting.  Sampling and pair decoding are shared."""

    def csr_from_edges(src, dst):
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        indices = all_dst[np.lexsort((all_dst, all_src))]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_src, minlength=n), out=indptr[1:])
        return indptr, indices.astype(np.int64, copy=False)

    def bfs(indptr, indices):
        depths = np.full(n, -1, dtype=np.int64)
        depths[0] = 0
        frontier, depth = np.array([0], dtype=np.int64), 0
        while frontier.size:
            nbrs = csr_module._gather_rows(indptr, indices, frontier)
            nbrs = nbrs[depths[nbrs] < 0]
            if nbrs.size == 0:
                break
            frontier = np.unique(nbrs)
            depth += 1
            depths[frontier] = depth
        return depths

    def augment(indptr, indices, depths, src, dst, rng):
        reached = depths >= 0
        source_comp = np.flatnonzero(reached)
        extra_src, extra_dst = [], []
        visited = reached.copy()
        for v in range(n):
            if visited[v]:
                continue
            comp = [v]
            visited[v] = True
            frontier = np.array([v], dtype=np.int64)
            while frontier.size:
                nbrs = csr_module._gather_rows(indptr, indices, frontier)
                nbrs = np.unique(nbrs[~visited[nbrs]])
                visited[nbrs] = True
                comp.extend(int(u) for u in nbrs)
                frontier = nbrs
            extra_src.append(int(comp[int(rng.integers(len(comp)))]))
            extra_dst.append(int(source_comp[int(rng.integers(len(source_comp)))]))
        return (
            np.concatenate([src, np.array(extra_src, dtype=np.int64)]),
            np.concatenate([dst, np.array(extra_dst, dtype=np.int64)]),
        )

    attempts = max_attempts if connect == "resample" else 1
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        pos = csr_module._sample_pair_positions(n * (n - 1) // 2, p, rng)
        src, dst = csr_module._decode_pair_positions(pos, n)
        indptr, indices = csr_from_edges(src, dst)
        depths = bfs(indptr, indices)
        if int(depths.min()) >= 0:
            return indptr, indices, depths
        if connect == "augment":
            src, dst = augment(indptr, indices, depths, src, dst, rng)
            indptr, indices = csr_from_edges(src, dst)
            return indptr, indices, bfs(indptr, indices)
    return None


def _digest(net: CSRNetwork) -> str:
    return hashlib.sha256(
        net.indptr.tobytes() + net.indices.tobytes() + net.depths_array().tobytes()
    ).hexdigest()


class TestGeneratorOutputPinned:
    """``gnp_random_csr`` output is part of every seeded result: these
    digests of ``indptr || indices || depths`` must never move without a
    versioned generator."""

    @pytest.mark.parametrize("n, avg_degree, seed, connect, expected", [
        (100_000, 12, 0, "augment",
         "f038a10b7c048f230d1ac6c78c0458a512b91651b1d09e91541c9cc569342a31"),
        (5000, 1.5, 3, "augment",
         "33f218b04b9e3e7e6d2d3f9f266c749838bf5598f029085475dcdc11db71366f"),
        (2000, 3, 5, "augment",
         "6c379a988ad49910b69908de6bd5a3c39caa9a61d7c1a49a15f7a44f568023c5"),
        # 17 attempts: the first connected draw is seed 17.
        (2000, 7, 1, "resample",
         "79191bf197db6a80020c60ef71f85044a976de1fd7cfe46eb404fc6acad28c92"),
    ])
    def test_digest(self, n, avg_degree, seed, connect, expected):
        net = gnp_random_csr(n, avg_degree / n, seed=seed, connect=connect)
        assert _digest(net) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        avg_degree=st.floats(1.0, 12.0),
        seed=st.integers(0, 2**16),
        connect=st.sampled_from(["augment", "resample"]),
    )
    def test_matches_legacy_assembly(self, n, avg_degree, seed, connect):
        p = min(1.0, avg_degree / n)
        legacy = _legacy_gnp_arrays(n, p, seed, connect, max_attempts=3)
        if legacy is None:
            with pytest.raises(ConfigurationError):
                gnp_random_csr(n, p, seed=seed, connect=connect, max_attempts=3)
            return
        net = gnp_random_csr(n, p, seed=seed, connect=connect, max_attempts=3)
        for new, old in zip((net.indptr, net.indices, net.depths_array()), legacy):
            assert new.dtype == old.dtype and np.array_equal(new, old)


class TestGnpValidation:
    @pytest.mark.parametrize("n", [10.0, 10.5, "10", True, None])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            gnp_random_csr(n, 0.5)

    def test_numpy_integer_n_accepted(self):
        assert gnp_random_csr(np.int64(40), 0.3, seed=1).n == 40

    def test_pair_count_past_float_exactness_refused(self):
        # (2^27 + 1) * 2^27 / 2 = 2^53 + 2^26 pairs; refused before any
        # allocation, whatever p is.
        with pytest.raises(ConfigurationError, match="2\\^53"):
            gnp_random_csr(2**27 + 1, 1e-12, allow_large=True)

    def test_oversized_request_refused_before_sampling(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        with pytest.raises(ConfigurationError) as info:
            gnp_random_csr(10**7, 100 / 10**7)
        message = str(info.value)
        assert "bytes" in message and "allow_large=True" in message
        assert guard.ALLOW_LARGE_ENV in message

    def test_topology_budget_limits_and_overrides(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        edges = 100 * 10**7 / 2
        with pytest.raises(ConfigurationError):
            guard.check_topology_budget(10**7, edges)
        guard.check_topology_budget(10**7, edges, allow_large=True)
        # The 10^6-node, average-degree-12 rung sits far below the limit.
        guard.check_topology_budget(10**6, 12 * 10**6 / 2)
        guard.check_topology_budget(10**7, 12 * 10**7 / 2)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "1")
        guard.check_topology_budget(10**7, edges)


class TestLayeredGuard:
    @pytest.mark.parametrize(
        "build",
        [
            # [1, 99999, 100000]: ~10^10 edges, ~320 GB estimated.
            lambda: uniform_complete_layered_csr(200_000, 2),
            lambda: km_hard_layered_csr(10**6, 2, seed=0),
            lambda: complete_layered_csr([1, 50_000, 50_000, 50_000]),
        ],
    )
    def test_oversized_request_refused_before_allocating(self, build, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError) as info:
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"allocated {peak:,} bytes before refusing"
        message = str(info.value)
        assert "bytes" in message and "allow_large=True" in message
        assert guard.ALLOW_LARGE_ENV in message

    def test_exact_edge_count_and_override_reach_the_guard(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            csr_module, "check_topology_budget",
            lambda n, edges, allow_large=False: calls.append((n, edges, allow_large)),
        )
        net = complete_layered_csr([1, 4, 9, 2], allow_large=True)
        uniform_complete_layered_csr(13, 3, allow_large=True)
        km_hard_layered_csr(40, 4, seed=2)
        assert calls[0] == (16, 1 * 4 + 4 * 9 + 9 * 2, True)
        assert calls[0][1] == net.num_edges
        assert calls[1][2] is True and calls[2][2] is False
