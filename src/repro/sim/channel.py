"""Precompiled radio-channel kernel shared by the non-reference engines.

Channel resolution — "how many transmitting in-neighbours does each node
have, and who was the unique one?" — is the inner loop of every engine.
The reference :class:`~repro.sim.engine.SynchronousEngine` resolves it
with per-edge dict updates, which is exact but costs a Python-level
operation per edge per slot.  This module compiles the topology once into
flat CSR arrays so the two fast families share one kernel:

* :class:`~repro.sim.event.EventDrivenEngine` calls :meth:`ChannelKernel.
  resolve` with the (typically tiny) set of transmitter indices — a
  neighbour-slice gather (:meth:`ChannelKernel.gather`) plus one
  ``np.bincount``.
* :class:`~repro.sim.fast.BatchedFastEngine` calls
  :meth:`ChannelKernel.hit_counts` with its ``(trials, n)`` transmit
  mask: the same gather over every trial's transmitters while they are
  sparse, one product with the scipy :attr:`ChannelKernel.adjacency_t`
  matrix once they are dense.

Node *indices* are positions in the sorted label array
(:attr:`ChannelKernel.labels`), the same convention ``sim/fast.py`` has
always used.
"""

from __future__ import annotations

import numpy as np

from .network import RadioNetwork

__all__ = ["ChannelKernel"]

#: Transmitting share of the ``(trials, n)`` cells below which
#: :meth:`ChannelKernel.hit_counts` gathers the transmitters' edges
#: instead of multiplying by the whole adjacency.  Results never depend
#: on it; it trades the gather's per-edge cost (and its temporaries,
#: which grow with the share) against the product's cost of every edge.
_GATHER_DENSITY = 1 / 16
#: Row count below which :meth:`ChannelKernel.gather` slices row by row.
_SLICE_GATHER_ROWS = 8


class _IdentityIndex:
    """Label -> index map for identity-labelled (CSR-native) networks.

    Behaves like the dict the kernel builds for a
    :class:`~repro.sim.network.RadioNetwork` — ``index[label] == label``
    for every valid label — without materialising n dict entries.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, label: int) -> int:
        i = int(label)
        if not 0 <= i < self.n:
            raise KeyError(label)
        return i

    def __contains__(self, label: int) -> bool:
        return 0 <= int(label) < self.n

    def get(self, label: int, default=None):
        i = int(label)
        return i if 0 <= i < self.n else default

    def __len__(self) -> int:
        return self.n


class ChannelKernel:
    """CSR neighbour lists + bincount hit counting for one topology.

    Attributes:
        network: The compiled topology.
        n: Number of nodes.
        labels: ``int64`` array of node labels in increasing order; index
            ``i`` everywhere below refers to ``labels[i]``.
        index: Inverse map ``label -> index``.
        indptr / indices: Flat CSR out-neighbour lists over indices:
            node ``i`` reaches ``indices[indptr[i]:indptr[i + 1]]``.
    """

    def __init__(self, network: RadioNetwork):
        self.network = network
        self.n = network.n
        csr = getattr(network, "csr_arrays", None)
        if csr is not None:
            # CSR-native topology (repro.topology.csr.CSRNetwork): labels
            # are the identity 0..n-1 and the arrays already follow this
            # kernel's convention — adopt them without copying.
            self.indptr, self.indices = csr()
            self.labels = np.arange(self.n, dtype=np.int64)
            self.index = _IdentityIndex(self.n)
        else:
            self.labels = np.array(network.nodes, dtype=np.int64)
            self.index = {
                int(label): i for i, label in enumerate(self.labels)
            }
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            cols: list[int] = []
            for i, label in enumerate(self.labels):
                nbrs = network.out_neighbors[int(label)]
                indptr[i + 1] = indptr[i] + len(nbrs)
                cols.extend(self.index[v] for v in nbrs)
            self.indptr = indptr
            self.indices = np.array(cols, dtype=np.int64)
        # Written fresh on every resolve(); only entries with hits == 1
        # this slot are ever read, and those were written this slot.
        self._sender_buf = np.empty(self.n, dtype=np.int64)
        self._adjacency_t = None
        self._mask_buf: np.ndarray | None = None  # hit_counts' int32 (n, trials)

    # -- sparse-matrix view (the dense-slot form of the kernel) ------------

    @property
    def adjacency_t(self):
        """Sparse ``(n, n)`` int32 receiver -> sender matrix (CSR), for the
        batched dense-slot form ``(adj^T @ mask^T)^T`` of :meth:`hit_counts`.

        The kernel's sender-major CSR arrays read as CSC are exactly this
        transpose.  Built lazily so engines that never need the matrix
        form (the event-driven engine) keep scipy off their import path.
        """
        if self._adjacency_t is None:
            from scipy import sparse

            data = np.ones(len(self.indices), dtype=np.int32)
            self._adjacency_t = sparse.csc_matrix(
                (data, self.indices.astype(np.int32), self.indptr),
                shape=(self.n, self.n), dtype=np.int32,
            ).tocsr()
        return self._adjacency_t

    # -- transmitter gathers -----------------------------------------------

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour lists of ``rows``, concatenated in order.

        Returns ``(cat, lengths)``: ``cat`` is a fresh array equal to
        ``np.concatenate([indices[indptr[v]:indptr[v + 1]] for v in
        rows])`` and ``lengths[i]`` is row ``i``'s degree.  Beyond a few
        rows it is one vectorised range gather, with no Python-level work
        per row.
        """
        indptr = self.indptr
        starts = indptr[rows]
        lengths = indptr[rows + 1] - starts
        if len(rows) < _SLICE_GATHER_ROWS:
            # A few rows: slicing beats the vectorised gather's set-up.
            indices = self.indices
            return np.concatenate(
                [indices[a:a + k] for a, k in zip(starts.tolist(), lengths.tolist())]
                or [indices[:0]]
            ), lengths
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        pos = np.arange(total, dtype=np.int64)
        pos += np.repeat(starts - (ends - lengths), lengths)
        return self.indices[pos], lengths

    def hit_counts(self, mask: np.ndarray, live: int | None = None) -> np.ndarray:
        """Transmitting in-neighbours per node of a ``(trials, n)`` mask.

        ``hits[t, v]`` counts the transmitters of trial ``t`` that reach
        ``v``.  While fewer than ``_GATHER_DENSITY`` of the cells
        transmit, the transmitters' neighbour lists are gathered into one
        ``np.bincount`` (cost: their out-edges); otherwise the mask is
        multiplied by :attr:`adjacency_t` (cost: every edge, per trial).
        Both give the same counts.  ``live`` is ``np.count_nonzero(mask)``
        when the caller already has it.
        """
        trials, n = mask.shape
        if live is None:
            live = np.count_nonzero(mask)
        if live < _GATHER_DENSITY * mask.size:
            flat = mask.reshape(-1).nonzero()[0]
            nodes = flat % n
            cat, lengths = self.gather(nodes)
            cells = np.repeat(flat - nodes, lengths)  # trial * n, per edge
            cells += cat
            return np.bincount(cells, minlength=mask.size).reshape(trials, n)
        buf = self._mask_buf
        if buf is None or buf.shape != (n, trials):
            buf = self._mask_buf = np.empty((n, trials), dtype=np.int32)
        buf[:] = mask.T  # in-place bool -> int32 cast, no allocation
        # (adj^T @ mask^T)^T: sparse-first keeps scipy on its fast CSR
        # path for every trial count.
        return (self.adjacency_t @ buf).T

    def resolve(self, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one slot for a sparse set of transmitters.

        Args:
            tx: ``int64`` array of transmitting node *indices* (non-empty).

        Returns:
            ``(hits, sender_of, touched)``: ``hits[i]`` is the number of
            transmitting in-neighbours of node ``i``; ``sender_of[i]`` is
            the index of the transmitter heard at ``i``, valid exactly
            where ``hits[i] == 1`` (elsewhere it holds stale data);
            ``touched`` is the concatenation of the transmitters'
            neighbour lists — every index with ``hits > 0``, appearing
            once per hit, so callers can restrict their scans to the
            reached part of the network instead of all ``n`` nodes.
        """
        sender_of = self._sender_buf
        if len(tx) == 1:
            t = int(tx[0])
            cat = self.indices[self.indptr[t]:self.indptr[t + 1]]
            sender_of[cat] = t
        else:
            cat, lengths = self.gather(tx)
            sender_of[cat] = np.repeat(tx, lengths)
        hits = np.bincount(cat, minlength=self.n)
        return hits, sender_of, cat
