"""Radio network model.

A radio network (Section 1.3 of the paper) is a connected graph on nodes
with distinct labels from ``{0, ..., r}`` where ``r`` is linear in the number
of nodes ``n``.  Label ``0`` is the source.  Each node knows a priori only
its own label and ``r``.

Section 2 of the paper analyses the randomized algorithm on *directed*
graphs, so :class:`RadioNetwork` supports both orientations: an edge
``(u, v)`` means ``u``'s transmitter reaches ``v``.  Undirected networks are
stored with both directions present.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import networkx as nx

from .errors import NetworkError

__all__ = ["RadioNetwork", "as_radio_network"]


def as_radio_network(network) -> "RadioNetwork":
    """``network`` with adjacency dicts: CSR-native topologies
    (:class:`~repro.topology.csr.CSRNetwork`) convert, anything else is
    returned as is.  The per-node engines and the known-topology baselines
    read ``out_neighbors`` and call this first."""
    convert = getattr(network, "to_radio_network", None)
    return convert() if convert is not None else network


@dataclass(frozen=True, eq=False)
class RadioNetwork:
    """An immutable radio network.

    Use the classmethod constructors (:meth:`undirected`, :meth:`directed`,
    :meth:`from_networkx`) rather than the raw constructor; they normalise
    and validate the topology.

    Attributes:
        out_neighbors: Map from label to the sorted tuple of labels its
            transmissions can reach.
        in_neighbors: Map from label to the sorted tuple of labels whose
            transmissions it can hear.  Identical to ``out_neighbors`` for
            undirected networks.
        r: Upper bound on labels known to every node.  Defaults to the
            largest label present.
        is_directed: Whether the network was built as a directed graph.
    """

    out_neighbors: Mapping[int, tuple[int, ...]]
    in_neighbors: Mapping[int, tuple[int, ...]]
    r: int
    is_directed: bool = False
    _layers_cache: list[tuple[int, ...]] = field(
        default=None, repr=False, compare=False, hash=False
    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def undirected(
        cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]], r: int | None = None
    ) -> "RadioNetwork":
        """Build an undirected radio network from labels and edges.

        Args:
            nodes: All node labels, including the source ``0``.
            edges: Unordered pairs of labels; both directions are added.
            r: Label upper bound known to the nodes.  Defaults to the
                maximum label present.

        Raises:
            NetworkError: If validation fails (see :meth:`validate`).
        """
        node_set = set(nodes)
        adj: dict[int, set[int]] = {v: set() for v in node_set}
        for u, v in edges:
            if u == v:
                raise NetworkError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise NetworkError(f"edge ({u}, {v}) references an unknown node")
            adj[u].add(v)
            adj[v].add(u)
        frozen = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        net = cls(
            out_neighbors=frozen,
            in_neighbors=frozen,
            r=max(node_set) if r is None else r,
            is_directed=False,
        )
        net.validate()
        return net

    @classmethod
    def directed(
        cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]], r: int | None = None
    ) -> "RadioNetwork":
        """Build a directed radio network; edge ``(u, v)`` points u -> v."""
        node_set = set(nodes)
        out: dict[int, set[int]] = {v: set() for v in node_set}
        inn: dict[int, set[int]] = {v: set() for v in node_set}
        for u, v in edges:
            if u == v:
                raise NetworkError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise NetworkError(f"edge ({u}, {v}) references an unknown node")
            out[u].add(v)
            inn[v].add(u)
        net = cls(
            out_neighbors={v: tuple(sorted(s)) for v, s in out.items()},
            in_neighbors={v: tuple(sorted(s)) for v, s in inn.items()},
            r=max(node_set) if r is None else r,
            is_directed=True,
        )
        net.validate()
        return net

    @classmethod
    def from_networkx(cls, graph: nx.Graph, r: int | None = None) -> "RadioNetwork":
        """Build from a :mod:`networkx` graph with integer node labels."""
        if graph.is_directed():
            return cls.directed(graph.nodes, graph.edges, r=r)
        return cls.undirected(graph.nodes, graph.edges, r=r)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the model constraints of Section 1.3.

        Ensures labels are distinct non-negative integers bounded by ``r``,
        the source (label ``0``) exists, and every node is reachable from
        the source — otherwise broadcasting could never complete.

        Raises:
            NetworkError: On any violation.
        """
        labels = set(self.out_neighbors)
        if 0 not in labels:
            raise NetworkError("network has no source: a node with label 0 is required")
        for v in labels:
            if not isinstance(v, int) or v < 0:
                raise NetworkError(f"label {v!r} is not a non-negative integer")
            if v > self.r:
                raise NetworkError(f"label {v} exceeds the declared bound r={self.r}")
        reachable = set()
        queue: deque[int] = deque([0])
        reachable.add(0)
        while queue:
            u = queue.popleft()
            for w in self.out_neighbors[u]:
                if w not in reachable:
                    reachable.add(w)
                    queue.append(w)
        if reachable != labels:
            missing = sorted(labels - reachable)[:10]
            raise NetworkError(
                f"{len(labels) - len(reachable)} node(s) unreachable from the source, "
                f"e.g. {missing}"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        """All node labels in increasing order."""
        return tuple(sorted(self.out_neighbors))

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.out_neighbors)

    @property
    def source(self) -> int:
        """The source label (always 0 in this model)."""
        return 0

    def __contains__(self, label: int) -> bool:
        return label in self.out_neighbors

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def degree(self, label: int) -> int:
        """Out-degree of ``label`` (== degree for undirected networks)."""
        return len(self.out_neighbors[label])

    def in_degree(self, label: int) -> int:
        """In-degree of ``label`` (== degree for undirected networks)."""
        return len(self.in_neighbors[label])

    @property
    def num_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        total = sum(len(nbrs) for nbrs in self.out_neighbors.values())
        return total if self.is_directed else total // 2

    @property
    def max_in_degree(self) -> int:
        """Largest in-degree in the network."""
        return max(len(nbrs) for nbrs in self.in_neighbors.values())

    # ------------------------------------------------------------------
    # Layers and radius
    # ------------------------------------------------------------------

    def layers(self) -> list[tuple[int, ...]]:
        """BFS layers from the source.

        ``layers()[j]`` is the sorted tuple of nodes at (directed) distance
        ``j`` from the source; the paper calls this the *jth layer*.
        """
        if self._layers_cache is not None:
            return self._layers_cache
        dist = {0: 0}
        order: list[list[int]] = [[0]]
        queue: deque[int] = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.out_neighbors[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    while len(order) <= dist[w]:
                        order.append([])
                    order[dist[w]].append(w)
                    queue.append(w)
        result = [tuple(sorted(layer)) for layer in order]
        # Cache on the frozen dataclass via object.__setattr__ (immutable facade).
        object.__setattr__(self, "_layers_cache", result)
        return result

    @property
    def radius(self) -> int:
        """Eccentricity of the source: the paper's parameter ``D``."""
        return len(self.layers()) - 1

    def distances_from_source(self) -> dict[int, int]:
        """Map each node to its BFS distance from the source."""
        return {v: j for j, layer in enumerate(self.layers()) for v in layer}

    def is_complete_layered(self) -> bool:
        """Whether adjacent pairs are exactly those in consecutive layers.

        This is the paper's *complete layered network* (Section 4.3); the
        check works for both orientations.
        """
        layer_of = self.distances_from_source()
        layers = self.layers()
        for v, nbrs in self.out_neighbors.items():
            j = layer_of[v]
            expected: set[int] = set()
            if not self.is_directed and j > 0:
                expected.update(layers[j - 1])
            if j + 1 < len(layers):
                expected.update(layers[j + 1])
            if set(nbrs) != expected:
                return False
        return True

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Export to a :mod:`networkx` graph (DiGraph when directed)."""
        graph: nx.Graph = nx.DiGraph() if self.is_directed else nx.Graph()
        graph.add_nodes_from(self.nodes)
        for u, nbrs in self.out_neighbors.items():
            for v in nbrs:
                graph.add_edge(u, v)
        return graph

    def as_directed(self) -> "RadioNetwork":
        """Return a directed copy (each undirected edge becomes two arcs)."""
        if self.is_directed:
            return self
        edges = [(u, v) for u, nbrs in self.out_neighbors.items() for v in nbrs]
        return RadioNetwork.directed(self.nodes, edges, r=self.r)

    def describe(self) -> str:
        """One-line human-readable summary used by examples and the CLI."""
        kind = "directed" if self.is_directed else "undirected"
        return (
            f"{kind} radio network: n={self.n}, r={self.r}, D={self.radius}, "
            f"edges={self.num_edges}, max_in_degree={self.max_in_degree}"
        )
