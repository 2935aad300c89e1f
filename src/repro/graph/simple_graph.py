"""A lightweight mutable simple undirected graph.

The rewiring algorithms of the dK-series perform millions of elementary
operations: pick a uniformly random edge, delete it, insert another one, look
up adjacency, read degrees.  :class:`SimpleGraph` is designed so that all of
these are O(1):

* adjacency is a list of Python sets indexed by node id,
* the edge set is kept both as a dense list (for uniform random sampling)
  and as a position dictionary (for O(1) removal via swap-with-last).

Nodes are consecutive integers ``0 .. n-1``.  Self-loops and parallel edges
are rejected: the dK-series of the paper is defined on simple graphs.
Conversion helpers to and from :mod:`networkx` live in
:mod:`repro.graph.conversion`.
"""

from __future__ import annotations

import gc
from typing import Iterable, Iterator, Sequence

from repro.exceptions import GraphError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the edge ``(u, v)`` with endpoints in ascending order."""
    return (u, v) if u <= v else (v, u)


class SimpleGraph:
    """Mutable simple undirected graph with O(1) edge sampling.

    Parameters
    ----------
    n:
        Number of initial (isolated) nodes.
    edges:
        Optional iterable of ``(u, v)`` pairs to insert.  Node ids referenced
        by the edges must be smaller than ``n`` unless ``grow`` is true.
    grow:
        When true, node ids larger than ``n - 1`` appearing in ``edges``
        automatically enlarge the graph.
    """

    __slots__ = ("_adj", "_edges", "_edge_pos", "_csr_cache", "_measure_cache")

    def __init__(self, n: int = 0, edges: Iterable[Edge] | None = None, *, grow: bool = False):
        if n < 0:
            raise ValueError("n must be non-negative")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._edges: list[Edge] = []
        self._edge_pos: dict[Edge, int] = {}
        # CSR snapshot (a BigGraph) memoized by repro.kernels.biggraph.csr_graph,
        # and the measurement-intermediate cache of repro.measure.intermediates
        # (giant component, BFS sweep, triangle counts, ...); every mutation
        # resets both so kernels never see a stale view
        self._csr_cache = None
        self._measure_cache = None
        if edges is not None:
            for u, v in edges:
                if grow:
                    top = max(u, v)
                    while len(self._adj) <= top:
                        self._adj.append(set())
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # construction / basic accessors
    # ------------------------------------------------------------------ #
    @property
    def number_of_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._adj)

    @property
    def number_of_edges(self) -> int:
        """Number of edges in the graph."""
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._adj)

    def add_node(self) -> int:
        """Append an isolated node and return its id."""
        self._adj.append(set())
        self._csr_cache = None
        self._measure_cache = None
        return len(self._adj) - 1

    def add_nodes(self, count: int) -> list[int]:
        """Append ``count`` isolated nodes, returning their ids."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = len(self._adj)
        self._adj.extend(set() for _ in range(count))
        self._csr_cache = None
        self._measure_cache = None
        return list(range(first, first + count))

    def _check_node(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise GraphError(f"node {u} is not in the graph (n={len(self._adj)})")

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``.

        Returns ``True`` if the edge was inserted, ``False`` if it already
        existed.  Raises :class:`GraphError` on self-loops or unknown nodes.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed in a simple graph")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        edge = canonical_edge(u, v)
        self._edge_pos[edge] = len(self._edges)
        self._edges.append(edge)
        self._csr_cache = None
        self._measure_cache = None
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``; raises :class:`GraphError` if absent."""
        edge = canonical_edge(u, v)
        pos = self._edge_pos.get(edge)
        if pos is None:
            raise GraphError(f"edge {edge} is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        last = self._edges[-1]
        self._edges[pos] = last
        self._edge_pos[last] = pos
        self._edges.pop()
        del self._edge_pos[edge]
        self._csr_cache = None
        self._measure_cache = None

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when ``(u, v)`` is an edge of the graph."""
        if not (0 <= u < len(self._adj)):
            return False
        return v in self._adj[u]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj[u])

    def degrees(self) -> list[int]:
        """List of node degrees indexed by node id."""
        return [len(neigh) for neigh in self._adj]

    def neighbors(self, u: int) -> set[int]:
        """The set of neighbours of ``u`` (a reference; do not mutate)."""
        self._check_node(u)
        return self._adj[u]

    def nodes(self) -> range:
        """Iterable of node ids."""
        return range(len(self._adj))

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as canonical ``(u, v)`` pairs with ``u <= v``."""
        return iter(self._edges)

    def edge_list(self) -> list[Edge]:
        """A copy of the edge list."""
        return list(self._edges)

    def edge_at(self, index: int) -> Edge:
        """Edge stored at position ``index`` of the internal edge list.

        Combined with a uniform integer draw in ``[0, number_of_edges)`` this
        yields a uniformly random edge in O(1), which is the hot operation of
        all rewiring procedures.
        """
        return self._edges[index]

    # ------------------------------------------------------------------ #
    # aggregate quantities
    # ------------------------------------------------------------------ #
    def average_degree(self) -> float:
        """Average node degree ``2m / n`` (0 for the empty graph)."""
        n = len(self._adj)
        if n == 0:
            return 0.0
        return 2.0 * len(self._edges) / n

    def degree_histogram(self) -> dict[int, int]:
        """Mapping ``degree -> number of nodes with that degree``."""
        hist: dict[int, int] = {}
        for neigh in self._adj:
            k = len(neigh)
            hist[k] = hist.get(k, 0) + 1
        return hist

    def max_degree(self) -> int:
        """Largest node degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(neigh) for neigh in self._adj)

    # ------------------------------------------------------------------ #
    # copies and subgraphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "SimpleGraph":
        """Deep copy of the graph."""
        clone = SimpleGraph(len(self._adj))
        clone._adj = [set(neigh) for neigh in self._adj]
        clone._edges = list(self._edges)
        clone._edge_pos = dict(self._edge_pos)
        return clone

    def subgraph(self, nodes: Sequence[int]) -> tuple["SimpleGraph", dict[int, int]]:
        """Induced subgraph on ``nodes``, relabelled to ``0..len(nodes)-1``.

        Returns the new graph and the mapping ``old id -> new id``.
        """
        mapping = {old: new for new, old in enumerate(nodes)}
        kept = (
            (mapping[u], mapping[v]) for u, v in self._edges if u in mapping and v in mapping
        )
        return SimpleGraph._from_pairs(len(nodes), kept), mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (
            len(self._adj) == len(other._adj)
            and set(self._edges) == set(other._edges)
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __getstate__(self) -> dict:
        # the CSR cache is an in-process accelerator, not graph state: keep
        # pickles small and NumPy-free (worker processes rebuild on demand)
        return {"_adj": self._adj, "_edges": self._edges, "_edge_pos": self._edge_pos}

    def __setstate__(self, state: dict) -> None:
        self._adj = state["_adj"]
        self._edges = state["_edges"]
        self._edge_pos = state["_edge_pos"]
        self._csr_cache = None
        self._measure_cache = None

    def __repr__(self) -> str:
        return (
            f"SimpleGraph(n={self.number_of_nodes}, m={self.number_of_edges}, "
            f"kbar={self.average_degree():.3f})"
        )

    # ------------------------------------------------------------------ #
    # alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "SimpleGraph":
        """Build a graph from an edge iterable, growing nodes as needed."""
        return cls(0, edges=edges, grow=True)

    @classmethod
    def from_flat_edges(
        cls, n: int, edge_u: Sequence[int], edge_v: Sequence[int]
    ) -> "SimpleGraph":
        """Trusted bulk constructor from parallel endpoint arrays.

        Built for the vectorized rewiring engine, whose chain state is a flat
        edge-array pair: endpoints may be stored in either orientation, but
        the caller guarantees a *valid simple graph* (no self-loops, no
        duplicate edges, ids below ``n``) — nothing is validated here, which
        makes this several times faster than ``add_edge`` per edge.  The
        result is identical to inserting the edges one by one with
        ``add_edge``: same edge list, same positions, and the same iteration
        order of every adjacency set.
        """
        return cls._from_pairs(n, zip(edge_u, edge_v))

    @classmethod
    def _from_pairs(cls, n: int, pairs: Iterable[Edge]) -> "SimpleGraph":
        """Bulk body of :meth:`from_flat_edges` over ``(u, v)`` pairs.

        The cyclic garbage collector is paused meanwhile: the build allocates
        some ``m + n`` containers that all stay referenced, so collections
        triggered by those allocations would only rescan the live heap.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            graph = cls(n)
            edges = [(u, v) if u < v else (v, u) for u, v in pairs]
            adds = [neigh.add for neigh in graph._adj]
            for u, v in edges:
                adds[u](v)
                adds[v](u)
            graph._edges = edges
            graph._edge_pos = dict(zip(edges, range(len(edges))))
        finally:
            if was_enabled:
                gc.enable()
        return graph

    @classmethod
    def from_degree_sequence_nodes(cls, degrees: Sequence[int]) -> "SimpleGraph":
        """Create an edgeless graph with one node per entry of ``degrees``.

        This is a convenience used by the stub-matching generators which
        first allocate nodes for a target degree sequence and then connect
        them.
        """
        return cls(len(degrees))


__all__ = ["SimpleGraph", "Edge", "canonical_edge"]
