"""Connected-component utilities.

The paper reports all metrics on the giant connected component (GCC) of the
generated graphs, because pseudograph/stochastic constructions may leave a
few tiny components behind.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.simple_graph import SimpleGraph


def connected_components(graph: SimpleGraph) -> Iterator[list[int]]:
    """Yield connected components as lists of node ids (BFS based).

    Each component lists its nodes in BFS discovery order; the list doubles
    as the BFS queue.
    """
    adj = graph._adj
    seen = [False] * len(adj)
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for u in component:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
        yield component


def number_of_components(graph: SimpleGraph) -> int:
    """Number of connected components (0 for the empty graph)."""
    return sum(1 for _ in connected_components(graph))


def is_connected(graph: SimpleGraph) -> bool:
    """True when the graph has exactly one connected component."""
    if graph.number_of_nodes == 0:
        return False
    return number_of_components(graph) == 1


def largest_component_nodes(graph: SimpleGraph) -> list[int]:
    """Node ids of the largest connected component (empty graph -> [])."""
    best: list[int] = []
    for component in connected_components(graph):
        if len(component) > len(best):
            best = component
    return best


def giant_component(graph: SimpleGraph) -> SimpleGraph:
    """Induced subgraph on the largest connected component, relabelled."""
    nodes = largest_component_nodes(graph)
    sub, _ = graph.subgraph(sorted(nodes))
    return sub


def component_size_distribution(graph: SimpleGraph) -> dict[int, int]:
    """Mapping ``component size -> number of components of that size``."""
    sizes: dict[int, int] = {}
    for component in connected_components(graph):
        size = len(component)
        sizes[size] = sizes.get(size, 0) + 1
    return sizes


__all__ = [
    "connected_components",
    "number_of_components",
    "is_connected",
    "largest_component_nodes",
    "giant_component",
    "component_size_distribution",
]
