"""Unit tests for the SimpleGraph substrate."""

import gc
import random

import pytest

from repro.exceptions import GraphError
from repro.graph.simple_graph import SimpleGraph, canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        graph = SimpleGraph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert graph.average_degree() == 0.0

    def test_isolated_nodes(self):
        graph = SimpleGraph(5)
        assert graph.number_of_nodes == 5
        assert graph.degrees() == [0, 0, 0, 0, 0]

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            SimpleGraph(-1)

    def test_from_edges_grows_nodes(self):
        graph = SimpleGraph.from_edges([(0, 5), (2, 3)])
        assert graph.number_of_nodes == 6
        assert graph.number_of_edges == 2

    def test_constructor_with_edges(self):
        graph = SimpleGraph(4, edges=[(0, 1), (2, 3)])
        assert graph.number_of_edges == 2

    def test_add_nodes_returns_ids(self):
        graph = SimpleGraph(2)
        new_ids = graph.add_nodes(3)
        assert new_ids == [2, 3, 4]
        assert graph.number_of_nodes == 5

    def test_len_is_node_count(self):
        assert len(SimpleGraph(7)) == 7


class TestEdges:
    def test_add_edge(self):
        graph = SimpleGraph(3)
        assert graph.add_edge(0, 1) is True
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.number_of_edges == 1

    def test_add_duplicate_edge_returns_false(self):
        graph = SimpleGraph(3)
        graph.add_edge(0, 1)
        assert graph.add_edge(1, 0) is False
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_unknown_node_rejected(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.add_edge(0, 7)

    def test_remove_edge(self):
        graph = SimpleGraph(3, edges=[(0, 1), (1, 2)])
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.number_of_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.remove_edge(0, 1)

    def test_edges_are_canonical(self):
        graph = SimpleGraph(3, edges=[(2, 0)])
        assert list(graph.edges()) == [(0, 2)]

    def test_edge_at_covers_all_edges(self):
        graph = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        seen = {graph.edge_at(i) for i in range(graph.number_of_edges)}
        assert seen == {(0, 1), (1, 2), (2, 3)}

    def test_edge_list_is_a_copy(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        edges = graph.edge_list()
        edges.append((1, 2))
        assert graph.number_of_edges == 1

    def test_removal_keeps_edge_index_consistent(self):
        graph = SimpleGraph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        graph.remove_edge(0, 1)
        graph.remove_edge(2, 3)
        remaining = {graph.edge_at(i) for i in range(graph.number_of_edges)}
        assert remaining == {(1, 2), (3, 4)}

    def test_has_edge_out_of_range_is_false(self):
        graph = SimpleGraph(2, edges=[(0, 1)])
        assert graph.has_edge(5, 0) is False


class TestDegrees:
    def test_degrees(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degrees() == [3, 1, 1, 1]

    def test_average_degree(self):
        graph = SimpleGraph(4, edges=[(0, 1), (2, 3)])
        assert graph.average_degree() == pytest.approx(1.0)

    def test_degree_histogram(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree_histogram() == {3: 1, 1: 3}

    def test_max_degree(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2)])
        assert graph.max_degree() == 2
        assert SimpleGraph().max_degree() == 0

    def test_neighbors(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2)])
        assert graph.neighbors(0) == {1, 2}


class TestCopiesAndEquality:
    def test_copy_is_independent(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.number_of_edges == 1
        assert clone.number_of_edges == 2

    def test_equality_ignores_edge_insertion_order(self):
        a = SimpleGraph(3, edges=[(0, 1), (1, 2)])
        b = SimpleGraph(3, edges=[(1, 2), (0, 1)])
        assert a == b

    def test_inequality_different_edges(self):
        a = SimpleGraph(3, edges=[(0, 1)])
        b = SimpleGraph(3, edges=[(1, 2)])
        assert a != b

    def test_subgraph(self):
        graph = SimpleGraph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = graph.subgraph([1, 2, 3])
        assert sub.number_of_nodes == 3
        assert sub.number_of_edges == 2
        assert mapping[1] == 0

    def test_repr_mentions_sizes(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        assert "n=3" in repr(graph)
        assert "m=1" in repr(graph)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def _layout(graph: SimpleGraph):
    """Edge list, edge positions and adjacency iteration order."""
    return (
        graph._edges,
        list(graph._edge_pos.items()),
        [list(neigh) for neigh in graph._adj],
    )


def _random_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """Distinct non-loop pairs in random order and orientation."""
    rng = random.Random(seed)
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    while len(pairs) < count:
        u, v = rng.sample(range(n), 2)
        pairs.setdefault(canonical_edge(u, v), (u, v))
    return list(pairs.values())


def test_from_flat_edges_matches_add_edge():
    # large ids so adjacency sets resize and collide: iteration order counts
    pairs = _random_pairs(400, 1500, seed=3)
    reference = SimpleGraph(400)
    for u, v in pairs:
        reference.add_edge(u, v)
    bulk = SimpleGraph.from_flat_edges(400, [u for u, _ in pairs], [v for _, v in pairs])
    assert _layout(bulk) == _layout(reference)
    bulk.remove_edge(*pairs[7])  # the bulk graph is an ordinary mutable graph
    reference.remove_edge(*pairs[7])
    assert _layout(bulk) == _layout(reference)


def test_subgraph_matches_add_edge():
    graph = SimpleGraph(300, edges=_random_pairs(300, 900, seed=5))
    nodes = random.Random(9).sample(range(300), 180)
    sub, mapping = graph.subgraph(nodes)
    reference = SimpleGraph(len(nodes))
    for u, v in graph.edges():
        if u in mapping and v in mapping:
            reference.add_edge(mapping[u], mapping[v])
    assert mapping == {old: new for new, old in enumerate(nodes)}
    assert _layout(sub) == _layout(reference)


def test_bulk_construction_restores_the_collector():
    assert gc.isenabled()
    SimpleGraph.from_flat_edges(3, [0, 1], [1, 2])
    assert gc.isenabled()
    gc.disable()
    try:
        SimpleGraph.from_flat_edges(3, [0, 1], [1, 2])
        assert not gc.isenabled()  # a caller's pause is left alone
    finally:
        gc.enable()
    with pytest.raises(IndexError):
        SimpleGraph.from_flat_edges(2, [0], [5])
    assert gc.isenabled()
