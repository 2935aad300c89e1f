"""Tests for canonical graph serialization and content hashing."""

import gzip
import json
import random

import pytest

from repro.exceptions import GraphError, StoreError
from repro.graph.components import giant_component, largest_component_nodes
from repro.graph.simple_graph import SimpleGraph
from repro.store import ArtifactStore
from repro.store.serialize import (
    canonical_bytes,
    graph_content_hash,
    graph_from_bytes,
    graph_to_bytes,
    read_graph_artifact,
    write_graph_artifact,
)
from repro.telemetry import counter_value


def test_roundtrip_plain_and_gzip(square_with_diagonal):
    plain = graph_to_bytes(square_with_diagonal, compress=False)
    packed = graph_to_bytes(square_with_diagonal, compress=True)
    assert plain != packed
    assert packed[:2] == b"\x1f\x8b"
    assert graph_from_bytes(plain) == square_with_diagonal
    assert graph_from_bytes(packed) == square_with_diagonal
    # gzip framing is deterministic: equal graphs, equal compressed bytes
    assert packed == graph_to_bytes(square_with_diagonal, compress=True)


def test_roundtrip_empty_graph():
    for n in (0, 5):
        empty = SimpleGraph(n)
        restored = graph_from_bytes(graph_to_bytes(empty))
        assert restored.number_of_nodes == n
        assert restored.number_of_edges == 0


def test_isolated_nodes_survive():
    graph = SimpleGraph(10, edges=[(0, 1)])
    restored = graph_from_bytes(graph_to_bytes(graph))
    assert restored.number_of_nodes == 10
    assert restored.number_of_edges == 1


def test_hash_stable_across_insertion_orderings():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    forward = SimpleGraph(4, edges=edges)
    backward = SimpleGraph(4, edges=[(v, u) for u, v in reversed(edges)])
    assert graph_content_hash(forward) == graph_content_hash(backward)
    # removing and re-adding an edge does not change the identity either
    forward.remove_edge(1, 2)
    forward.add_edge(1, 2)
    assert graph_content_hash(forward) == graph_content_hash(backward)


def test_hash_distinguishes_different_graphs(triangle_graph, path_graph):
    assert graph_content_hash(triangle_graph) != graph_content_hash(path_graph)
    # an extra isolated node changes the graph, hence the hash
    bigger = triangle_graph.copy()
    bigger.add_node()
    assert graph_content_hash(bigger) != graph_content_hash(triangle_graph)


def test_self_loops_rejected():
    payload = b"repro-graph 1 3 2\n0 1\n2 2\n"
    with pytest.raises(GraphError, match="self-loop"):
        graph_from_bytes(payload)


def test_malformed_payloads_rejected():
    with pytest.raises(GraphError, match="header"):
        graph_from_bytes(b"something-else 1 3 2\n0 1\n")
    with pytest.raises(GraphError, match="version"):
        graph_from_bytes(b"repro-graph 99 3 1\n0 1\n")
    with pytest.raises(GraphError, match="announces"):
        graph_from_bytes(b"repro-graph 1 3 2\n0 1\n")


def test_artifact_directory_roundtrip(tmp_path, small_mixed_graph):
    manifest = write_graph_artifact(
        tmp_path / "artifact", small_mixed_graph, metadata={"method": "test"}
    )
    assert manifest["nodes"] == small_mixed_graph.number_of_nodes
    assert manifest["content_hash"] == graph_content_hash(small_mixed_graph)
    graph, loaded = read_graph_artifact(tmp_path / "artifact", verify=True)
    assert graph == small_mixed_graph
    assert loaded["metadata"] == {"method": "test"}


def test_artifact_uncompressed_flavour(tmp_path, triangle_graph):
    write_graph_artifact(tmp_path / "a", triangle_graph, compress=False)
    assert (tmp_path / "a" / "graph.edges").exists()
    graph, _ = read_graph_artifact(tmp_path / "a", verify=True)
    assert graph == triangle_graph


def test_artifact_verify_detects_corruption(tmp_path, path_graph):
    # a valid payload of another graph with the same n and m passes every
    # structural check; only the content hash tells it apart
    write_graph_artifact(tmp_path / "a", path_graph, compress=True)
    payload = tmp_path / "a" / "graph.edges.gz"
    star = SimpleGraph(5, edges=[(0, i) for i in range(1, 5)])
    payload.write_bytes(gzip.compress(canonical_bytes(star), mtime=0))
    read_graph_artifact(tmp_path / "a")  # unverified read succeeds
    with pytest.raises(StoreError, match="corrupt"):
        read_graph_artifact(tmp_path / "a", verify=True)


def _graph_misses_of(store: ArtifactStore, key: str) -> float:
    """Read ``key`` once, assert a miss; the read's change of the miss counter."""
    before = counter_value("repro_store_reads_total", category="graphs", outcome="miss")
    assert store.get_graph(key) is None
    return counter_value("repro_store_reads_total", category="graphs", outcome="miss") - before


@pytest.mark.parametrize(
    "swapped",
    [SimpleGraph(2, edges=[(0, 1)]), SimpleGraph(3, edges=[(0, 1), (1, 2)])],
    ids=["other-sizes", "stale-edge-count"],
)
def test_manifest_sizes_cross_checked(tmp_path, triangle_graph, swapped):
    # a swapped or stale payload disagrees with the manifest's n / m: an
    # error even without the content-hash check, and a miss in the store
    write_graph_artifact(tmp_path / "a", triangle_graph, compress=True)
    payload = tmp_path / "a" / "graph.edges.gz"
    payload.write_bytes(gzip.compress(canonical_bytes(swapped), mtime=0))
    with pytest.raises(StoreError, match="manifest records n=3, m=3"):
        read_graph_artifact(tmp_path / "a")

    store = ArtifactStore(tmp_path / "store")
    key = "bb" + "0" * 62
    store.put_graph(key, triangle_graph)
    (store._graph_dir(key) / "graph.edges.gz").write_bytes(
        gzip.compress(canonical_bytes(swapped), mtime=0)
    )
    assert _graph_misses_of(store, key) == 1


# --------------------------------------------------------------------------- #
# strict decoding: every corrupt payload is an error, and a store miss
# --------------------------------------------------------------------------- #
#: canonical payload of the 4-node "triangle plus pendant" graph
VALID = b"repro-graph 1 4 4\n0 1\n0 2\n1 2\n2 3\n"


def _flip(payload: bytes, index: int, mask: int = 0x01) -> bytes:
    """``payload`` with the bits of ``mask`` flipped in byte ``index``."""
    flipped = bytearray(payload)
    flipped[index] ^= mask
    return bytes(flipped)


CORRUPT_PAYLOADS = {
    # served as a 1-edge graph before decoding was strict
    "duplicate-edge": b"repro-graph 1 3 2\n0 1\n0 1\n",
    "duplicate-edge-mid-body": b"repro-graph 1 4 4\n0 1\n0 2\n0 2\n2 3\n",
    "out-of-order-pair": b"repro-graph 1 4 4\n0 2\n0 1\n1 2\n2 3\n",
    "reversed-pair": b"repro-graph 1 4 4\n0 1\n0 2\n2 1\n2 3\n",
    "fields-across-lines": b"repro-graph 1 4 2\n0 1 2\n3\n",
    "id-equal-to-n": b"repro-graph 1 4 4\n0 1\n0 2\n1 2\n2 4\n",
    "id-above-n": b"repro-graph 1 4 1\n0 17\n",
    "non-digit-token": b"repro-graph 1 4 4\n0 1\n0 x\n1 2\n2 3\n",
    "negative-id": b"repro-graph 1 4 1\n-1 2\n",
    "leading-zero": b"repro-graph 1 4 4\n0 1\n0 02\n1 2\n2 3\n",
    "missing-final-newline": VALID[:-1],
    "header-only-no-newline": b"repro-graph 1 4 0",
    "blank-line": b"repro-graph 1 4 2\n0 1\n\n",
    "trailing-blank-line": VALID + b"\n",
    "double-space": b"repro-graph 1 4 4\n0  1\n0 2\n1 2\n2 3\n",
    "crlf-line-ends": VALID.replace(b"\n", b"\r\n"),
    "self-loop": b"repro-graph 1 3 2\n0 1\n2 2\n",
    # bit flips that keep the payload size: "1 2" -> "0 2" repeats the edge
    # above it, the last "3" -> "2" makes a self-loop, a space -> "0"
    "bit-flip-repeats-edge": _flip(VALID, VALID.index(b"1 2")),
    "bit-flip-self-loop": _flip(VALID, len(VALID) - 2),
    "bit-flip-space": _flip(VALID, VALID.index(b"0 1") + 1, 0x10),
    "bit-flip-newline": _flip(VALID, VALID.index(b"\n0 2"), 0x02),
}


def test_valid_payload_decodes():
    graph = graph_from_bytes(VALID)
    assert canonical_bytes(graph) == VALID
    assert graph == SimpleGraph(4, edges=[(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize("name", sorted(CORRUPT_PAYLOADS))
def test_corrupt_payload_raises(name):
    payload = CORRUPT_PAYLOADS[name]
    with pytest.raises(GraphError):
        graph_from_bytes(payload)
    with pytest.raises(GraphError):
        graph_from_bytes(gzip.compress(payload, mtime=0))


@pytest.mark.parametrize("compress", [True, False], ids=["gzip", "plain"])
@pytest.mark.parametrize("name", sorted(CORRUPT_PAYLOADS))
def test_corrupt_payload_is_a_store_miss(tmp_path, name, compress):
    store = ArtifactStore(tmp_path / "store", compress=compress)
    key = "cc" + "0" * 62
    store.put_graph(key, graph_from_bytes(VALID))
    payload = CORRUPT_PAYLOADS[name]
    if compress:
        (store._graph_dir(key) / "graph.edges.gz").write_bytes(gzip.compress(payload, mtime=0))
    else:
        (store._graph_dir(key) / "graph.edges").write_bytes(payload)
    assert _graph_misses_of(store, key) == 1


def test_bit_flips_never_decode_to_another_graph_silently():
    # every single-bit flip of the body either fails to decode or yields a
    # valid canonical payload (which only the content hash can catch)
    body_start = VALID.index(b"\n") + 1
    for index in range(body_start, len(VALID)):
        for bit in range(8):
            flipped = _flip(VALID, index, 1 << bit)
            try:
                graph = graph_from_bytes(flipped)
            except GraphError:
                continue
            assert canonical_bytes(graph) == flipped


# --------------------------------------------------------------------------- #
# bulk construction is bit-identical to edge-by-edge insertion
# --------------------------------------------------------------------------- #
def _layout(graph: SimpleGraph):
    """Everything whose order a bulk build must reproduce."""
    return (
        graph.number_of_nodes,
        graph._edges,
        list(graph._edge_pos.items()),
        [list(neigh) for neigh in graph._adj],
    )


def _reference_decode(graph: SimpleGraph) -> SimpleGraph:
    """``add_edge`` per edge, in payload (sorted canonical) order."""
    reference = SimpleGraph(graph.number_of_nodes)
    for u, v in sorted(graph.edges()):
        reference.add_edge(u, v)
    return reference


def _reference_giant(graph: SimpleGraph) -> SimpleGraph:
    """``add_edge`` per edge over the relabelled largest component."""
    nodes = sorted(largest_component_nodes(graph))
    mapping = {old: new for new, old in enumerate(nodes)}
    reference = SimpleGraph(len(nodes))
    for u, v in graph.edges():
        if u in mapping and v in mapping:
            reference.add_edge(mapping[u], mapping[v])
    return reference


def _with_isolated_nodes_and_islands() -> SimpleGraph:
    rng = random.Random(11)
    graph = SimpleGraph(300)
    labels = list(range(300))
    rng.shuffle(labels)
    core, islands = labels[:200], labels[200:280]  # labels[280:] stay isolated
    for _ in range(600):
        u, v = rng.sample(core, 2)
        graph.add_edge(u, v)
    for start in range(0, len(islands), 4):
        a, b, c, d = islands[start : start + 4]
        graph.add_edge(d, a)
        graph.add_edge(b, c)
        graph.add_edge(c, a)
    return graph


@pytest.mark.parametrize("which", ["skitter_like", "isolated_nodes"])
def test_bulk_decode_and_giant_component_match_add_edge(as_small, which):
    graph = as_small if which == "skitter_like" else _with_isolated_nodes_and_islands()
    for compress in (False, True):
        decoded = graph_from_bytes(graph_to_bytes(graph, compress=compress))
        reference = _reference_decode(graph)
        assert _layout(decoded) == _layout(reference)
        assert _layout(giant_component(decoded)) == _layout(_reference_giant(reference))


def test_artifact_missing_pieces(tmp_path, triangle_graph):
    with pytest.raises(StoreError, match="not a graph artifact"):
        read_graph_artifact(tmp_path / "nowhere")
    write_graph_artifact(tmp_path / "a", triangle_graph)
    (tmp_path / "a" / "graph.edges.gz").unlink()
    with pytest.raises(StoreError, match="payload"):
        read_graph_artifact(tmp_path / "a")


def test_manifest_is_json(tmp_path, triangle_graph):
    write_graph_artifact(tmp_path / "a", triangle_graph)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["format"] == "repro-graph"
    assert manifest["edges"] == 3
