"""Tests of the CSR kernel engine: snapshot caching, registry, kernels."""

from __future__ import annotations

import math
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import triangles_per_node as triangles_reference
from repro.kernels import backend as backend_mod
from repro.kernels.backend import (
    AUTO_THRESHOLD,
    available_backends,
    current_backend,
    dispatch,
    get_kernel,
    resolve_backend,
    use_backend,
)
from repro.kernels import betweenness as betweenness_mod
from repro.kernels import triangles as triangles_mod
from repro.kernels.betweenness import brandes_sweep, block_width, sweep_budget_bytes
from repro.kernels.bfs import bfs_histogram
from repro.kernels.biggraph import BigGraph, csr_graph
from repro.metrics.betweenness import node_betweenness
from repro.metrics.distances import bfs_distances, sample_sources


def ring(n):
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def mixed_graph():
    """Triangle + pendant + separate edge + isolated node."""
    return SimpleGraph(7, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)])


class TestCSRGraph:
    """The cached BigGraph snapshot every csr kernel runs on."""

    def test_layout(self, mixed_graph):
        csr = csr_graph(mixed_graph)
        assert isinstance(csr, BigGraph)
        assert csr.n == 7
        assert csr.m == 5
        assert list(csr.degrees) == mixed_graph.degrees()
        assert csr.indptr[0] == 0 and csr.indptr[-1] == 2 * csr.m
        for u in mixed_graph.nodes():
            row = list(csr.neighbors(u))
            assert row == sorted(mixed_graph.neighbors(u))

    def test_empty_graph(self):
        csr = csr_graph(SimpleGraph(0))
        assert csr.n == 0 and csr.m == 0 and len(csr.indptr) == 1

    def test_edgeless_graph(self):
        csr = csr_graph(SimpleGraph(4))
        assert csr.n == 4 and csr.m == 0
        assert list(csr.degrees) == [0, 0, 0, 0]

    def test_cached_on_instance(self, mixed_graph):
        assert csr_graph(mixed_graph) is csr_graph(mixed_graph)

    def test_biggraph_is_its_own_csr_form(self, mixed_graph):
        big = BigGraph.from_simple_graph(mixed_graph)
        assert csr_graph(big) is big

    def test_snapshot_keeps_int64_indices(self, mixed_graph):
        # numpy casts any non-intp index array on every gather
        csr = csr_graph(mixed_graph)
        assert csr.indices.dtype == np.int64
        assert csr.indptr.dtype == np.int64

    def test_mmap_round_trip_narrows_indices_to_uint32(self, mixed_graph, tmp_path):
        csr_graph(mixed_graph).save(tmp_path / "art")
        loaded = BigGraph.load(tmp_path / "art")
        assert loaded.indices.dtype == np.uint32
        assert np.array_equal(loaded.indptr, csr_graph(mixed_graph).indptr)
        assert np.array_equal(loaded.indices, csr_graph(mixed_graph).indices)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(3, 4),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.add_node(),
            lambda g: g.add_nodes(2),
        ],
    )
    def test_mutation_invalidates_cache(self, mixed_graph, mutate):
        first = csr_graph(mixed_graph)
        mutate(mixed_graph)
        second = csr_graph(mixed_graph)
        assert second is not first
        assert list(second.degrees) == mixed_graph.degrees()

    def test_copy_does_not_share_cache(self, mixed_graph):
        csr_graph(mixed_graph)
        clone = mixed_graph.copy()
        assert clone._csr_cache is None
        clone.add_edge(3, 4)
        assert csr_graph(mixed_graph) is not csr_graph(clone)

    def test_pickle_drops_cache(self, mixed_graph):
        csr_graph(mixed_graph)
        restored = pickle.loads(pickle.dumps(mixed_graph))
        assert restored == mixed_graph
        assert restored._csr_cache is None
        assert list(csr_graph(restored).degrees) == mixed_graph.degrees()


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("python", "csr")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(None, "fortran")
        with pytest.raises(ValueError, match="unknown backend"):
            use_backend("fortran")

    def test_bad_env_backend_reported_clearly(self, monkeypatch):
        # a typo'd REPRO_BACKEND lands in _state unvalidated (validating at
        # import time would make the package unimportable); the first
        # resolve must surface it as a clear ValueError, not a KeyError
        monkeypatch.setitem(backend_mod._state, "backend", "numppy")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(None)

    def test_malformed_threshold_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSR_THRESHOLD", "2k")
        with pytest.warns(RuntimeWarning, match="REPRO_CSR_THRESHOLD"):
            assert backend_mod._int_env("REPRO_CSR_THRESHOLD", 1024) == 1024

    def test_per_call_override_wins(self, mixed_graph):
        with use_backend("csr"):
            assert resolve_backend(mixed_graph, "python") == "python"
        with use_backend("python"):
            assert resolve_backend(mixed_graph, "csr") == "csr"

    def test_use_backend_context_restores(self, mixed_graph):
        before = current_backend()
        with use_backend("csr"):
            assert current_backend() == "csr"
            assert resolve_backend(mixed_graph) == "csr"
        assert current_backend() == before

    def test_auto_threshold(self):
        small, large = ring(4), ring(AUTO_THRESHOLD + 1)
        with use_backend("auto"):
            assert resolve_backend(small) == "python"
            assert resolve_backend(large) == "csr"

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="no kernel"):
            get_kernel("warp_drive", "csr")

    def test_dispatch_returns_backend_impl(self, mixed_graph):
        py = dispatch("triangles_per_node", mixed_graph, "python")
        csr = dispatch("triangles_per_node", mixed_graph, "csr")
        assert py is not csr
        assert py(mixed_graph) == csr(mixed_graph)

    def test_missing_numpy_degrades_with_warning(self, mixed_graph, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        monkeypatch.setattr(backend_mod, "_warned_missing_numpy", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend(mixed_graph, "csr") == "python"
        assert backend_mod.available_backends() == ("python",)
        assert resolve_backend(ring(AUTO_THRESHOLD + 1), "auto") == "python"


class TestBfsKernel:
    @pytest.mark.parametrize("builder", [lambda: ring(9), lambda: SimpleGraph(1)])
    def test_level_counts_match_python(self, builder):
        # one source per sweep: the level sizes are its distance counts
        graph = builder()
        csr = csr_graph(graph)
        for source in graph.nodes():
            expected = Counter(d for d in bfs_distances(graph, source) if d >= 0)
            assert brandes_sweep(csr, [source])[0] == dict(expected)

    def test_histogram_matches_python(self, mixed_graph):
        sources = list(mixed_graph.nodes())
        expected: dict[int, int] = {}
        for s in sources:
            for d in bfs_distances(mixed_graph, s):
                if d >= 0:
                    expected[d] = expected.get(d, 0) + 1
        assert bfs_histogram(mixed_graph, sources) == expected

    def test_histogram_subset_of_sources(self, mixed_graph):
        assert bfs_histogram(mixed_graph, [2]) == {0: 1, 1: 3}

    def test_histogram_empty(self):
        assert bfs_histogram(SimpleGraph(0), []) == {}

    def test_histogram_many_source_blocks(self):
        # more sources than one 64-bit word forces multi-word packing
        graph = ring(130)
        full = bfs_histogram(graph, list(graph.nodes()))
        assert full[0] == 130
        assert sum(full.values()) == 130 * 130


class TestBetweennessKernel:
    def test_matches_python_exactly_enough(self, mixed_graph):
        py = node_betweenness(mixed_graph, backend="python")
        csr = node_betweenness(mixed_graph, backend="csr")
        assert len(py) == len(csr)
        for a, b in zip(py, csr):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def test_star_center_dominates(self):
        star = SimpleGraph(6, edges=[(0, i) for i in range(1, 6)])
        values = node_betweenness(star, backend="csr")
        assert values[0] == pytest.approx(1.0)
        assert all(v == pytest.approx(0.0) for v in values[1:])


def random_graph(n, m, seed):
    """``m`` random edges on ``n`` nodes: several components, isolated nodes."""
    rng = np.random.default_rng(seed)
    graph = SimpleGraph(n)
    while graph.number_of_edges < m:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def assert_matches_reference(graph, sources):
    histogram, centrality, edge_load = brandes_sweep(csr_graph(graph), sources, True)
    # the python kernel: brandes_source per source, the reference loops
    expected = get_kernel("bfs_sweep", "python")(graph, sources, True, True)
    assert histogram == expected[0]
    np.testing.assert_allclose(centrality, expected[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(edge_load, expected[2], rtol=1e-12, atol=0)


class TestBrandesSweep:
    """The batched kernel against the per-source Python reference."""

    def test_disconnected_graph_with_isolated_nodes(self, mixed_graph):
        assert_matches_reference(mixed_graph, list(mixed_graph.nodes()))

    def test_sparse_random_graph_all_sources(self):
        graph = random_graph(90, 110, seed=1)
        assert 0 in graph.degrees()  # isolated nodes among several components
        assert_matches_reference(graph, list(graph.nodes()))

    def test_edgeless_graph(self):
        graph = SimpleGraph(5)
        histogram, centrality, edge_load = brandes_sweep(csr_graph(graph), [0, 3, 3], True)
        assert histogram == {0: 3}
        assert centrality.tolist() == [0.0] * 5
        assert edge_load.tolist() == []

    def test_no_sources_and_empty_graph(self, mixed_graph):
        histogram, centrality, edge_load = brandes_sweep(csr_graph(mixed_graph), [], True)
        assert histogram == {}
        assert not centrality.any() and not edge_load.any()
        assert brandes_sweep(csr_graph(SimpleGraph(0)), [], True)[0] == {}

    @pytest.mark.parametrize("width", [1, 4, 8, 64])
    def test_source_counts_around_the_block_width(self, width, monkeypatch):
        graph = random_graph(100, 260, seed=2)
        csr = csr_graph(graph)
        per_source = betweenness_mod._source_bytes(csr.n, csr.m)
        monkeypatch.setattr(betweenness_mod, "BLOCK_BYTES", per_source * width)
        assert block_width(csr.n, csr.m) == width
        order = np.random.default_rng(width).permutation(csr.n).tolist()
        for count in sorted({1, max(width - 1, 1), width, width + 1}):
            assert_matches_reference(graph, order[:count])

    def test_repeated_sources_count_repeatedly(self, monkeypatch):
        graph = random_graph(40, 90, seed=3)
        sources = [5, 5, 17, 5, 17, 30]
        assert_matches_reference(graph, sources)
        csr = csr_graph(graph)
        # a repeat split across blocks must add up the same way
        monkeypatch.setattr(
            betweenness_mod, "BLOCK_BYTES", 2 * betweenness_mod._source_bytes(csr.n, csr.m)
        )
        assert_matches_reference(graph, sources)

    def test_mmap_biggraph_bit_identical_to_csr(self, tmp_path):
        graph = random_graph(120, 300, seed=4)
        BigGraph.from_simple_graph(graph).save(tmp_path / "art")
        big = BigGraph.load(tmp_path / "art")
        assert big.indices.dtype == np.uint32
        sources = list(range(0, 120, 3))
        csr_out = brandes_sweep(csr_graph(graph), sources, True)
        big_out = brandes_sweep(big, sources, True)
        assert big_out[0] == csr_out[0]
        assert np.array_equal(big_out[1], csr_out[1])
        assert np.array_equal(big_out[2], csr_out[2])
        # and through the registered kernels of both numpy backends
        for want in ((True, False), (False, True), (True, True)):
            assert dispatch("bfs_sweep", big)(big, sources, *want) == dispatch(
                "bfs_sweep", graph, "csr"
            )(graph, sources, *want)
        assert dispatch("betweenness_accumulate", big)(big, sources) == csr_out[1].tolist()

    def test_memory_stays_within_the_stated_budget(self):
        # n = 2·10^5: the block width must shrink rather than grow K×n arrays
        n = 200_000
        rng = np.random.default_rng(5)
        u = np.concatenate((np.arange(n), rng.integers(n, size=n)))
        v = np.concatenate(((np.arange(n) + 1) % n, rng.integers(n, size=n)))
        keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
        keys = keys[keys // n != keys % n]
        rows = np.concatenate((keys // n, keys % n))
        cols = np.concatenate((keys % n, keys // n))
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        big = BigGraph.from_arrays(indptr, cols[order])
        del u, v, keys, rows, cols, order
        budget = sweep_budget_bytes(big.n, big.m)
        # a block of 64 sources would need 64 σ arrays of n floats alone
        assert 64 * 8 * n > budget
        tracemalloc.start()
        try:
            histogram, _, edge_load = brandes_sweep(big, [0, n // 3, n // 2], True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(histogram.values()) == 3 * n  # the ring connects everything
        assert len(edge_load) == big.m
        assert peak < budget, (peak, budget)


class TestSampleSources:
    def test_full_sweep_when_none_or_clamped(self):
        assert sample_sources(5, None) == ([0, 1, 2, 3, 4], 1.0)
        assert sample_sources(5, 5) == ([0, 1, 2, 3, 4], 1.0)
        # a sample larger than n is clamped to the full sweep, never an error
        assert sample_sources(5, 50) == ([0, 1, 2, 3, 4], 1.0)

    def test_no_duplicate_sources(self):
        # regression: sampling WITH replacement duplicates sources and skews
        # d(x); every draw must yield distinct nodes
        for seed in range(20):
            chosen, scale = sample_sources(30, 10, rng=seed)
            assert len(set(chosen)) == len(chosen) == 10
            assert scale == 3.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sample_sources(5, 0)

    def test_same_seed_same_sample(self):
        assert sample_sources(100, 7, rng=42) == sample_sources(100, 7, rng=42)


def test_triangle_kernels_agree_on_random_graph(tmp_path):
    rng = np.random.default_rng(3)
    graph = SimpleGraph(80)
    while graph.number_of_edges < 400:
        u, v = int(rng.integers(80)), int(rng.integers(80))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    expected = triangles_reference(graph)
    csr = csr_graph(graph)
    # each strategy on its own: matmul, the set sweep, the chunked sweep
    assert triangles_mod._triangles_by_matmul(csr).tolist() == expected
    assert triangles_mod._triangles_chunked(csr).tolist() == expected
    kernel = get_kernel("triangles_per_node", "csr")
    assert kernel(graph) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triangles_mod, "MATMUL_COST_FACTOR", 0)  # force the set sweep
        assert kernel(graph) == expected
        patch.setattr(triangles_mod, "MATMUL_COST_FACTOR", 10**9)
        patch.setattr(triangles_mod, "_sparse", None)  # no scipy: chunked sweep
        assert kernel(graph) == expected
    # a memory-mapped BigGraph always takes the chunked sweep
    csr.save(tmp_path / "art")
    big = BigGraph.load(tmp_path / "art")
    assert dispatch("triangles_per_node", big)(big) == expected
