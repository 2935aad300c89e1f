"""NumPy unified BFS sweep: distance histogram + optional betweenness.

Without betweenness or edge load the sweep is the bit-parallel histogram
BFS of :mod:`repro.kernels.bfs`, which needs no per-pair state.  With
either, it is the batched bit-parallel Brandes sweep of
:mod:`repro.kernels.betweenness`, which counts each level's fresh
(source, node) pairs while it accumulates σ, so the histogram, centrality
and edge load come from one traversal.  The integer pair counts are
identical in both modes and identical to the pure-Python kernel.

:func:`sweep_view` serves both NumPy backends: ``csr`` passes the cached
snapshot of a :class:`SimpleGraph`, ``biggraph`` a (possibly memory-mapped)
BigGraph.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import register_kernel
from repro.kernels.betweenness import brandes_sweep
from repro.kernels.bfs import histogram_from_csr
from repro.kernels.csr import csr_graph


def sweep_view(
    csr,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
) -> tuple[dict[int, int], list[float] | None, list[float] | None]:
    """One sweep over any CSR-shaped view: ``(histogram, centrality, edge load)``."""
    if not want_betweenness and not want_edge_load:
        return histogram_from_csr(csr, source_nodes), None, None
    histogram, centrality, edge_load = brandes_sweep(csr, source_nodes, want_edge_load)
    return (
        histogram,
        centrality.tolist(),
        None if edge_load is None else edge_load.tolist(),
    )


@register_kernel("bfs_sweep", "csr")
def bfs_sweep(
    graph: SimpleGraph,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
) -> tuple[dict[int, int], list[float] | None, list[float] | None]:
    """One sweep over ``source_nodes``: ``(histogram, centrality, edge load)``.

    ``edge_load`` is the raw per-edge dependency accumulation in sorted
    canonical edge order (``None`` unless ``want_edge_load``), accumulated
    inside the same Brandes backward pass — betweenness + edge load together
    still cost one traversal.
    """
    return sweep_view(csr_graph(graph), source_nodes, want_betweenness, want_edge_load)


__all__ = ["bfs_sweep", "sweep_view"]
