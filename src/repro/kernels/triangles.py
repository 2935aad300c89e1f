"""Vectorized per-node triangle counts, three strategies with one answer.

For every canonical edge ``(u, v)`` (``u < v``) the triangles it closes are
the common neighbors ``w > v`` of its endpoints — the orientation used by
:func:`repro.graph.subgraphs.iter_triangles`, so each triangle is found
exactly once.  The kernel picks the cheapest strategy for the input:

* **sparse matmul** — ``((A @ A) ∘ A) · 1 / 2`` in one SciPy product.  It
  performs ``Σ deg²`` multiply-adds while an intersection-based sweep
  touches only ``Σ min(deg_u, deg_v)`` elements, so it is used only while
  its cost estimate stays within :data:`MATMUL_COST_FACTOR` of the sweep's;
* **set sweep** — on heavy-tailed (scale-free) SimpleGraphs, the C-speed
  set intersection over the smaller endpoint's neighborhood of
  :func:`repro.graph.subgraphs.triangles_per_node` does the least work;
* **chunked sweep** — a sorted-key intersection over the CSR arrays in
  bounded batches, for a :class:`~repro.kernels.biggraph.BigGraph` (which
  has no adjacency sets and may be memory-mapped) or when SciPy is missing.

All strategies return the same exact integers.
"""

from __future__ import annotations

import numpy as np

from repro.graph import subgraphs
from repro.kernels.backend import register_kernel
from repro.kernels.biggraph import _arc_chunks, csr_graph

try:
    import scipy.sparse as _sparse
except ImportError:  # pragma: no cover - scipy is optional for the kernels
    _sparse = None

#: Use the sparse matmul only while its work estimate (Σ deg², the number of
#: length-2 paths) stays within this factor of the intersection sweep's
#: (Σ min(deg_u, deg_v) over edges).
MATMUL_COST_FACTOR = 4

#: Candidate (edge, third-vertex) pairs evaluated per chunked-sweep batch.
TRIANGLE_CANDIDATE_BUDGET = 8_000_000


def _triangles_by_matmul(csr) -> np.ndarray:
    ones = np.ones(len(csr.indices), dtype=np.float64)
    adjacency = _sparse.csr_matrix((ones, csr.indices, csr.indptr), shape=(csr.n, csr.n))
    closed = (adjacency @ adjacency).multiply(adjacency)
    # row i sums |N(i) ∩ N(j)| over neighbors j: every triangle at i twice
    per_node = np.asarray(closed.sum(axis=1)).ravel() / 2.0
    return np.rint(per_node).astype(np.int64)


def _triangles_chunked(csr) -> np.ndarray:
    """Exact per-node triangle counts via chunked sorted-key intersection.

    For every canonical edge ``(u, v)`` the third-vertex candidates are the
    neighbors of ``u`` beyond ``v`` in its sorted row; membership in ``N(v)``
    is one vectorized ``searchsorted`` against the globally ascending packed
    arc keys ``row·n + neighbor``.
    """
    n = csr.n
    counts = np.zeros(n, dtype=np.int64)
    total = len(csr.indices)
    # globally sorted packed arc keys (row-major CSR order is key order)
    keys = np.empty(total, dtype=np.int64)
    for begin, rows, neigh in _arc_chunks(csr):
        keys[begin : begin + len(rows)] = rows * n + neigh

    def _batch(u, v, pos):
        cand_counts = csr.indptr[u + 1] - (pos + 1)
        # split so one batch's candidate buffer stays bounded
        cum = np.zeros(len(cand_counts) + 1, dtype=np.int64)
        np.cumsum(cand_counts, out=cum[1:])
        start = 0
        while start < len(u):
            stop = int(
                np.searchsorted(cum, cum[start] + TRIANGLE_CANDIDATE_BUDGET, side="left")
            )
            stop = max(start + 1, min(stop, len(u)))
            cc = cand_counts[start:stop]
            width = int(cum[stop] - cum[start])
            if width:
                offsets = np.arange(width, dtype=np.int64)
                offsets += np.repeat((pos[start:stop] + 1) - (cum[start:stop] - cum[start]), cc)
                w = csr.indices[offsets].astype(np.int64)
                vkeys = np.repeat(v[start:stop], cc) * n + w
                loc = np.searchsorted(keys, vkeys)
                np.minimum(loc, total - 1, out=loc)
                hit = keys[loc] == vkeys
                edge_of = np.repeat(np.arange(stop - start, dtype=np.int64), cc)
                per_edge = np.bincount(edge_of[hit], minlength=stop - start)
                np.add.at(counts, u[start:stop], per_edge)
                np.add.at(counts, v[start:stop], per_edge)
                np.add.at(counts, w[hit], 1)
            start = stop

    for begin, rows, neigh in _arc_chunks(csr):
        mask = neigh > rows  # canonical arcs
        if mask.any():
            _batch(rows[mask], neigh[mask], np.flatnonzero(mask) + begin)
    return counts


@register_kernel("triangles_per_node", "csr")
def triangles_per_node(graph) -> list[int]:
    """Number of triangles each node participates in, indexed by node id."""
    csr = csr_graph(graph)
    if csr.m == 0:
        return [0] * csr.n
    if csr is not graph:  # a SimpleGraph: all three strategies are open
        degrees = csr.degrees
        matmul_cost = int(np.sum(degrees * degrees))
        # Σ over arcs counts every edge twice, and min() is symmetric
        arc_min = np.minimum(np.repeat(degrees, degrees), degrees[csr.indices])
        sweep_cost = int(np.sum(arc_min)) // 2
        if matmul_cost > MATMUL_COST_FACTOR * sweep_cost:
            return subgraphs.triangles_per_node(graph)
        if _sparse is not None:
            return _triangles_by_matmul(csr).tolist()
    return _triangles_chunked(csr).tolist()


__all__ = ["triangles_per_node"]
