"""The one CSR graph type behind every NumPy kernel, and its chunked kernels.

A :class:`BigGraph` is an immutable graph stored as two flat CSR arrays —
``indptr`` (int64, ``n + 1`` entries) and ``indices`` (``2m`` entries, every
row sorted ascending).  It comes in two forms with one interface:

* the **in-memory snapshot** of a :class:`~repro.graph.simple_graph.
  SimpleGraph`, built by :meth:`BigGraph.from_simple_graph` and cached on
  the graph by :func:`csr_graph`; its indices stay int64, because NumPy
  casts any other index dtype on every gather;
* the **memory-mapped artifact** of the million-node tier (see
  :mod:`repro.graph.mmap_io`), with uint32 indices when ``n < 2^32``, so a
  10^7-node topology costs a couple of hundred MB of *address space* and
  only the pages a kernel touches.

The class deliberately duck-types two surfaces at once:

* the **CSR kernel surface** (``n``/``m``/``indptr``/``indices``/``degrees``)
  consumed by every ``csr`` kernel, and
* the **read-only SimpleGraph surface** (``number_of_nodes``, ``degree``,
  ``nodes``, ``average_degree``, ``_measure_cache`` …) consumed by the
  measurement planner and the shared metric formulas, so a mapped graph is
  measured directly.

The degree-correlation kernels registered here walk the arcs in bounded
chunks of :data:`ARC_CHUNK`, so they run in the same memory on a snapshot
and on a 10^7-node artifact.  They return exact integer aggregates, so every
Table-2 scalar derived from them by the shared formula layer is bit-identical
to the python backend's.

The module imports without NumPy; every entry point then raises
:class:`BigGraphUnavailableError` with an actionable message instead of an
``ImportError`` at import time.
"""

from __future__ import annotations

try:
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None
    HAS_NUMPY = False

from repro.kernels.backend import register_kernel

#: Arc positions processed per vectorized batch by the chunked kernels.
ARC_CHUNK = 4_000_000


class BigGraphUnavailableError(RuntimeError):
    """The million-node BigGraph tier needs NumPy, which is not installed."""


def _require_numpy() -> None:
    if not HAS_NUMPY:
        raise BigGraphUnavailableError(
            "the million-node BigGraph tier requires numpy for its memory-mapped "
            "CSR arrays; install numpy (pip install numpy) or stay on the "
            "SimpleGraph path"
        )


def index_dtype(n: int):
    """Minimal unsigned dtype able to hold node ids below ``n``."""
    _require_numpy()
    return np.uint32 if n < 2**32 else np.uint64


class BigGraph:
    """Immutable CSR graph: a SimpleGraph snapshot or a mapped artifact.

    Construct via :meth:`from_arrays` (trusted, canonical CSR input),
    :meth:`from_simple_graph` (or :func:`csr_graph`, which caches it), the
    streaming :class:`~repro.graph.mmap_io.CSRBuilder`, or :meth:`load`
    (memory-mapped from an on-disk artifact).
    """

    is_biggraph = True

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "degrees",
        "content_hash",
        "path",
        "source_path",
        "derived",
        "meta",
        "_measure_cache",
    )

    def __init__(
        self,
        indptr,
        indices,
        *,
        content_hash: str | None = None,
        path: str | None = None,
        source_path: str | None = None,
        derived: str | None = None,
        meta: dict | None = None,
    ):
        _require_numpy()
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        self.m = len(indices) // 2
        self.degrees = np.asarray(np.diff(indptr), dtype=np.int64)
        self.content_hash = content_hash
        #: directory this graph was mapped from (None for in-memory graphs)
        self.path = path
        #: for derived graphs (e.g. a giant component): the artifact of the
        #: graph it was derived from, letting worker processes re-derive it
        self.source_path = source_path
        self.derived = derived
        self.meta = dict(meta or {})
        self._measure_cache = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, indptr, indices, **kwargs) -> "BigGraph":
        """Trusted constructor: canonical CSR arrays (rows sorted, no loops)."""
        _require_numpy()
        indptr = np.asarray(indptr, dtype=np.int64)
        n = len(indptr) - 1
        indices = np.asarray(indices, dtype=index_dtype(n))
        return cls(indptr, indices, **kwargs)

    @classmethod
    def from_simple_graph(cls, graph) -> "BigGraph":
        """In-memory snapshot of a :class:`SimpleGraph`, int64 indices.

        ``O(m log m)``; :func:`csr_graph` pays it once per graph.
        """
        _require_numpy()
        n = graph.number_of_nodes
        edges = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, dst[np.lexsort((dst, src))])  # by row, then neighbor

    @classmethod
    def load(cls, path) -> "BigGraph":
        """Memory-map a BigGraph artifact directory (see ``mmap_io``)."""
        from repro.graph.mmap_io import load_biggraph

        return load_biggraph(path)

    def save(self, path, *, encoding: str = "raw", metadata: dict | None = None) -> dict:
        """Write this graph as an artifact directory; returns the meta dict."""
        from repro.graph.mmap_io import write_biggraph_artifact

        return write_biggraph_artifact(path, self, encoding=encoding, metadata=metadata)

    # ------------------------------------------------------------------ #
    # SimpleGraph-compatible read surface
    # ------------------------------------------------------------------ #
    @property
    def number_of_nodes(self) -> int:
        return self.n

    @property
    def number_of_edges(self) -> int:
        return self.m

    def average_degree(self) -> float:
        """Average node degree ``2m / n`` (0 for the empty graph)."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n

    def degree(self, node: int) -> int:
        return int(self.degrees[node])

    def nodes(self) -> range:
        return range(self.n)

    def neighbors(self, node: int):
        """The (sorted) neighbor ids of ``node`` as an array view."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and int(row[pos]) == v

    def iter_edge_chunks(self):
        """Yield canonical ``(u, v)`` edge chunks (``u < v``), ascending."""
        for _, rows, neigh in _arc_chunks(self):
            mask = neigh > rows
            yield rows[mask], neigh[mask]

    def edges(self):
        """Iterator of canonical ``(u, v)`` tuples — small graphs only."""
        for us, vs in self.iter_edge_chunks():
            for u, v in zip(us.tolist(), vs.tolist()):
                yield (u, v)

    def to_simple_graph(self):
        """Materialize as a :class:`SimpleGraph` (small graphs only)."""
        from repro.graph.simple_graph import SimpleGraph

        edge_u: list[int] = []
        edge_v: list[int] = []
        for us, vs in self.iter_edge_chunks():
            edge_u.extend(us.tolist())
            edge_v.extend(vs.tolist())
        return SimpleGraph.from_flat_edges(self.n, edge_u, edge_v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        origin = f", path={self.path!r}" if self.path else ""
        return f"BigGraph(n={self.n}, m={self.m}{origin})"


def csr_graph(graph) -> BigGraph:
    """The CSR form of ``graph``: itself for a BigGraph, else its snapshot.

    A SimpleGraph caches the snapshot in its ``_csr_cache`` slot, and every
    mutation of the graph drops it, so kernels on an unchanged graph reuse
    the same arrays.
    """
    if getattr(graph, "is_biggraph", False):
        return graph
    cached = graph._csr_cache
    if cached is None:
        cached = graph._csr_cache = BigGraph.from_simple_graph(graph)
    return cached


# ---------------------------------------------------------------------- #
# chunked arc helpers
# ---------------------------------------------------------------------- #
def _arc_chunks(csr):
    """Yield ``(begin, rows, neighbors)`` per run of :data:`ARC_CHUNK` arcs.

    ``rows[i]`` and ``neighbors[i]`` (both int64) are the two ends of arc
    ``begin + i``, in CSR order.
    """
    total = len(csr.indices)
    for begin in range(0, total, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, total)
        rows = np.searchsorted(csr.indptr, np.arange(begin, end), side="right")
        rows -= 1
        yield begin, rows, csr.indices[begin:end].astype(np.int64)


def _arc_edge_ids(csr):
    """Canonical edge id of every arc, derived from the CSR arrays alone.

    Edge ids follow the *sorted* canonical edge list (``(u, v)`` with
    ``u < v``, ascending) — the content-stable order the workload layer
    emits per-edge load vectors in.  Those edges are exactly the arcs with
    ``neighbor > row`` in CSR order, so their packed keys come out sorted
    and one ``searchsorted`` per chunk maps every arc to its edge id.
    """
    n = max(csr.n, 1)
    keys = np.empty(len(csr.indices), dtype=np.int64)
    edge_keys = []
    for begin, rows, neigh in _arc_chunks(csr):
        chunk = keys[begin : begin + len(rows)]
        chunk[:] = np.minimum(rows, neigh) * n + np.maximum(rows, neigh)
        edge_keys.append(chunk[neigh > rows])
    edge_keys = np.concatenate(edge_keys) if edge_keys else keys
    for begin in range(0, len(keys), ARC_CHUNK):
        chunk = keys[begin : begin + ARC_CHUNK]
        chunk[:] = np.searchsorted(edge_keys, chunk)
    return keys


# ---------------------------------------------------------------------- #
# degree-correlation kernels (backend "csr")
# ---------------------------------------------------------------------- #
@register_kernel("edge_degree_moments", "csr")
def edge_degree_moments(graph) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))``, chunked over the edges."""
    csr = csr_graph(graph)
    sum_prod = sum_ends = sum_ends_sq = 0
    for us, vs in csr.iter_edge_chunks():
        ku = csr.degrees[us]
        kv = csr.degrees[vs]
        sum_prod += int(np.sum(ku * kv))
        sum_ends += int(np.sum(ku) + np.sum(kv))
        sum_ends_sq += int(np.sum(ku * ku) + np.sum(kv * kv))
    return sum_prod, sum_ends, sum_ends_sq


@register_kernel("jdd_counts", "csr")
def jdd_counts(graph) -> tuple[dict[tuple[int, int], int], int]:
    """JDD edge counts keyed by sorted degree pair, plus zero-degree nodes."""
    csr = csr_graph(graph)
    zero_degree = int(np.count_nonzero(csr.degrees == 0)) if csr.n else 0
    if csr.m == 0:
        return {}, zero_degree
    base = int(csr.degrees.max()) + 1
    merged: dict[int, int] = {}
    for us, vs in csr.iter_edge_chunks():
        ku = csr.degrees[us]
        kv = csr.degrees[vs]
        packed, counts = np.unique(
            np.minimum(ku, kv) * base + np.maximum(ku, kv), return_counts=True
        )
        for key, count in zip(packed.tolist(), counts.tolist()):
            merged[key] = merged.get(key, 0) + count
    return {
        (key // base, key % base): count for key, count in merged.items()
    }, zero_degree


@register_kernel("second_order_total", "csr")
def second_order_total(graph) -> int:
    """``Σ_v [(Σ_{u∈N(v)} k_u)² − Σ_{u∈N(v)} k_u²]`` — twice the S2 sum.

    Per-row sums of neighbor degrees come from a cumulative sum differenced
    at the row boundaries (safe for empty rows, unlike ``np.add.reduceat``),
    one block of nodes at a time.
    """
    csr = csr_graph(graph)
    if csr.m == 0:
        return 0
    total = 0
    n = csr.n
    # pick node blocks whose arc span stays near ARC_CHUNK
    block = max(1, int(n * ARC_CHUNK / max(len(csr.indices), 1)))
    for begin in range(0, n, block):
        end = min(begin + block, n)
        lo, hi = int(csr.indptr[begin]), int(csr.indptr[end])
        if lo == hi:
            continue
        neighbor_degrees = csr.degrees[csr.indices[lo:hi].astype(np.int64)]
        local_indptr = csr.indptr[begin : end + 1] - lo
        cumulative = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(neighbor_degrees, out=cumulative[1:])
        row_sums = cumulative[local_indptr[1:]] - cumulative[local_indptr[:-1]]
        np.cumsum(neighbor_degrees * neighbor_degrees, out=cumulative[1:])
        row_sq_sums = cumulative[local_indptr[1:]] - cumulative[local_indptr[:-1]]
        total += int(np.sum(row_sums * row_sums - row_sq_sums))
    return total


# ---------------------------------------------------------------------- #
# giant component
# ---------------------------------------------------------------------- #
def _component_labels(view):
    """Component label per node (labels are arbitrary but consistent)."""
    try:  # scipy's C implementation when available
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        matrix = csr_matrix(
            (
                np.ones(len(view.indices), dtype=np.int8),
                np.asarray(view.indices),
                np.asarray(view.indptr),
            ),
            shape=(view.n, view.n),
        )
        _, labels = connected_components(matrix, directed=False)
        return np.asarray(labels, dtype=np.int64)
    except ImportError:
        pass
    labels = np.full(view.n, -1, dtype=np.int64)
    label = 0
    cursor = 0
    while cursor < view.n:
        if labels[cursor] >= 0:
            cursor += 1
            continue
        labels[cursor] = label
        frontier = np.array([cursor], dtype=np.int64)
        while frontier.size:
            spans = [
                np.asarray(view.indices[view.indptr[f] : view.indptr[f + 1]])
                for f in frontier.tolist()
            ]
            neighbors = (
                np.concatenate(spans).astype(np.int64)
                if spans
                else np.empty(0, dtype=np.int64)
            )
            fresh = np.unique(neighbors[labels[neighbors] < 0]) if neighbors.size else neighbors
            labels[fresh] = label
            frontier = fresh
        label += 1
    return labels


def biggraph_giant_component(graph: BigGraph) -> BigGraph:
    """The giant connected component of ``graph``, relabelled ascending.

    Ties are broken exactly like :func:`repro.graph.components.
    giant_component`: among maximum-size components the one discovered first
    by ascending-start BFS wins — i.e. the one containing the smallest node
    id — and member ids are relabelled in ascending order.
    """
    _require_numpy()
    if graph.n == 0:
        return graph
    labels = _component_labels(graph)
    sizes = np.bincount(labels)
    best_size = int(sizes.max())
    if best_size == graph.n:
        return graph
    # first-seen largest: the max-size label whose first occurrence is earliest
    candidates = np.flatnonzero(sizes == best_size)
    first_seen = np.full(len(sizes), graph.n, dtype=np.int64)
    order = np.arange(graph.n - 1, -1, -1, dtype=np.int64)
    first_seen[labels[order]] = order  # later assignments (smaller ids) win
    winner = int(candidates[np.argmin(first_seen[candidates])])

    member = labels == winner
    new_ids = np.cumsum(member, dtype=np.int64) - 1
    member_nodes = np.flatnonzero(member)
    sub_degrees = graph.degrees[member_nodes]
    sub_indptr = np.zeros(len(member_nodes) + 1, dtype=np.int64)
    np.cumsum(sub_degrees, out=sub_indptr[1:])
    dtype = index_dtype(len(member_nodes))
    sub_indices = np.empty(int(sub_indptr[-1]), dtype=dtype)
    # gather member rows chunk by chunk (neighbors of members are members,
    # and the monotone relabelling keeps every row sorted)
    out = 0
    starts = graph.indptr[member_nodes]
    for block in range(0, len(member_nodes), 262_144):
        stop = min(block + 262_144, len(member_nodes))
        counts = sub_degrees[block:stop]
        width = int(counts.sum())
        if width == 0:
            continue
        offsets = np.zeros(stop - block + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        positions = np.arange(width, dtype=np.int64)
        positions += np.repeat(starts[block:stop] - offsets[:-1], counts)
        gathered = np.asarray(graph.indices)[positions].astype(np.int64)
        sub_indices[out : out + width] = new_ids[gathered].astype(dtype)
        out += width
    return BigGraph(
        sub_indptr,
        sub_indices,
        source_path=graph.path or graph.source_path,
        derived="gcc",
    )


__all__ = [
    "ARC_CHUNK",
    "HAS_NUMPY",
    "BigGraph",
    "BigGraphUnavailableError",
    "biggraph_giant_component",
    "csr_graph",
    "edge_degree_moments",
    "index_dtype",
    "jdd_counts",
    "second_order_total",
]
