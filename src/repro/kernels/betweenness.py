"""Batched bit-parallel Brandes sweep: betweenness and edge load for K sources at once.

One block of ``K`` sources (a power of two, at most 64) runs level by level,
with one bit per source packed into a machine word per node, like the
histogram BFS of :mod:`repro.kernels.bfs`:

* **Levels.**  ``frontier[v]`` holds the bits of the sources whose BFS
  reached ``v`` at the current level and ``unvisited[v]`` those it has not
  reached yet.  Gathering ``frontier`` over the CSR neighbor array and
  masking with the arc's row word gives, per arc ``v → u``, the sources for
  which ``u`` is on the frontier and ``v`` is fresh: the arc is a
  shortest-path DAG edge ``u → v`` for exactly those sources.
* **DAG pairs.**  Only the nonzero arc words are unpacked, with one
  ``flatnonzero`` over their raveled bits, into ``(arc, source bit)`` pairs.
  σ and δ live in one ``n × K`` array each (node-major), so a pair's two
  endpoints are the flat keys ``u·K + bit`` and ``v·K + bit``.
* **σ and δ.**  The forward pass adds ``σ[u]`` onto ``σ[v]`` with one
  ``np.bincount(weights=)`` per level; the new σ entries are the next
  frontier.  The backward pass walks the same recorded pairs deepest level
  first, forms the dependency contribution ``σ[u]/σ[v]·(1 + δ[v])`` and
  bin-counts it onto ``δ[u]``, and, when edge load is wanted, onto the
  arc it crosses.

Per level the block touches the ``2m`` arc words once and each DAG pair a
handful of times, so the cost per source is the ``O(m)`` of Brandes'
algorithm without a Python loop per source.  The block width is derived
from ``n`` and ``m`` so one block's working set stays within
:data:`BLOCK_BYTES`; :func:`sweep_budget_bytes` states the bound on
everything one sweep allocates at once.

The kernel returns the *raw* accumulation (like the Python reference);
sampling scale, pair normalization and the undirected ``1/2`` factor are
applied by the shared code in :mod:`repro.metrics.betweenness`.  Distance
counts are exact integers, identical to every other backend; floating-point
additions happen in a different order than the Python loops, so centrality
and edge load agree to numerical accuracy rather than bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import register_kernel
from repro.kernels.biggraph import _arc_edge_ids
from repro.kernels.csr import csr_graph

#: Working set one block of sources may use: σ, δ, the forward bincount and
#: the DAG pair records.  The block width is the largest power of two whose
#: estimate (:func:`_source_bytes` per source) fits.
BLOCK_BYTES = 8 * 1024 * 1024

#: Sources per block at most: one bit each in a 64-bit word.
MAX_BLOCK = 64

_WORDS = {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4"), 64: np.dtype("<u8")}


def _source_bytes(n: int, m: int) -> int:
    """Upper estimate of one source's share of a block's working set.

    Three ``float64`` entries per node (σ, δ and the forward bincount) and,
    per DAG pair, its three int64 records plus the transient arrays of the
    level that creates it; a source has at most ``m`` DAG pairs.
    """
    return 24 * n + 48 * m


def block_width(n: int, m: int) -> int:
    """Sources per block: the largest power of two fitting :data:`BLOCK_BYTES`."""
    fits = max(1, BLOCK_BYTES // max(_source_bytes(n, m), 1))
    return min(MAX_BLOCK, 1 << (fits.bit_length() - 1))


def sweep_budget_bytes(n: int, m: int) -> int:
    """Bound on what one :func:`brandes_sweep` allocates at once.

    The per-sweep arrays (the arc rows, per-arc load and edge ids, one word
    per arc, centrality and edge load) are ``O(n + m)``; on top of them sits
    one block, which is at most :data:`BLOCK_BYTES` unless a single source
    alone needs more.
    """
    return 16 * n + 64 * m + max(BLOCK_BYTES, _source_bytes(n, m))


def _pack(mask: np.ndarray, n: int, k: int, word: np.dtype) -> np.ndarray:
    """One word per node from an ``n × k`` node-major bit mask."""
    if k < 8:
        padded = np.zeros((n, 8), dtype=bool)
        padded[:, :k] = mask.reshape(n, k)
        mask = padded
    return np.packbits(mask, bitorder="little").view(word)


def _sweep_block(csr, arc_rows, batch, centrality, arc_load) -> list[int]:
    """Accumulate one block into ``centrality``/``arc_load``; return its level sizes."""
    n = csr.n
    indices = csr.indices
    k = 1 << (len(batch) - 1).bit_length()
    shift = k.bit_length() - 1
    word = _WORDS[max(8, k)]
    seeds = batch * k + np.arange(len(batch))
    sigma = np.zeros(n * k)
    sigma[seeds] = 1.0
    frontier = _pack(sigma > 0, n, k, word)
    unvisited = ~frontier
    counts = [len(batch)]
    levels = []
    while True:
        dag = frontier[indices]
        dag &= unvisited[arc_rows]
        arcs = np.flatnonzero(dag != 0)
        if arcs.size == 0:
            break
        bits = np.unpackbits(dag[arcs].view(np.uint8), bitorder="little")
        if k < 8:
            bits = bits.reshape(-1, 8)[:, :k]
        flat = np.flatnonzero(bits.view(bool))
        # pair p is bit flat[p] % k of arc word pos[p]; its flat keys follow
        # by shifting flat onto the rows of the arc's two endpoints
        pos = flat >> shift
        base = np.arange(0, -k * len(arcs), -k, dtype=np.int64)
        ku = flat + (indices[arcs].astype(np.int64) * k + base)[pos]
        kv = flat + (arc_rows[arcs] * k + base)[pos]
        grown = np.bincount(kv, weights=sigma[ku], minlength=n * k)
        sigma += grown
        fresh = grown > 0
        counts.append(int(np.count_nonzero(fresh)))
        frontier = _pack(fresh, n, k, word)
        unvisited &= ~frontier
        levels.append((arcs, pos, ku, kv))

    delta = np.zeros(n * k)
    for arcs, pos, ku, kv in reversed(levels):
        contribution = sigma[ku] / sigma[kv] * (1.0 + delta[kv])
        delta += np.bincount(ku, weights=contribution, minlength=n * k)
        if arc_load is not None:
            arc_load[arcs] += np.bincount(pos, weights=contribution, minlength=len(arcs))
    delta[seeds] = 0.0
    centrality += delta.reshape(n, k).sum(axis=1)
    return counts


def brandes_sweep(
    csr, source_nodes: Sequence[int], want_edge_load: bool = False
) -> tuple[dict[int, int], np.ndarray, np.ndarray | None]:
    """Raw Brandes sweep: ``(histogram, centrality, edge load)``.

    ``csr`` is any CSR-shaped view (``n``/``m``/``degrees``/``indptr``/
    ``indices``): a :class:`~repro.kernels.csr.CSRGraph` or a memory-mapped
    BigGraph.  The histogram counts (source, node) pairs per hop distance,
    self-pairs included and unreachable pairs excluded.  ``edge_load`` is
    the per-edge dependency accumulation in sorted canonical edge order, or
    ``None`` unless ``want_edge_load``.  Repeated sources count repeatedly.
    """
    sources = np.asarray(source_nodes, dtype=np.int64)
    centrality = np.zeros(csr.n, dtype=np.float64)
    arc_load = np.zeros(len(csr.indices), dtype=np.float64) if want_edge_load else None
    histogram: dict[int, int] = {}
    if len(sources):
        arc_rows = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees)
        width = block_width(csr.n, csr.m)
        for begin in range(0, len(sources), width):
            batch = sources[begin : begin + width]
            counts = _sweep_block(csr, arc_rows, batch, centrality, arc_load)
            for level, count in enumerate(counts):
                histogram[level] = histogram.get(level, 0) + count
    edge_load = None
    if arc_load is not None:
        edge_load = np.bincount(_arc_edge_ids(csr), weights=arc_load, minlength=csr.m)
    return histogram, centrality, edge_load


@register_kernel("betweenness_accumulate", "csr")
def betweenness_accumulate(graph: SimpleGraph, source_nodes: Sequence[int]) -> list[float]:
    """Raw Brandes accumulation over ``source_nodes`` (no scaling applied)."""
    return brandes_sweep(csr_graph(graph), source_nodes)[1].tolist()


__all__ = [
    "BLOCK_BYTES",
    "MAX_BLOCK",
    "betweenness_accumulate",
    "block_width",
    "brandes_sweep",
    "sweep_budget_bytes",
]
