"""Canonical graph serialization for the artifact store.

Content addressing only works when equal graphs serialize to equal bytes, so
this module defines *one* canonical byte form layered on the plain edge-list
format of :mod:`repro.graph.io`:

* a header line ``repro-graph <version> <n> <m>``,
* followed by the ``m`` edges as ``u v`` lines with ``u < v``, sorted
  lexicographically, every line (the last included) ending in ``\n``.

The byte form is therefore independent of the order in which nodes and edges
were inserted into the :class:`~repro.graph.simple_graph.SimpleGraph` (it is
*not* isomorphism-invariant: relabelling nodes changes the bytes, as it
changes the graph).  :func:`graph_content_hash` is the SHA-256 of the
canonical bytes and is the identity of a graph everywhere in the store.

Decoding (:func:`graph_from_bytes`) is strict: it accepts the canonical
byte form and nothing else, so a damaged payload is an error, never a
different graph.  It raises :class:`~repro.exceptions.GraphError` for

* a bad header line or an unsupported format version,
* a body whose line count differs from the announced ``m``, or a missing
  final newline,
* any line that is not two decimal ids (no leading zeros) separated by one
  space: blank lines, extra or missing fields, non-digit bytes,
* an id ``>= n``, a self-loop, or a line with ``u > v``,
* lines out of canonical order, and so any repeated edge.

The checks run in bulk over the whole body (one regex match, one parse of
all ids, a few passes of integer comparisons), and the graph is built with
:meth:`SimpleGraph.from_flat_edges
<repro.graph.simple_graph.SimpleGraph.from_flat_edges>`.  A flip that turns
one valid payload into another valid one (another id in range, still in
order) passes these checks: gzip's CRC catches it in a compressed payload,
and the content hash (``read_graph_artifact(..., verify=True)``) in either.

On disk an artifact is a directory holding the (optionally gzip-compressed)
edge payload plus a small ``manifest.json`` with the sizes, the content hash
and caller-supplied metadata; see :func:`write_graph_artifact` /
:func:`read_graph_artifact`.  Reading cross-checks the manifest's sizes
against the payload, so a swapped or stale payload is an error too.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from itertools import islice
from operator import lt
from pathlib import Path
from typing import Any, Union

from repro.exceptions import GraphError, StoreError
from repro.graph.simple_graph import SimpleGraph

PathLike = Union[str, Path]

#: Format tag and version written into the canonical header line.
FORMAT_NAME = "repro-graph"
FORMAT_VERSION = 1

_GZIP_MAGIC = b"\x1f\x8b"

#: The body of a canonical payload: ``u v`` lines of decimal ids without
#: leading zeros, each ending in a newline.  The repeat is possessive
#: (``*+``), so the match keeps no backtracking state per line; a plain
#: ``*`` makes it grow by megabytes on a skitter-sized body.
_EDGE_LINES = re.compile(rb"(?:(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)\n)*+")
_SEPARATORS_TO_COMMAS = bytes.maketrans(b" \n", b",,")

MANIFEST_NAME = "manifest.json"
EDGES_NAME = "graph.edges"
EDGES_GZ_NAME = "graph.edges.gz"


def canonical_bytes(graph: SimpleGraph) -> bytes:
    """Uncompressed canonical byte form of ``graph`` (header + sorted edges)."""
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION} {graph.number_of_nodes} {graph.number_of_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges()))
    return ("\n".join(lines) + "\n").encode("ascii")


def graph_to_bytes(graph: SimpleGraph, *, compress: bool = True) -> bytes:
    """Serialize ``graph`` canonically, gzip-compressed unless ``compress=False``.

    Compression is deterministic (``mtime=0``), so equal graphs produce equal
    compressed bytes as well.
    """
    raw = canonical_bytes(graph)
    if compress:
        return gzip.compress(raw, mtime=0)
    return raw


def graph_from_bytes(data: bytes) -> SimpleGraph:
    """Deserialize bytes produced by :func:`graph_to_bytes` (either flavour).

    The gzip layer is auto-detected from the magic number.  Decoding is
    strict: anything but the canonical byte form raises
    :class:`~repro.exceptions.GraphError` (see the module docstring), and
    the body is validated and built in bulk rather than edge by edge.
    """
    if data[:2] == _GZIP_MAGIC:
        data = gzip.decompress(data)
    if not data:
        raise GraphError("empty graph payload")
    head, newline, body = data.partition(b"\n")
    try:
        header_line = head.decode("ascii")
    except UnicodeDecodeError as error:
        raise GraphError(f"graph payload is not ascii: {error}") from None
    header = header_line.split()
    if len(header) != 4 or header[0] != FORMAT_NAME:
        raise GraphError(f"malformed graph header: {header_line!r}")
    if int(header[1]) != FORMAT_VERSION:
        raise GraphError(
            f"unsupported graph format version {header[1]} (expected {FORMAT_VERSION})"
        )
    n, m = int(header[2]), int(header[3])
    if not newline:
        raise GraphError("graph payload is missing its final newline")
    lines = body.count(b"\n")
    if lines != m:
        raise GraphError(f"graph payload announces {m} edges but carries {lines} lines")
    edge_u, edge_v = _edge_columns(body, n)
    return SimpleGraph.from_flat_edges(n, edge_u, edge_v)


def _edge_columns(body: bytes, n: int) -> tuple[list[int], list[int]]:
    """The ``u`` and ``v`` columns of a payload body, validated in bulk."""
    if _EDGE_LINES.fullmatch(body) is None:
        raise GraphError("graph payload has a malformed edge line (expected 'u v' per line)")
    # the match leaves only decimal ids without leading zeros, so with commas
    # for separators the body is a JSON array: one C-level parse of all ids
    ends = json.loads(b"[" + body[:-1].translate(_SEPARATORS_TO_COMMAS) + b"]")
    edge_u, edge_v = ends[0::2], ends[1::2]
    if not edge_u:
        return edge_u, edge_v
    if max(edge_v) >= n:
        raise GraphError(f"graph payload references a node id >= n={n}")
    if not all(map(lt, edge_u, edge_v)):
        loop = next((u for u, v in zip(edge_u, edge_v) if u == v), None)
        if loop is not None:
            raise GraphError(f"self-loop ({loop}, {loop}) in graph payload")
        raise GraphError("graph payload has an edge line with u > v")
    keys = [u * n + v for u, v in zip(edge_u, edge_v)]
    if not all(map(lt, keys, islice(keys, 1, None))):
        raise GraphError("graph payload edges are not strictly sorted (or repeat an edge)")
    return edge_u, edge_v


def graph_content_hash(graph: SimpleGraph) -> str:
    """SHA-256 hex digest of the canonical byte form of ``graph``.

    Stable across node/edge insertion order; this is the graph's identity in
    the artifact store (metric results are keyed by it).
    """
    return hashlib.sha256(canonical_bytes(graph)).hexdigest()


def write_graph_artifact(
    directory: PathLike,
    graph: SimpleGraph,
    *,
    metadata: dict[str, Any] | None = None,
    compress: bool = True,
) -> dict[str, Any]:
    """Write ``graph`` + manifest into ``directory``; returns the manifest.

    The directory is created if needed.  The manifest records the format
    version, sizes, the content hash and the caller's ``metadata`` block.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    raw = canonical_bytes(graph)
    payload_name = EDGES_GZ_NAME if compress else EDGES_NAME
    payload = gzip.compress(raw, mtime=0) if compress else raw
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "nodes": graph.number_of_nodes,
        "edges": graph.number_of_edges,
        "content_hash": hashlib.sha256(raw).hexdigest(),
        "payload": payload_name,
        "metadata": metadata or {},
    }
    (directory / payload_name).write_bytes(payload)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


def read_graph_artifact(
    directory: PathLike, *, verify: bool = False
) -> tuple[SimpleGraph, dict[str, Any]]:
    """Read a graph artifact directory back into ``(graph, manifest)``.

    A payload whose size differs from the manifest's ``nodes`` / ``edges``
    raises :class:`~repro.exceptions.StoreError`.  ``verify=True`` also
    recomputes the content hash and raises ``StoreError`` on mismatch
    (payload corruption).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise StoreError(f"{directory} is not a graph artifact (no {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text())
    payload_path = directory / manifest.get("payload", EDGES_GZ_NAME)
    if not payload_path.exists():
        raise StoreError(f"graph artifact {directory} is missing its payload {payload_path.name}")
    graph = graph_from_bytes(payload_path.read_bytes())
    sizes = (graph.number_of_nodes, graph.number_of_edges)
    if (manifest.get("nodes"), manifest.get("edges")) != sizes:
        raise StoreError(
            f"graph artifact {directory} is corrupt: payload has n={sizes[0]}, "
            f"m={sizes[1]} but the manifest records n={manifest.get('nodes')}, "
            f"m={manifest.get('edges')}"
        )
    if verify:
        actual = graph_content_hash(graph)
        if actual != manifest.get("content_hash"):
            raise StoreError(
                f"graph artifact {directory} is corrupt: "
                f"content hash {actual} != manifest {manifest.get('content_hash')}"
            )
    return graph, manifest


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "EDGES_NAME",
    "EDGES_GZ_NAME",
    "canonical_bytes",
    "graph_to_bytes",
    "graph_from_bytes",
    "graph_content_hash",
    "write_graph_artifact",
    "read_graph_artifact",
]
