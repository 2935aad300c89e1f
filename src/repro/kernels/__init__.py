"""Vectorized CSR graph-kernel engine with pluggable metric backends.

The public surface is the backend registry (:mod:`repro.kernels.backend`) —
``use_backend`` / ``resolve_backend`` / ``get_kernel`` — plus the CSR
accessor :func:`repro.kernels.biggraph.csr_graph`, which returns a BigGraph
as is and a SimpleGraph's cached BigGraph snapshot.  The kernel modules
(:mod:`~repro.kernels.bfs`, :mod:`~repro.kernels.sweep` — the unified
distance+betweenness sweep behind the measurement planner —
:mod:`~repro.kernels.triangles`, :mod:`~repro.kernels.betweenness`, and the
correlation kernels in :mod:`~repro.kernels.biggraph`) are imported lazily
by the registry so NumPy is only required when the CSR backend is actually
used (:mod:`~repro.kernels.biggraph` itself imports without it).
"""

from repro.kernels.backend import (
    ACCEPTED_BACKENDS,
    AUTO_THRESHOLD,
    BACKEND_ALIASES,
    BACKENDS,
    HAS_NUMPY,
    available_backends,
    current_backend,
    dispatch,
    get_kernel,
    register_kernel,
    resolve_backend,
    use_backend,
)
from repro.kernels.biggraph import csr_graph

__all__ = [
    "ACCEPTED_BACKENDS",
    "AUTO_THRESHOLD",
    "BACKEND_ALIASES",
    "BACKENDS",
    "HAS_NUMPY",
    "available_backends",
    "current_backend",
    "dispatch",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
    "use_backend",
    "csr_graph",
]
