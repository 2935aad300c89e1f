"""Pluggable backend registry: pure-Python loops vs NumPy CSR kernels.

Every heavy graph kernel (BFS sweeps, triangle counting, edge-array
correlation sums, Brandes betweenness, and the rewiring Markov-chain
engines behind :func:`~repro.generators.rewiring.preserving.dk_randomize`
and the targeting constructions) exists in two interchangeable
implementations:

* ``"python"`` — the original pure-Python loops over :class:`SimpleGraph`
  adjacency sets.  Always available; the reference implementation.
* ``"csr"``    — vectorized NumPy kernels over the one CSR graph type,
  :class:`~repro.kernels.biggraph.BigGraph`: the cached in-memory snapshot
  of a SimpleGraph, or a memory-mapped million-node artifact.  Orders of
  magnitude faster on large graphs; requires NumPy.

``"biggraph"``, the name of the memory-mapped tier's own backend before the
two NumPy paths became one, is still accepted as a deprecated alias of
``"csr"`` (:data:`BACKEND_ALIASES`), because stored experiment specs carry
the backend name.

Callers never import kernel modules directly: the metric functions in
:mod:`repro.metrics` dispatch through :func:`get_kernel` with a backend name
resolved by :func:`resolve_backend`.  For *metric* kernels both backends
return *identical* results — integer subgraph/distance counts are exact and
the floating-point summaries are computed from those counts by shared code.
The *rewiring* kernels are stochastic: each engine is deterministic per seed
and exactly preserves the chain's dK-invariants, but the two engines sample
different (equally valid) dK-random graphs for one seed.  In both cases the
backend is a pure execution knob and never enters artifact-store cache keys.

Selection precedence: a BigGraph always runs on ``"csr"`` (it has no
adjacency sets); otherwise a per-call ``backend=`` argument, then the
process-wide setting installed with :func:`use_backend`, then ``"auto"``
(CSR for graphs with at least :data:`AUTO_THRESHOLD` nodes when NumPy is
importable, python otherwise).  When NumPy is absent the CSR backend
silently degrades to the python one, so the library stays fully functional
on a bare interpreter.

``use_backend`` doubles as a context manager::

    use_backend("csr")            # process-wide, from now on
    with use_backend("python"):   # temporarily, restored on exit
        summarize(graph)
"""

from __future__ import annotations

import importlib
import os
import warnings
from typing import Callable

from repro.telemetry.core import span, tracing_enabled

try:
    import numpy  # noqa: F401  (availability probe only)

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    HAS_NUMPY = False

#: The concrete backends every kernel is registered for.
BACKENDS = ("python", "csr")

#: Deprecated backend names, still accepted, and the backend each one means.
BACKEND_ALIASES = {"biggraph": "csr"}

#: Every name a caller may pass: the backends, ``"auto"`` and the aliases.
ACCEPTED_BACKENDS = (*BACKENDS, "auto", *BACKEND_ALIASES)


def _int_env(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={os.environ[name]!r} (using {default})",
            RuntimeWarning,
        )
        return default


#: Under ``"auto"``, graphs with at least this many nodes use the CSR backend
#: (building the CSR arrays costs more than it saves on tiny graphs).
AUTO_THRESHOLD = _int_env("REPRO_CSR_THRESHOLD", 1024)

#: A malformed REPRO_BACKEND is reported by the first resolve_backend call
#: (validating here would make the whole package unimportable).
_state = {"backend": os.environ.get("REPRO_BACKEND", "auto")}

#: ``(kernel name, backend) -> implementation``; populated by the
#: ``register_kernel`` decorators in the metric and kernel modules.
_KERNELS: dict[tuple[str, str], Callable] = {}

#: Module that registers each kernel, per backend, imported on first use.
#: The python implementations live next to the metric code they originated
#: from; the CSR ones in :mod:`repro.kernels` (NumPy is only imported when a
#: CSR kernel is actually requested).
_KERNEL_MODULES: dict[tuple[str, str], str] = {
    ("bfs_histogram", "python"): "repro.metrics.distances",
    ("bfs_histogram", "csr"): "repro.kernels.bfs",
    # the unified sweep behind the measurement planner: one traversal
    # yields the distance histogram and (optionally) Brandes betweenness
    ("bfs_sweep", "python"): "repro.kernels.sweep_python",
    ("bfs_sweep", "csr"): "repro.kernels.sweep",
    ("triangles_per_node", "python"): "repro.kernels.triangles_python",
    ("triangles_per_node", "csr"): "repro.kernels.triangles",
    ("edge_degree_moments", "python"): "repro.kernels.correlations_python",
    ("edge_degree_moments", "csr"): "repro.kernels.biggraph",
    ("second_order_total", "python"): "repro.kernels.correlations_python",
    ("second_order_total", "csr"): "repro.kernels.biggraph",
    ("jdd_counts", "python"): "repro.kernels.correlations_python",
    ("jdd_counts", "csr"): "repro.kernels.biggraph",
    ("betweenness_accumulate", "python"): "repro.metrics.betweenness",
    ("betweenness_accumulate", "csr"): "repro.kernels.betweenness",
    # rewiring engines: "python" = the per-move SimpleGraph loops, "csr" =
    # the batched flat-edge-array engine.  Unlike the metric kernels the two
    # engines draw different random streams, so for one seed they build
    # different (equally valid, invariant-exact) dK-random graphs — which is
    # why the engine name must never enter artifact-store cache keys.
    ("rewire_randomize", "python"): "repro.generators.rewiring.preserving",
    ("rewire_randomize", "csr"): "repro.kernels.rewiring",
    ("rewire_target_2k", "python"): "repro.generators.rewiring.targeting",
    ("rewire_target_2k", "csr"): "repro.kernels.rewiring",
    ("rewire_target_3k", "python"): "repro.generators.rewiring.targeting",
    ("rewire_target_3k", "csr"): "repro.kernels.rewiring",
}

_warned_missing_numpy = False


def available_backends() -> tuple[str, ...]:
    """Backends usable in this interpreter (``csr`` needs NumPy)."""
    return BACKENDS if HAS_NUMPY else ("python",)


def _validate(name: str) -> str:
    """``name`` itself, or the backend a deprecated alias stands for."""
    if name not in ACCEPTED_BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {', '.join(ACCEPTED_BACKENDS)}"
        )
    if name in BACKEND_ALIASES:
        warnings.warn(
            f"backend {name!r} is a deprecated alias of {BACKEND_ALIASES[name]!r}",
            DeprecationWarning,
            stacklevel=3,
        )
        return BACKEND_ALIASES[name]
    return name


class _BackendSetting:
    """Return value of :func:`use_backend`: active immediately, and usable as
    a context manager that restores the previous setting on exit."""

    def __init__(self, name: str, previous: str):
        self.name = name
        self._previous = previous

    def __enter__(self) -> str:
        return self.name

    def __exit__(self, *exc_info) -> None:
        _state["backend"] = self._previous

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_BackendSetting(name={self.name!r}, previous={self._previous!r})"


def use_backend(name: str) -> _BackendSetting:
    """Install ``name`` ("python", "csr" or "auto") as the process-wide backend."""
    previous = _state["backend"]
    _state["backend"] = name = _validate(name)
    return _BackendSetting(name, previous)


def current_backend() -> str:
    """The process-wide backend setting (possibly ``"auto"``)."""
    return _state["backend"]


def resolve_backend(graph=None, backend: str | None = None) -> str:
    """Concrete backend for one call: per-call override > setting > auto.

    ``"auto"`` picks CSR when NumPy is importable and ``graph`` has at least
    :data:`AUTO_THRESHOLD` nodes.  An explicit ``"csr"`` without NumPy warns
    once and degrades to ``"python"`` instead of failing.
    """
    if getattr(graph, "is_biggraph", False):
        # A BigGraph has no adjacency sets: only the CSR kernels can touch it.
        return "csr"
    name = _validate(backend if backend is not None else _state["backend"])
    if name == "auto":
        if not HAS_NUMPY:
            return "python"
        size = 0 if graph is None else graph.number_of_nodes
        return "csr" if size >= AUTO_THRESHOLD else "python"
    if name == "csr" and not HAS_NUMPY:
        global _warned_missing_numpy
        if not _warned_missing_numpy:
            warnings.warn(
                f"the {name!r} backend requires numpy (pip install repro[fast]); "
                "falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned_missing_numpy = True
        return "python"
    return name


def register_kernel(name: str, backend: str):
    """Decorator registering ``func`` as the ``backend`` implementation of ``name``."""

    def decorator(func: Callable) -> Callable:
        _KERNELS[(name, _validate(backend))] = func
        return func

    return decorator


def get_kernel(name: str, backend: str) -> Callable:
    """Implementation of kernel ``name`` for a *concrete* backend name."""
    key = (name, backend)
    impl = _KERNELS.get(key)
    if impl is None:
        module = _KERNEL_MODULES.get(key)
        if module is None:
            raise KeyError(f"no kernel {name!r} for backend {backend!r}")
        importlib.import_module(module)
        impl = _KERNELS[key]
    return impl


def dispatch(name: str, graph, backend: str | None = None) -> Callable:
    """Resolve the backend for ``graph`` and return the kernel ``name``.

    When tracing is enabled the returned callable is wrapped in a
    ``kernel.<name>`` telemetry span carrying the concrete backend and graph
    size; when disabled (the default) the raw kernel is returned, so the
    hot path pays nothing beyond one truthiness check here.
    """
    concrete = resolve_backend(graph, backend)
    kernel = get_kernel(name, concrete)
    if not tracing_enabled():
        return kernel

    def traced_kernel(*args, **kwargs):
        with span(
            f"kernel.{name}",
            backend=concrete,
            n=graph.number_of_nodes,
            m=graph.number_of_edges,
        ):
            return kernel(*args, **kwargs)

    return traced_kernel


__all__ = [
    "HAS_NUMPY",
    "BACKENDS",
    "BACKEND_ALIASES",
    "ACCEPTED_BACKENDS",
    "AUTO_THRESHOLD",
    "available_backends",
    "use_backend",
    "current_backend",
    "resolve_backend",
    "register_kernel",
    "get_kernel",
    "dispatch",
]
