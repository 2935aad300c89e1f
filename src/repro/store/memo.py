"""Memoized generation and measurement on top of the artifact store.

Facades that keep the eager APIs' signatures but read/write an
:class:`~repro.store.artifact_store.ArtifactStore` transparently:

* :func:`memoized_build` wraps :meth:`GeneratorSpec.build
  <repro.generators.registry.GeneratorSpec.build>`: the generated graph is
  keyed by ``(generator name, params, seed, source graph hash, code
  version)``, so the same construction is never run twice — across
  processes, sessions or experiment grids.
* :func:`memoized_measure` wraps :meth:`MeasurementPlan.run
  <repro.measure.plan.MeasurementPlan.run>` with **metric-granular** cache
  entries: every metric is stored under its own ``(graph content hash,
  metric name, metric params, code version)`` key, so widening a previously
  measured metric set computes only the new metrics (sharing one planner
  run — and hence one BFS sweep — among them) while the old ones are store
  reads.  A hit extracts no giant component: whether a sampled sweep is
  effectively exact is decided from the component's cached node count
  (:func:`~repro.measure.intermediates.shared_giant_size`), and only the
  planner run over missing metrics builds the component subgraph.
* :func:`memoized_summarize` keeps the historical Table-2 facade: it is now
  ``memoized_measure`` over the full scalar battery, rendered as a
  :class:`~repro.metrics.summary.ScalarMetrics`.

These facades are the one place that decides between store and no store:
with ``store=None`` they run the eager computation (still under the same
``store.generate``/``store.measure`` spans, tagged ``cache="off"``), so
callers — the experiment pipeline, the CLI, the topology service — keep a
single code path whether or not a cache sits beneath them.  The generator
registry (NumPy-dependent) is imported lazily, and ``json_safe`` comes from
the NumPy-free :mod:`repro.utils.jsonable`, so ``import repro.store`` works
on a bare interpreter.

Note the one caveat of memoizing sampled metrics: when ``distance_sources``
is set, cached values reflect the BFS sample of whichever run computed them
(the ``rng`` cannot be part of the key), and the traversal metrics of one
request are always recomputed *together* so they describe a single sample;
exact metrics — the default — are unaffected.
"""

from __future__ import annotations

import uuid
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import shared_giant_size
from repro.measure.plan import (
    Measurement,
    MeasurementPlan,
    decode_metric_value,
    encode_metric_value,
)
from repro.measure.registry import get_metric_def
from repro.metrics.summary import ScalarMetrics
from repro.store.artifact_store import ArtifactStore
from repro.store.keys import code_version, generation_key, metric_key
from repro.store.serialize import graph_content_hash
from repro.telemetry import counter_inc, span
from repro.utils.jsonable import json_safe
from repro.utils.rng import RngLike

if TYPE_CHECKING:
    from repro.generators.registry import GenerationResult, GeneratorSpec

#: Legacy metric name of the monolithic Table-2 block (store entries are now
#: metric-granular; kept for reference and external tooling).
SCALAR_SUMMARY_METRIC = "scalar_summary"


def memoized_build(
    spec: GeneratorSpec,
    original: SimpleGraph,
    d: int,
    *,
    seed: int,
    store: ArtifactStore | None,
    options: Mapping[str, Any] | None = None,
    source_hash: str | None = None,
    read: bool = True,
    backend: str | None = None,
) -> GenerationResult:
    """Build (or load) the ``(spec, d, options, seed)`` graph for ``original``.

    On a store hit the :class:`GenerationResult` is reconstructed from the
    artifact manifest — including the stats and the *original* construction
    wall time — and no generator code runs.  ``read=False`` skips the lookup
    (forced recomputation) while still writing the result.

    ``backend`` selects the rewiring engine for chain-based generators and is
    deliberately **not** part of the cache key: both engines build per-seed
    deterministic, invariant-exact dK-graphs, so a graph generated by one
    engine is served to runs requesting the other (mirroring the metric
    kernels).  Which engine generated a cached graph is recorded in its
    manifest stats.
    """
    from repro.generators.registry import GenerationResult  # needs NumPy

    options = dict(options or {})
    if store is None:
        with span("store.generate", method=spec.name, d=d, seed=seed, cache="off") as sp:
            result = spec.build(original, d, rng=seed, backend=backend, **options)
            sp.set(n=result.graph.number_of_nodes, m=result.graph.number_of_edges)
            return result
    if source_hash is None:
        source_hash = graph_content_hash(original)
    key = generation_key(spec.name, options, seed, source_hash, d=d)
    with span("store.generate", method=spec.name, d=d, seed=seed) as sp:
        cached = store.get_graph(key) if read else None
        if cached is not None:
            graph, manifest = cached
            metadata = manifest.get("metadata", {})
            sp.set(cache="hit", n=graph.number_of_nodes, m=graph.number_of_edges)
            return GenerationResult(
                graph=graph,
                method=spec.name,
                d=d,
                seed=seed,
                wall_time=float(metadata.get("wall_time", 0.0)),
                stats=dict(metadata.get("stats", {})),
                content_hash=manifest.get("content_hash"),
            )
        sp.set(cache="miss")
        result = spec.build(original, d, rng=seed, backend=backend, **options)
        sp.set(n=result.graph.number_of_nodes, m=result.graph.number_of_edges)
        manifest = store.put_graph(
            key,
            result.graph,
            metadata={
                "code_version": code_version(),
                "method": spec.name,
                "d": d,
                "params": json_safe(options),
                "seed": seed,
                "source": source_hash,
                "wall_time": float(result.wall_time),
                "stats": json_safe(result.stats),
            },
        )
        # reuse the hash put_graph computed while serializing; only a lost write
        # race (manifest None) needs its own canonicalization pass
        content_hash = (
            manifest["content_hash"] if manifest else graph_content_hash(result.graph)
        )
        return GenerationResult(
            graph=result.graph,
            method=result.method,
            d=result.d,
            seed=result.seed,
            wall_time=result.wall_time,
            stats=result.stats,
            content_hash=content_hash,
        )


def _metric_params(
    name: str, *, use_giant_component: bool, distance_sources: int | None
) -> dict[str, Any]:
    """The measurement options relevant to one metric (its cache identity).

    Only the parameters the metric's registry entry declares relevant are
    included, so e.g. changing ``distance_sources`` invalidates the
    traversal metrics but keeps clustering/assortativity entries warm.
    """
    all_params = {
        "use_giant_component": use_giant_component,
        "distance_sources": distance_sources,
    }
    return {p: all_params[p] for p in get_metric_def(name).cache_params}


def _metric_entry_key(
    graph_hash: str,
    name: str,
    *,
    use_giant_component: bool,
    distance_sources: int | None,
) -> str:
    """Store key of one metric value on one graph."""
    params = _metric_params(
        name, use_giant_component=use_giant_component, distance_sources=distance_sources
    )
    return metric_key(graph_hash, f"measure:{name}", params)


def measure_entry_keys(
    graph_hash: str,
    metrics: Sequence[str],
    *,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
) -> dict[str, str]:
    """Store key of every requested metric on the graph ``graph_hash``.

    The same keys :func:`memoized_measure` reads and writes — exposed so
    callers (e.g. the topology service's warm/cold accounting) can probe
    store warmth without recomputing anything.
    """
    return {
        name: _metric_entry_key(
            graph_hash,
            name,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )
        for name in dict.fromkeys(metrics)
    }


def memoized_measure(
    graph: SimpleGraph,
    store: ArtifactStore | None,
    *,
    metrics: Sequence[str],
    graph_hash: str | None = None,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
    rng: RngLike = None,
    read: bool = True,
    backend: str | None = None,
    sweep_executor=None,
) -> Measurement:
    """Measure ``graph`` with metric-granular store memoization.

    Metrics already in the store are loaded; the missing ones are computed
    together in a single planner run (sharing intermediates — in particular
    one BFS sweep) and written back, each under its own key.  ``read=False``
    skips the lookups (forced recomputation) while still writing.

    ``backend`` selects the kernel backend for the computation only: both
    backends produce bit-identical values, so it is deliberately **not**
    part of any cache key — a value computed with CSR kernels is served to
    pure-Python runs and vice versa.
    """
    plan = MeasurementPlan(
        tuple(metrics),
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    )
    if store is None:
        with span(
            "store.measure",
            metrics=len(plan.metrics),
            n=graph.number_of_nodes,
            m=graph.number_of_edges,
            cache="off",
        ):
            return plan.run(graph, rng=rng, backend=backend, sweep_executor=sweep_executor)
    with span(
        "store.measure",
        metrics=len(plan.metrics),
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ) as sp:
        if graph_hash is None:
            if getattr(graph, "is_biggraph", False):
                # a BigGraph's identity is its binary CSR hash; the text
                # canonicalization below would materialize all 2m edge tuples
                from repro.graph.mmap_io import biggraph_content_hash

                graph_hash = graph.content_hash or biggraph_content_hash(
                    graph.indptr, graph.indices
                )
            else:
                graph_hash = graph_content_hash(graph)
        keys = measure_entry_keys(
            graph_hash,
            plan.metrics,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )
        # the sweep is only *actually* sampled below the measurement target's
        # node count (sample_sources clamps); exact sweeps are deterministic,
        # so their metrics cache and mix freely.  The target's size is a
        # cached component count: a hit never extracts the giant component,
        # only a planner run over missing metrics does.
        effectively_sampled = (
            distance_sources is not None and distance_sources < graph.number_of_nodes
        )
        if effectively_sampled and use_giant_component:
            effectively_sampled = distance_sources < shared_giant_size(graph)
        sweep_needs = {"sweep", "betweenness", "edge_load"}

        values: dict[str, Any] = {}
        payloads: dict[str, dict[str, Any]] = {}
        missing: list[str] = []
        for name in plan.metrics:
            cached = store.get_metric(keys[name]) if read else None
            if cached is not None:
                values[name] = decode_metric_value(name, cached["value"])
                payloads[name] = cached
                counter_inc("repro_memo_metric_hits_total", metric=name)
            else:
                missing.append(name)
                counter_inc("repro_memo_metric_misses_total", metric=name)

        sample_tag = None
        if effectively_sampled:
            # sampled traversals: the requested sweep metrics must all describe
            # ONE source sample.  Recompute the whole group together when any of
            # them is missing, or when the cached entries were written by
            # different runs (distinct sample tags) — e.g. d̄ from one sample
            # paired with σ_d from another would be a pair no sweep produced.
            sampled = [
                name
                for name in plan.metrics
                if sweep_needs & set(get_metric_def(name).needs)
            ]
            cached_sampled = [name for name in sampled if name in values]
            tags = {payloads[name].get("sample_tag") for name in cached_sampled}
            group_dirty = any(name in missing for name in sampled) or (
                len(cached_sampled) > 1 and (len(tags) != 1 or None in tags)
            )
            if sampled and group_dirty:
                missing.extend(name for name in sampled if name not in missing)
                missing.sort(key=plan.metrics.index)
                for name in sampled:
                    values.pop(name, None)
                sample_tag = uuid.uuid4().hex  # marks entries of this one sweep

        sp.set(
            cached=len(plan.metrics) - len(missing),
            computed=len(missing),
            cache="hit" if not missing else ("partial" if values else "miss"),
        )
        if missing:
            residual = MeasurementPlan(
                tuple(missing),
                use_giant_component=use_giant_component,
                distance_sources=distance_sources,
            )
            computed = residual.run(
                graph, rng=rng, backend=backend, sweep_executor=sweep_executor
            )
            for name in missing:
                values[name] = computed[name]
                entry = {
                    "code_version": code_version(),
                    "graph": graph_hash,
                    "metric": f"measure:{name}",
                    "params": _metric_params(
                        name,
                        use_giant_component=use_giant_component,
                        distance_sources=distance_sources,
                    ),
                    "value": json_safe(encode_metric_value(name, computed[name])),
                }
                if sample_tag is not None and sweep_needs & set(get_metric_def(name).needs):
                    entry["sample_tag"] = sample_tag
                store.put_metric(keys[name], entry)
        return Measurement({name: values[name] for name in plan.metrics})


def memoized_summarize(
    graph: SimpleGraph,
    store: ArtifactStore | None,
    *,
    graph_hash: str | None = None,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    rng: RngLike = None,
    read: bool = True,
    backend: str | None = None,
) -> ScalarMetrics:
    """Compute (or load) the Table-2 scalar summary of ``graph``.

    Since the measurement-planner refactor this is metric-granular:
    ``compute_spectrum=True`` after a cached ``compute_spectrum=False`` run
    computes *only* the two Laplacian extremes and reuses the other nine
    entries.  ``graph_hash`` may be supplied when the caller already knows
    the content hash (saves re-canonicalizing the graph).
    """
    plan = MeasurementPlan.table2(compute_spectrum=compute_spectrum)
    measurement = memoized_measure(
        graph,
        store,
        metrics=plan.metrics,
        graph_hash=graph_hash,
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
        rng=rng,
        read=read,
        backend=backend,
    )
    return measurement.scalar_metrics()


__all__ = [
    "SCALAR_SUMMARY_METRIC",
    "measure_entry_keys",
    "memoized_build",
    "memoized_measure",
    "memoized_summarize",
]
