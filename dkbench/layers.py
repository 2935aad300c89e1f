"""Per-layer split of a traced benchmark phase.

The library already emits spans at its layer boundaries (``experiment.*``,
``store.generate``, ``store.measure``, ``intermediate.*``, ``kernel.*``).
:class:`Instrumentation` adds benchmark-side spans (named ``bench.*``)
around the public calls that have none: the :class:`ArtifactStore` get/put
methods, dK extraction and distance, scenario application, JDD rescaling and
streaming generation.  It patches them only while a traced phase runs and
restores the originals afterwards.

:func:`layer_metrics` turns the phase's span events and counter deltas into
the per-layer metrics listed in ``BENCHMARK.json``; :func:`render_table`
prints self time per span, with the time no span covers as its own row.
Layer times are raw seconds of the traced phase, not scaled to the
reference host speed.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from typing import Any, Callable

from repro import telemetry
from repro.store.artifact_store import ArtifactStore

#: ArtifactStore methods timed as ``bench.store.<method>``
STORE_READS = ("get_graph", "get_metric", "get_cell")
STORE_WRITES = ("put_graph", "put_metric", "put_cell")
STORE_METHODS = STORE_READS + STORE_WRITES + ("get_biggraph", "put_biggraph")

#: (span name, defining module, function name) of the timed public calls
FUNCTIONS = (
    ("bench.core.dk_distribution", "repro.core.extraction", "dk_distribution"),
    ("bench.core.graph_dk_distance", "repro.core.distance", "graph_dk_distance"),
    ("bench.workloads.apply_scenario", "repro.workloads.scenarios", "apply_scenario"),
    ("bench.rescale.rescale_jdd", "repro.rescaling.rescale", "rescale_jdd"),
    (
        "bench.streaming.streaming_pseudograph_2k",
        "repro.generators.streaming",
        "streaming_pseudograph_2k",
    ),
)

#: Per-layer metrics: name -> (unit, better).  Every traced run reports all
#: of them; a layer a workload does not exercise reads 0.
LAYER_METRICS = {
    "rewire_d3_busy_s": ("s", "lower"),
    "rewire_d3_attempts_per_s": ("1/s", "higher"),
    "rewire_d3_acceptance": ("ratio", "higher"),
    "rewire_d012_busy_s": ("s", "lower"),
    "rewire_d012_attempts_per_s": ("1/s", "higher"),
    "rewire_d012_acceptance": ("ratio", "higher"),
    "bfs_sweep_busy_s": ("s", "lower"),
    "bfs_sweep_sources": ("count", "higher"),
    "bfs_sweep_arcs_per_s": ("1/s", "higher"),
    "triangles_busy_s": ("s", "lower"),
    "edge_moments_busy_s": ("s", "lower"),
    "intermediate_self_s": ("s", "lower"),
    "construct_busy_s": ("s", "lower"),
    "construct_edges_per_s": ("1/s", "higher"),
    "construct_edge_yield": ("ratio", "higher"),
    "core_extract_s": ("s", "lower"),
    "core_dk_distance_s": ("s", "lower"),
    "store_read_s": ("s", "lower"),
    "store_reads": ("count", "lower"),
    "store_hit_ratio": ("ratio", "higher"),
    "store_write_s": ("s", "lower"),
    "store_writes": ("count", "lower"),
    "store_write_bytes": ("B", "lower"),
    "biggraph_put_s": ("s", "lower"),
    "biggraph_open_s": ("s", "lower"),
    "streaming_generate_s": ("s", "lower"),
    "streaming_edges_per_s": ("1/s", "higher"),
    "rescale_s": ("s", "lower"),
    "scenario_s": ("s", "lower"),
    "experiment_cell_self_s": ("s", "lower"),
    "unspanned_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


#: ``store.generate`` rows: rewiring chains vs direct construction
REWIRE_ROW = "store.generate[rewiring]"
CONSTRUCT_ROW = "store.generate[construct]"


def _timed(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with telemetry.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Context manager that wraps the untraced public calls in ``bench.*`` spans.

    Functions are patched in every loaded ``repro`` module that bound them
    by name, so calls from inside the library are timed too.
    """

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        for method in STORE_METHODS:
            original = ArtifactStore.__dict__[method]
            self._patch(ArtifactStore, method, _timed(f"bench.store.{method}", original))
        for span_name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _timed(span_name, original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def counter_totals(snapshot: dict[str, Any]) -> dict[tuple, float]:
    """``(name, labels) -> value`` of every counter in a metrics snapshot."""
    return {
        (name, tuple(tuple(pair) for pair in labels)): value
        for name, labels, value in snapshot.get("counters", ())
    }


def counter_delta(before: dict[tuple, float], after: dict[tuple, float]) -> dict[tuple, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _counter_sum(
    delta: dict[tuple, float], name: str, **match: Callable[[str], bool]
) -> float:
    """Sum of the series ``name`` whose labels satisfy every ``match`` predicate."""
    total = 0.0
    for (series, labels), value in delta.items():
        if series != name:
            continue
        label_map = dict(labels)
        if all(predicate(label_map.get(key, "")) for key, predicate in match.items()):
            total += value
    return total


def _row_key(event: dict[str, Any]) -> str:
    """Table row of a span: rewiring kernels split by d, generation by method."""
    name = event["name"]
    args = event["args"]
    if name.startswith("kernel.rewire_") and "d" in args:
        return f"{name}[d={args['d']}]"
    if name == "store.generate":
        return REWIRE_ROW if args.get("method") == "rewiring" else CONSTRUCT_ROW
    return name


def span_rows(events: list[dict[str, Any]]) -> dict[str, list[float]]:
    """``row key -> [calls, self seconds, inclusive seconds]``.

    Events arrive in completion order (a child ends before its parent), so a
    span's self time is its duration minus the durations its children, one
    depth deeper, accumulated since the previous span at its own depth ended.
    """
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    children: dict[int, int] = defaultdict(int)
    for event in events:
        depth = event["args"].get("depth", 0)
        duration = event["dur"]
        own = max(duration - children.pop(depth + 1, 0), 0)
        children[depth] += duration
        row = rows[_row_key(event)]
        row[0] += 1
        row[1] += own / 1e6
        row[2] += duration / 1e6
    return dict(rows)


def covered_seconds(events: list[dict[str, Any]]) -> float:
    """Total duration of the outermost spans."""
    return sum(e["dur"] for e in events if e["args"].get("depth", 0) == 0) / 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    events: list[dict[str, Any]],
    counters: dict[tuple, float],
    *,
    traced_busy: float,
    trace_overhead: float,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced phase.

    ``traced_busy`` is the phase's total pass time; ``trace_overhead`` is the
    traced over the untraced pass time, minus one.
    """
    rows = span_rows(events)

    def inclusive(pick: Callable[[str], bool]) -> float:
        return sum(row[2] for key, row in rows.items() if pick(key))

    def own(pick: Callable[[str], bool]) -> float:
        return sum(row[1] for key, row in rows.items() if pick(key))

    def calls(pick: Callable[[str], bool]) -> float:
        return sum(row[0] for key, row in rows.items() if pick(key))

    def named(*names: str) -> Callable[[str], bool]:
        return lambda key: key.split("[")[0] in names

    metrics: dict[str, float] = {}
    for label, is_d3 in (("d3", True), ("d012", False)):
        busy = inclusive(
            lambda key, is_d3=is_d3: key.startswith("kernel.rewire_randomize")
            and key.endswith("[d=3]") == is_d3
        )

        def chain(value: str, is_d3: bool = is_d3) -> bool:  # "3K-preserving ..."
            return value.startswith("3K") == is_d3

        attempted = _counter_sum(counters, "repro_rewiring_attempted_moves_total", chain=chain)
        accepted = _counter_sum(counters, "repro_rewiring_accepted_moves_total", chain=chain)
        metrics[f"rewire_{label}_busy_s"] = busy
        metrics[f"rewire_{label}_attempts_per_s"] = _ratio(attempted, busy)
        metrics[f"rewire_{label}_acceptance"] = _ratio(accepted, attempted)

    sweep_busy = inclusive(named("kernel.bfs_sweep"))
    arcs = sum(
        e["args"].get("sources", 0) * 2 * e["args"].get("m", 0)
        for e in events
        if e["name"] == "intermediate.sweep" and e["args"].get("cache") == "miss"
    )
    metrics["bfs_sweep_busy_s"] = sweep_busy
    metrics["bfs_sweep_sources"] = _counter_sum(counters, "repro_sweep_sources_total")
    metrics["bfs_sweep_arcs_per_s"] = _ratio(arcs, sweep_busy)
    metrics["triangles_busy_s"] = inclusive(named("kernel.triangles_per_node"))
    metrics["edge_moments_busy_s"] = inclusive(named("kernel.edge_degree_moments"))
    metrics["intermediate_self_s"] = own(lambda key: key.startswith("intermediate."))

    construct_busy = own(lambda key: key == CONSTRUCT_ROW)
    constructed = sum(
        e["args"].get("m", 0) for e in events if _row_key(e) == CONSTRUCT_ROW
    )
    metrics["construct_busy_s"] = construct_busy
    metrics["construct_edges_per_s"] = _ratio(constructed, construct_busy)
    metrics["construct_edge_yield"] = _ratio(
        extras.get("construct_generated_edges", 0), extras.get("construct_input_edges", 0)
    )

    metrics["core_extract_s"] = inclusive(named("bench.core.dk_distribution"))
    metrics["core_dk_distance_s"] = inclusive(named("bench.core.graph_dk_distance"))

    reads = named(*(f"bench.store.{m}" for m in STORE_READS))
    writes = named(*(f"bench.store.{m}" for m in STORE_WRITES))
    hits = _counter_sum(counters, "repro_store_reads_total", outcome=lambda v: v == "hit")
    metrics["store_read_s"] = inclusive(reads)
    metrics["store_reads"] = calls(reads)
    metrics["store_hit_ratio"] = _ratio(hits, _counter_sum(counters, "repro_store_reads_total"))
    metrics["store_write_s"] = inclusive(writes)
    metrics["store_writes"] = calls(writes)
    metrics["store_write_bytes"] = _counter_sum(counters, "repro_store_write_bytes_total")
    metrics["biggraph_put_s"] = inclusive(named("bench.store.put_biggraph"))
    metrics["biggraph_open_s"] = inclusive(named("bench.store.get_biggraph"))

    streaming_s = inclusive(named("bench.streaming.streaming_pseudograph_2k"))
    metrics["streaming_generate_s"] = streaming_s
    metrics["streaming_edges_per_s"] = _ratio(extras.get("streamed_edges", 0), streaming_s)
    metrics["rescale_s"] = inclusive(named("bench.rescale.rescale_jdd"))
    metrics["scenario_s"] = inclusive(named("bench.workloads.apply_scenario"))
    metrics["experiment_cell_self_s"] = own(named("experiment.cell"))
    metrics["unspanned_s"] = max(traced_busy - covered_seconds(events), 0.0)
    metrics["trace_overhead"] = trace_overhead
    return {name: float(metrics[name]) for name in LAYER_METRICS}


def render_table(events: list[dict[str, Any]], traced_busy: float) -> list[str]:
    """Self time per span, grouped by layer, plus the time no span covers."""
    rows = span_rows(events)
    uncovered = max(traced_busy - covered_seconds(events), 0.0)
    lines = [
        f"{'layer':<12} {'span':<48} {'calls':>7} {'self_s':>10} {'share':>7} {'incl_s':>10}"
    ]

    def layer_of(key: str) -> str:
        parts = key.split(".")
        return parts[1] if parts[0] == "bench" else parts[0]

    ordered = sorted(rows.items(), key=lambda item: (layer_of(item[0]), -item[1][1]))
    for key, (count, own, inclusive) in ordered:
        share = _ratio(own, traced_busy) * 100
        lines.append(
            f"{layer_of(key):<12} {key:<48} {count:>7d} {own:>10.4f} {share:>6.1f}% "
            f"{inclusive:>10.4f}"
        )
    lines.append(
        f"{'-':<12} {'(not in any span)':<48} {'':>7} {uncovered:>10.4f} "
        f"{_ratio(uncovered, traced_busy) * 100:>6.1f}% {'':>10}"
    )
    return lines
