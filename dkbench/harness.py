"""dK-pipeline benchmark: workloads, correctness checks and the run loop.

Every workload drives the library's public API in this one process
(``workers=1``) on inputs generated from the workload seed.  A run:

1. sets the workload up ``Scale.setup_repeats`` times (topologies from the
   seed, a kernel warm-up on tiny inputs, and for ``store_replay`` the
   populated store) and keeps the last set-up;
2. runs whole *passes* until ``seconds`` have elapsed (at least one).  Each
   pass builds or loads fresh graph objects and, except in ``store_replay``,
   writes into a fresh artifact store, so no item is served from an earlier
   item's per-graph cache;
3. checks each pass's outputs right after it, outside its timer.

Other tenants of a shared host slow every instruction by up to 60% for
seconds to minutes at a time, so the timed metrics are given at a reference
host speed: a fixed interpreter-and-numpy loop (:func:`probe_seconds`) is
timed around every pass and set-up, and each measured time is scaled by
:data:`NOMINAL_PROBE_S` over the loop's time then.  The raw figures are
printed alongside.  End-to-end metrics:

* ``items_per_s``: items of a pass over the pass's time, which is the sum
  over its steps (cells, replays, stages) of the step's median scaled time
  across the passes of the run.
* ``setup_s``: median fresh-interpreter import time plus median set-up time,
  scaled.
* ``peak_rss_mb``: the process's peak resident set during the passes (the
  kernel's mark is reset after set-up).
* ``store_mb``: median on-disk size of a pass's artifact store.

Items that raise or fail a check count as ``failed``; ``failed / attempted``
is the error rate, printed with the metrics.  With ``trace`` the run then
repeats the same passes with tracing on and the ``bench.*`` timers
installed, and reports the per-layer split of that phase (see
:mod:`layers`); a traced pass whose outputs differ from its untraced twin
counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.core.extraction import dk_distribution
from repro.experiment import ExperimentSpec, run_experiment
from repro.generators import streaming
from repro.generators.registry import get_generator
from repro.measure.plan import TABLE2_CORE_METRICS, MeasurementPlan
from repro.rescaling import rescale
from repro.store import ArtifactStore
from repro.store.memo import memoized_build, memoized_measure
from repro.store.serialize import graph_content_hash
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.registry import build_topology
from repro.workloads import WORKLOAD_METRICS

import layers

#: about the seconds :func:`probe_seconds` takes on an uncontended 2-vCPU Xeon KVM guest;
#: timed metrics are scaled to a host where it takes this long
NOMINAL_PROBE_S = 0.010

#: end-to-end metrics: name -> unit
END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "store_mb": "MiB",
}

#: the construction families of the dk_series grid
DK_METHODS = ("rewiring", "pseudograph", "matching", "stochastic")
ROUTING_METRICS = WORKLOAD_METRICS + ("edge_load", "mean_distance", "betweenness_by_degree")
ROUTING_SCENARIOS = (None, "hub_degree:0.01", "random_node:0.05")
#: Σ edge_load equals the mean distance up to the rounding of the scaled
#: histogram of a sampled sweep (4e-8 seen)
EDGE_LOAD_TOLERANCE = 1e-6
REPLAY_LEVELS = (0, 1, 2)
#: dk_series rewiring chain length, in accepted swaps per edge (the library
#: default is 10): short enough for several passes per run, long enough that
#: the 3K chain is most of a pass
REWIRING_MULTIPLIER = 4.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-tests.

    Topologies are registered names, built from the workload seed.
    """

    dk_topologies: tuple[str, ...]
    replay_topology: str
    big_source: str
    routing_nodes: int
    big_nodes: int
    dk_sources: int
    routing_sources: int
    big_sources: int
    #: set-ups and fresh-interpreter imports per run; ``setup_s`` adds their medians
    setup_repeats: int = 3
    import_repeats: int = 3


SCALES = {
    "full": Scale(
        dk_topologies=("skitter_like", "hot"),
        replay_topology="skitter_like_full",
        big_source="hot",
        routing_nodes=5000,
        big_nodes=1_000_000,
        dk_sources=300,
        routing_sources=100,
        big_sources=64,
    ),
    # HOT stands in for the AS graphs, whose 3K chains mix slowly when small,
    # and routing sweeps are exact, so edge load sums without sampling error
    "tiny": Scale(
        dk_topologies=("hot_small", "hot_small"),
        replay_topology="hot_small",
        big_source="hot_small",
        routing_nodes=300,
        big_nodes=20_000,
        dk_sources=40,
        routing_sources=10_000,
        big_sources=16,
        setup_repeats=1,
        import_repeats=0,
    ),
}


def sub_seed(seed: int, *path: int) -> int:
    """Deterministic 32-bit seed of one input stream of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def probe_seconds() -> float:
    """Host speed: the fastest of three runs of a fixed interpreter-and-numpy loop."""
    data = np.random.default_rng(0).random(200_000)
    best = math.inf
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        table = {i: total for i in range(20_000)}
        np.sort(data)
        np.bincount((data * 1000).astype(np.int64), minlength=len(table))
        best = min(best, time.perf_counter() - began)
    return best


def digest(value: Any) -> str:
    """Short content digest of a JSON-able value (floats by their repr)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Checked:
    """What one pass produced, after its correctness check."""

    items: int
    failures: list[str]
    outputs: Any  # deterministic, JSON-able summary (timings excluded)
    extras: dict[str, float] = field(default_factory=dict)
    store: Path | None = None  # store whose size is reported, if not the pass's


class Laps:
    """Stopwatch: :meth:`lap` appends the seconds since the previous lap."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.seconds.append(now - self._last)
        self._last = now


@dataclass
class Workload:
    """One named input set and how to set it up, run a pass of it and check it."""

    name: str
    why: str
    #: ``setup(seed, scale, workdir)`` -> state, with ``state["items"]`` per pass
    setup: Callable[[int, Scale, Path], dict]
    #: ``prepare(state, index)`` -> job; ``job(store_dir)`` is the timed part
    #: and returns ``(outputs, seconds of each step of the pass)``
    prepare: Callable[[Any, int], Callable[[Path], Any]]
    check: Callable[[Any, Any], Checked]


# --------------------------------------------------------------------------- #
# dk_series: the paper pipeline
# --------------------------------------------------------------------------- #


def _dk_spec(topologies, seed: int, sources: int) -> ExperimentSpec:
    return ExperimentSpec(
        topologies=topologies,
        methods=DK_METHODS,
        d_levels=(0, 1, 2, 3),
        seed=seed,
        name="dk_series",
        include_original=True,
        distance_sources=sources,
        dk_distances=True,
        backend="csr",
        generator_options={"rewiring": {"multiplier": REWIRING_MULTIPLIER}},
    )


def _experiment_job(spec_of: Callable[[tuple], ExperimentSpec], topologies):
    fresh = tuple(graph.copy() for graph in topologies)

    def job(store_dir: Path):
        laps = Laps()
        # the store is fresh, so resuming only shares a generated graph
        # among the scenario cells of its coordinate, as it does for users
        result = run_experiment(
            spec_of(fresh),
            workers=1,
            store=store_dir,
            # called once after the resume scan, then after each cell
            on_cell=lambda done, total: laps.lap(),
        )
        return result, laps.seconds[1:]

    return job


def _warm_up(spec: ExperimentSpec, workdir: Path) -> None:
    run_experiment(spec, workers=1, store=workdir / "warm-up")
    shutil.rmtree(workdir / "warm-up", ignore_errors=True)


def dk_setup(seed: int, scale: Scale, workdir: Path) -> dict:
    topologies = tuple(
        build_topology(name, seed=sub_seed(seed, 1, index))
        for index, name in enumerate(scale.dk_topologies)
    )
    warm = _dk_spec((build_topology("hot_small", seed=seed),), seed, 20)
    _warm_up(warm, workdir)
    return {
        "topologies": topologies,
        "spec_seed": sub_seed(seed, 3),
        "sources": scale.dk_sources,
        "items": len(warm.cells()) * len(topologies),
        "inputs": [graph_content_hash(graph) for graph in topologies],
    }


def dk_prepare(state: dict, index: int):
    return _experiment_job(
        lambda graphs: _dk_spec(graphs, state["spec_seed"], state["sources"]),
        state["topologies"],
    )


def dk_check(state: dict, result) -> Checked:
    failures = []
    for record in result.records:
        label = f"{record.topology} {record.method} d={record.d}"
        if record.metrics is None:
            failures.append(f"{label}: no Table-2 metrics")
        elif record.method == "rewiring" and record.dk_distance != 0:
            failures.append(f"{label}: D_d = {record.dk_distance}, expected 0")
    originals = {r.topology: r.edges for r in result.records if r.method == "original"}
    constructed = [r for r in result.records if r.method not in ("original", "rewiring")]
    return Checked(
        items=len(result.records),
        failures=failures,
        outputs=result.to_rows(include_timing=False),
        extras={
            "construct_generated_edges": sum(r.edges for r in constructed),
            "construct_input_edges": sum(originals[r.topology] for r in constructed),
        },
    )


# --------------------------------------------------------------------------- #
# routing_load: Brandes sweep with edge load under failure scenarios
# --------------------------------------------------------------------------- #


def _routing_spec(graph, seed: int, sources: int) -> ExperimentSpec:
    return ExperimentSpec(
        topologies=(graph,),
        methods=("rewiring",),
        d_levels=(1, 2),
        seed=seed,
        name="routing_load",
        include_original=True,
        metrics=ROUTING_METRICS,
        distance_sources=sources,
        scenarios=ROUTING_SCENARIOS,
        backend="csr",
    )


def routing_setup(seed: int, scale: Scale, workdir: Path) -> dict:
    graph = synthetic_as_topology(scale.routing_nodes, rng=sub_seed(seed, 10))
    warm = _routing_spec(synthetic_as_topology(200, rng=seed), seed, 20)
    _warm_up(warm, workdir)
    return {
        "graph": graph,
        "spec_seed": sub_seed(seed, 11),
        "sources": scale.routing_sources,
        "items": len(warm.cells()),
        "inputs": [graph_content_hash(graph)],
    }


def routing_prepare(state: dict, index: int):
    return _experiment_job(
        lambda graphs: _routing_spec(graphs[0], state["spec_seed"], state["sources"]),
        (state["graph"],),
    )


def routing_check(state: dict, result) -> Checked:
    failures = []
    for record in result.records:
        label = f"{record.method} d={record.d} {record.scenario}"
        load = math.fsum(record.measured["edge_load"])
        mean = record.measured["mean_distance"]
        if not abs(load - mean) <= EDGE_LOAD_TOLERANCE * abs(mean):
            failures.append(f"{label}: sum(edge_load) {load!r} != mean_distance {mean!r}")
    return Checked(
        items=len(result.records),
        failures=failures,
        outputs=result.to_rows(include_timing=False),
    )


# --------------------------------------------------------------------------- #
# store_replay: memoized reads of stored graphs and metric blocks
# --------------------------------------------------------------------------- #

TABLE2_BATTERY = MeasurementPlan.table2(compute_spectrum=False).metrics


def _replay(state: dict, d: int) -> dict:
    generated = memoized_build(
        get_generator("rewiring"),
        state["skitter"],
        d,
        seed=state["seeds"][d],
        store=state["store"],
        source_hash=state["source_hash"],
    )
    measured = memoized_measure(
        generated.graph,
        state["store"],
        metrics=TABLE2_BATTERY,
        graph_hash=generated.content_hash,
        distance_sources=state["sources"],
        rng=np.random.default_rng(state["seeds"][d]),
    )
    return {"d": d, "content_hash": generated.content_hash, "values": measured.as_dict()}


def replay_setup(seed: int, scale: Scale, workdir: Path) -> dict:
    skitter = build_topology(scale.replay_topology, seed=sub_seed(seed, 20))
    store_dir = workdir / "store"
    state = {
        "skitter": skitter,
        "store": ArtifactStore(store_dir),
        "store_dir": store_dir,
        "source_hash": graph_content_hash(skitter),
        "seeds": {d: sub_seed(seed, 21, d) for d in REPLAY_LEVELS},
        "sources": scale.dk_sources,
        "items": len(REPLAY_LEVELS),
    }
    state["expected"] = [_replay(state, d) for d in REPLAY_LEVELS]  # fills the store
    _replay(state, REPLAY_LEVELS[0])  # warm the read path
    state["inputs"] = [state["source_hash"]]
    return state


def replay_prepare(state: dict, index: int):
    state["misses_before"] = _memo_misses()

    def job(store_dir: Path):
        laps = Laps()
        replayed = []
        for d in REPLAY_LEVELS:
            replayed.append(_replay(state, d))
            laps.lap()
        return replayed, laps.seconds

    return job


def _memo_misses() -> float:
    totals = layers.counter_totals(telemetry.metrics_snapshot())
    return sum(v for (name, _), v in totals.items() if name == "repro_memo_metric_misses_total")


def replay_check(state: dict, replayed: list[dict]) -> Checked:
    failures = []
    if _memo_misses() != state["misses_before"]:
        failures.append("a metric was recomputed instead of replayed")
    for got, want in zip(replayed, state["expected"]):
        if got["content_hash"] != want["content_hash"]:
            failures.append(f"d={got['d']}: graph content hash changed")
        if repr(got["values"]) != repr(want["values"]):
            failures.append(f"d={got['d']}: replayed metrics differ from the stored ones")
    return Checked(
        items=len(replayed), failures=failures, outputs=replayed, store=state["store_dir"]
    )


# --------------------------------------------------------------------------- #
# million_node: streaming 2K generation into mmap CSR, sampled Table-2
# --------------------------------------------------------------------------- #


def big_setup(seed: int, scale: Scale, workdir: Path) -> dict:
    hot = build_topology(scale.big_source, seed=sub_seed(seed, 30))
    state = {
        "jdd": dk_distribution(hot, 2),
        "seed": sub_seed(seed, 31),
        "nodes": scale.big_nodes,
        "sources": scale.big_sources,
        "items": 1,
        "inputs": [graph_content_hash(hot)],
    }
    warm = dict(state, nodes=min(scale.big_nodes, 20_000))
    big_prepare(warm, -1)(workdir / "warm-up")
    shutil.rmtree(workdir / "warm-up", ignore_errors=True)
    return state


def big_prepare(state: dict, index: int):
    seed = sub_seed(state["seed"], index + 1)

    def job(store_dir: Path) -> tuple[dict, list[float]]:
        laps = Laps()
        rng = np.random.default_rng(seed)
        jdd = rescale.rescale_jdd(state["jdd"], state["nodes"], rng=rng)
        built = streaming.streaming_pseudograph_2k(jdd, rng=rng, spill_dir=store_dir)
        laps.lap()
        store = ArtifactStore(store_dir)
        store.put_biggraph(built.content_hash, built)
        graph = store.get_biggraph(built.content_hash)
        laps.lap()
        measured = memoized_measure(
            graph,
            store,
            metrics=TABLE2_CORE_METRICS,
            distance_sources=state["sources"],
            rng=np.random.default_rng((seed, 1)),
        )
        laps.lap()
        return {
            "n": built.n,
            "m": built.m,
            "content_hash": built.content_hash,
            "indptr": graph.indptr,
            "indices": graph.indices,
            "measured": measured.as_dict(),
        }, laps.seconds

    return job


def big_check(state: dict, out: dict) -> Checked:
    failures = []
    indptr, indices, n, m = out["indptr"], out["indices"], out["n"], out["m"]
    measured = out["measured"]
    if len(indptr) != n + 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        failures.append("indptr is not a monotone offset array of length n+1")
    if int(indptr[-1]) != 2 * m:
        failures.append(f"indptr[-1] = {int(indptr[-1])}, expected 2m = {2 * m}")
    if len(indices) and int(indices.max()) >= n:
        failures.append(f"an index {int(indices.max())} is not below n = {n}")
    expected_degree = 2 * measured["edges"] / measured["nodes"]
    if not math.isclose(measured["average_degree"], expected_degree, rel_tol=1e-12):
        failures.append(
            f"average_degree {measured['average_degree']!r} != 2m/n {expected_degree!r}"
        )
    return Checked(
        items=1,
        failures=failures,
        outputs={"content_hash": out["content_hash"], "measured": measured},
        extras={"streamed_edges": m},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dk_series",
            "the paper pipeline: dK extraction, d=0..3 generation and Table-2 on a "
            "skitter-like AS graph (n=2000) and HOT-939; 3K rewiring dominates",
            dk_setup,
            dk_prepare,
            dk_check,
        ),
        Workload(
            "routing_load",
            "edge load and betweenness under hub/random failures on AS n=5000; "
            "the Brandes sweep dominates and rewiring is minor",
            routing_setup,
            routing_prepare,
            routing_check,
        ),
        Workload(
            "store_replay",
            "memoized graph and Table-2 reads from a populated store: decoding "
            "and store reads only, no generation and no kernels",
            replay_setup,
            replay_prepare,
            replay_check,
        ),
        Workload(
            "million_node",
            "rescale HOT to n=10^6, stream 2K into mmap CSR, store round trip and "
            "sampled Table-2; the only user of the streaming and biggraph paths",
            big_setup,
            big_prepare,
            big_check,
        ),
    )
}


# --------------------------------------------------------------------------- #
# run loop
# --------------------------------------------------------------------------- #


def _vm_hwm_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark, so set-up peaks are not reported."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Phase:
    """The passes of one timed (or traced) phase."""

    busy: float = 0.0
    items: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    store_bytes: list[int] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    peak_rss: int = 0
    #: per completed pass: each step's seconds, then the pass time outside
    #: the steps, all divided by the host probe around the pass
    scaled_steps: list[list[float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def pass_seconds(self) -> float:
        """A pass's time at the reference host speed (see the module doc)."""
        if not self.scaled_steps:  # every pass raised
            return self.busy
        return NOMINAL_PROBE_S * sum(
            statistics.median(column) for column in zip(*self.scaled_steps)
        )


def run_phase(
    workload: Workload,
    state: Any,
    workdir: Path,
    *,
    seconds: float,
    passes: int | None = None,
) -> Phase:
    """Run whole passes until ``seconds`` elapsed (or exactly ``passes``)."""
    phase = Phase()
    _reset_peak_rss()
    start = time.perf_counter()
    index = 0
    while True:
        job = workload.prepare(state, index)
        store_dir = workdir / f"pass-{index}"
        probe_before = probe_seconds()
        began = time.perf_counter()
        try:
            raw, step_seconds = job(store_dir)
        except Exception:  # the boundary that must keep measuring: count, report
            raw = None
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - began
        probe = (probe_before + probe_seconds()) / 2
        phase.busy += wall
        phase.probes.append(probe)
        if raw is not None:
            steps = [*step_seconds, wall - sum(step_seconds)]
            phase.scaled_steps.append([seconds / probe for seconds in steps])
        if raw is None:
            checked = Checked(state["items"], [error], None)
            failed = checked.items
        else:
            checked = workload.check(state, raw)
            failed = min(len(checked.failures), checked.items)
        del raw
        phase.items += checked.items
        phase.failed += failed
        phase.failures.extend(checked.failures)
        phase.digests.append(digest(checked.outputs))
        store = checked.store or store_dir
        phase.store_bytes.append(_tree_bytes(store) if store.exists() else 0)
        shutil.rmtree(store_dir, ignore_errors=True)
        for key, value in checked.extras.items():
            phase.extras[key] = phase.extras.get(key, 0) + value
        index += 1
        if passes is not None:
            if index >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    phase.peak_rss = _vm_hwm_bytes()
    return phase


def environment(workload: str, seed: int, scale: str, root: Path) -> dict:
    """Where and on what the run happened."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "commit": _commit(root),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def _commit(root: Path) -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds(repeats: int) -> list[float]:
    """Seconds a fresh interpreter takes to import the benchmark and library."""
    here = Path(__file__).resolve().parent
    code = "import time; t = time.perf_counter(); import harness; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    samples = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return samples


def run(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: str = "full",
) -> dict:
    """One benchmark run; returns the report (see :func:`result_line`)."""
    workload = WORKLOADS[name]
    sizes = SCALES[scale]
    setup_probe = probe_seconds()
    imports = import_seconds(sizes.import_repeats) if sizes.import_repeats else [0.0]
    setup_times = []
    state = None
    for repeat in range(sizes.setup_repeats):
        state = None  # drop the previous set-up before timing the next
        repeat_dir = workdir / f"setup-{repeat}"
        repeat_dir.mkdir(parents=True)
        began = time.perf_counter()
        state = workload.setup(seed, sizes, repeat_dir)
        setup_times.append(time.perf_counter() - began)
    setup_probe = (setup_probe + probe_seconds()) / 2
    setup_raw = statistics.median(imports) + statistics.median(setup_times)
    passes_dir = workdir / "passes"
    timed = run_phase(workload, state, passes_dir, seconds=seconds)
    phases = [timed]
    report: dict[str, Any] = {
        "setup_parts": {"imports": imports, "set-ups": setup_times},
        "raw": {
            "mean_items_per_s": timed.items / timed.busy,
            "setup_s": setup_raw,
            "probe_ms": 1000 * statistics.median([setup_probe, *timed.probes]),
        },
        "inputs_digest": digest(state["inputs"]),
        "outputs_digest": digest(timed.digests),
        "passes": len(timed.digests),
        "metrics": {
            "items_per_s": timed.items / len(timed.digests) / timed.pass_seconds(),
            "setup_s": setup_raw * NOMINAL_PROBE_S / setup_probe,
            "peak_rss_mb": timed.peak_rss / 2**20,
            "store_mb": statistics.median(timed.store_bytes) / 2**20,
        },
    }
    if trace:
        before = layers.counter_totals(telemetry.metrics_snapshot())
        telemetry.enable_tracing()
        try:
            with layers.Instrumentation():
                traced = run_phase(
                    workload, state, passes_dir, seconds=0, passes=len(timed.digests)
                )
            events = telemetry.take_events()
        finally:
            telemetry.disable_tracing()
        counters = layers.counter_delta(
            before, layers.counter_totals(telemetry.metrics_snapshot())
        )
        phases.append(traced)
        for index, (untraced, traced_digest) in enumerate(zip(timed.digests, traced.digests)):
            if untraced != traced_digest:
                traced.failed += 1
                traced.failures.append(f"traced pass {index} differs from its untraced twin")
        report["layers"] = layers.layer_metrics(
            events,
            counters,
            traced_busy=traced.busy,
            trace_overhead=traced.pass_seconds() / timed.pass_seconds() - 1.0,
            extras=traced.extras,
        )
        report["table"] = layers.render_table(events, traced.busy)
    report["attempted"] = sum(p.items for p in phases)
    report["failed"] = sum(p.failed for p in phases)
    report["failures"] = [f for p in phases for f in p.failures]
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The benchmark's last output line."""
    if trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": unit}
            for name, (unit, _) in layers.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(args, *, root: Path) -> int:
    workdir = root / ".dkbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # keep any temporary file the library makes inside the checkout
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        print("env " + json.dumps(environment(args.workload, args.seed, args.scale, root)))
        report = run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            scale=args.scale,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(
        f"passes {report['passes']}  items {report['attempted']}  failed {report['failed']}  "
        f"error_rate {report['failed'] / report['attempted']:.6g}  "
        f"inputs {report['inputs_digest']}  outputs {report['outputs_digest']}"
    )
    print("setup " + json.dumps(report["setup_parts"]))
    print("raw " + json.dumps(report["raw"]))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, unit in END_TO_END.items():
        print(f"{name:<16} {report['metrics'][name]:>14.6g} {unit}")
    if args.trace:
        print()
        print("\n".join(report["table"]))
        print()
        for name, (unit, _) in layers.LAYER_METRICS.items():
            print(f"{name:<28} {report['layers'][name]:>14.6g} {unit}")
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0
