"""Shared constants and helpers for the benchmark harness.

Besides the pytest-benchmark timing, every :func:`run_once` call records a
machine-readable result row — benchmark name, wall time and the size of the
measured topology — which ``benchmarks/conftest.py`` writes to
``BENCH_results.json`` (override the path with ``REPRO_BENCH_JSON``) at the
end of the session, so CI and scripts can diff benchmark numbers without
scraping stdout.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "full") == "full"

#: Where the machine-readable results document is written.
BENCH_RESULTS_PATH = os.environ.get("REPRO_BENCH_JSON", "BENCH_results.json")

# deterministic seeds so recorded numbers are reproducible
HOT_SEED = 20060911
AS_SEED = 20060912
GENERATION_SEED = 1

#: Result rows accumulated over the session; see :func:`write_results`.
_RESULTS: list[dict[str, Any]] = []


def _extract_shape(result: Any) -> tuple[int | None, int | None]:
    """Best-effort ``(n, m)`` of whatever a benchmark function returned."""
    if hasattr(result, "number_of_nodes") and hasattr(result, "number_of_edges"):
        return result.number_of_nodes, result.number_of_edges
    records = getattr(result, "records", None)
    if records:
        return records[0].nodes, records[0].edges
    if isinstance(result, dict):
        for value in result.values():
            n, m = _extract_shape(value)
            if n is not None:
                return n, m
    return None, None


def record_result(
    name: str,
    wall_time: float,
    result: Any = None,
    *,
    n: int | None = None,
    m: int | None = None,
    **extra: Any,
) -> None:
    """Append one benchmark row; sizes are inferred from ``result`` if omitted.

    ``extra`` fields are merged into the row verbatim — the service load-test
    harness records latency percentiles, concurrency levels and cache hit
    ratios this way.
    """
    if n is None and m is None:
        n, m = _extract_shape(result)
    _RESULTS.append(
        {"bench": name, "wall_time": float(wall_time), "n": n, "m": m, **extra}
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The wall time and the measured topology's size are also appended to the
    session's ``BENCH_results.json`` rows.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    name = getattr(benchmark, "name", None) or getattr(func, "__name__", "bench")
    record_result(name, time.perf_counter() - start, result)
    return result


def write_results(path: str | os.PathLike | None = None) -> Path | None:
    """Write accumulated rows as JSON; returns the path (None when empty)."""
    if not _RESULTS:
        return None
    target = Path(path or BENCH_RESULTS_PATH)
    target.write_text(
        json.dumps(
            {"schema": 1, "full_scale": FULL_SCALE, "results": _RESULTS},
            indent=2,
        )
        + "\n"
    )
    return target
