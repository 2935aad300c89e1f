"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the synthetic
evaluation topologies.  Sizes are scaled down so the whole harness runs on a
laptop in minutes; set ``REPRO_BENCH_SCALE=full`` to use the paper-scale
topologies instead.

Each benchmark prints its paper-style table to stdout (run pytest with ``-s``
or read the captured output blocks).
"""

from __future__ import annotations

import pytest

from benchmarks._common import AS_SEED, FULL_SCALE, HOT_SEED, write_results

try:
    import numpy  # noqa: F401  (the whole harness runs NumPy-backed generators)
except ImportError:
    # keep `pytest` collectable from the repo root on a no-numpy interpreter
    collect_ignore_glob = ["bench_*.py"]


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable BENCH_results.json document."""
    path = write_results()
    if path is not None:
        print(f"\nbenchmark results written to {path}")


@pytest.fixture(scope="session")
def hot_graph():
    """HOT-like router topology (939 nodes at full scale, 400 for benchmarks)."""
    from repro.topologies.hot import synthetic_hot_topology

    size = 939 if FULL_SCALE else 400
    return synthetic_hot_topology(size, rng=HOT_SEED)


@pytest.fixture(scope="session")
def skitter_graph():
    """Skitter-like AS topology (9204 nodes at full scale, 800 for benchmarks)."""
    from repro.topologies.as_level import synthetic_as_topology

    size = 9204 if FULL_SCALE else 800
    return synthetic_as_topology(size, rng=AS_SEED)
