"""Repository-root pytest configuration.

``python -m pytest`` from the repository root also collects the benchmark
harness under ``dkbench/``, which needs NumPy.  On a bare interpreter it is
ignored at collection time, like the NumPy-only modules listed in
``tests/conftest.py``, so the pure-Python suite still runs.
"""

try:
    import numpy  # noqa: F401
except ImportError:
    collect_ignore = ["dkbench"]
