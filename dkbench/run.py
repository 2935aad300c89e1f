"""Run one workload of the dK-pipeline benchmark and print its metrics.

From the root of a checkout::

    python3 dkbench/run.py --workload dk_series --seed 1 --seconds 10 --trace 0

prints the run's environment, every end-to-end metric by name and unit, and
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` also prints the per-layer table of a separate
traced phase and reports the per-layer metrics instead.  Workloads:
``dk_series``, ``routing_load``, ``store_replay`` and ``million_node`` (see
``harness.py``); ``--scale tiny`` shrinks every input for a quick check.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dk_series", "routing_load", "store_replay", "million_node")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"dkbench: no library sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    import harness

    return harness.main(args, root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
