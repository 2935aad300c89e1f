"""Self-tests of the dK-pipeline benchmark, on tiny inputs.

Run from the repository root with ``PYTHONPATH=src python -m pytest dkbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.measure.plan import Measurement  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::Warning")

TINY = harness.SCALES["tiny"]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_traced_run_is_correct_and_reports_every_metric(name, tmp_path):
    report = harness.run(name, seed=3, seconds=0, trace=True, workdir=tmp_path, scale="tiny")
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 2  # the untraced and the traced pass

    line = harness.result_line(report, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(harness.END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values()), line

    traced = harness.result_line(report, trace=True)
    assert set(traced["metrics"]) == set(layers.LAYER_METRICS)
    assert any("(not in any span)" in row for row in report["table"])


def test_benchmark_json_and_cli_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert run.WORKLOADS == tuple(harness.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in harness.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        layers.LAYER_METRICS
    )


def _cli(workload: str, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "dkbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _digests(completed: subprocess.CompletedProcess) -> dict[str, str]:
    assert completed.returncode == 0, completed.stderr
    summary = next(line for line in completed.stdout.splitlines() if line.startswith("passes "))
    words = summary.split()
    return {"inputs": words[words.index("inputs") + 1],
            "outputs": words[words.index("outputs") + 1]}


@pytest.mark.parametrize("name", ["dk_series", "million_node"])
def test_same_seed_same_outputs_other_seed_other_inputs(name):
    first, again, other = (_digests(_cli(name, seed)) for seed in (5, 5, 6))
    assert first == again
    assert first["inputs"] != other["inputs"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "dkbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _cli("store_replay", 1, cwd=tmp_path)
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


# --------------------------------------------------------------------------- #
# every check flags a deliberately corrupted output
# --------------------------------------------------------------------------- #


def _one_pass(name: str, workdir: Path):
    workload = harness.WORKLOADS[name]
    state = workload.setup(7, TINY, workdir)
    raw, _ = workload.prepare(state, 0)(workdir / "pass")
    assert workload.check(state, raw).failures == []
    return workload, state, raw


def test_dk_series_check_flags_a_rewired_graph_off_its_distribution(tmp_path):
    workload, state, result = _one_pass("dk_series", tmp_path)
    record = next(r for r in result.records if r.method == "rewiring" and r.d == 3)
    record.dk_distance = 2.0
    assert len(workload.check(state, result).failures) == 1


def test_routing_check_flags_edge_load_that_does_not_sum_to_mean_distance(tmp_path):
    workload, state, result = _one_pass("routing_load", tmp_path)
    record = result.records[-1]
    values = record.measured.as_dict()
    values["edge_load"] = [load * (1 + 1e-5) for load in values["edge_load"]]
    record.measured = Measurement(values)
    assert len(workload.check(state, result).failures) == 1


def test_store_replay_check_flags_a_one_ulp_change(tmp_path):
    workload, state, replayed = _one_pass("store_replay", tmp_path)
    values = replayed[1]["values"]
    values["mean_distance"] = float(np.nextafter(values["mean_distance"], np.inf))
    assert len(workload.check(state, replayed).failures) == 1


@pytest.mark.parametrize("corruption", ["unsorted_indptr", "arc_count", "index_range", "degree"])
def test_million_node_check_flags_corrupt_csr(corruption, tmp_path):
    workload, state, out = _one_pass("million_node", tmp_path)
    out = dict(out, indptr=np.array(out["indptr"]), indices=np.array(out["indices"]))
    out["measured"] = dict(out["measured"])
    if corruption == "unsorted_indptr":
        row = int(np.flatnonzero(np.diff(out["indptr"]) > 0)[0]) + 1
        out["indptr"][row] = out["indptr"][row + 1] + 1
    elif corruption == "arc_count":
        out["m"] += 1
    elif corruption == "index_range":
        out["indices"][0] = out["n"]
    else:
        out["measured"]["average_degree"] *= 1.001
    assert len(workload.check(state, out).failures) == 1
