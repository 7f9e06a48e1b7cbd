"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py     # about a minute

Each workload runs one pass per mode and must report every metric that
BENCHMARK.json names, with its unit, and pass its output check.  Corrupting
one reference value must make an op fail, so the checks have teeth.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def test_spec_matches_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result, record = run.run_benchmark(workload, seed=11, seconds=0, trace=trace, min_passes=1)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        reported = result["metrics"][spec["name"]]
        assert reported["unit"] == spec["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        assert all(reported["value"] > 0 for reported in result["metrics"].values())
    # The tracer put every original function back.
    q = sys.modules["qttf"]
    assert not hasattr(q.transfer.qttf_series, "__wrapped__")
    assert not hasattr(q.cli.measurement_matrices, "__wrapped__")


def _first_label(workload, seed, prefix):
    q = run.import_qttf()
    ops = wl.prepare(q, workload, seed, os.path.join(run.WORK_DIR, "test-labels"), run.load_references())
    shutil.rmtree(os.path.join(run.WORK_DIR, "test-labels"), ignore_errors=True)
    return next(op.name.split(" ")[1] for op in ops if op.name.split(" ")[1].startswith(prefix))


def test_corrupted_series_reference_fails():
    refs = run.load_references()
    label = _first_label("series", 5, "random")
    bad = copy.deepcopy(refs)
    bad["poms"][label]["series4"] *= 1 + 1e-7
    result, record = run.run_benchmark("series", seed=5, seconds=0, trace=0, refs=bad, min_passes=1)
    assert result["failed"] == 1 and not result["correct"]
    assert label in record["failures"][0]


def test_corrupted_sampled_reference_fails():
    refs = run.load_references()
    label = _first_label("mse_sweep", 5, "random")
    bad = copy.deepcopy(refs)
    mean, sd, n = bad["poms"][label]["mc"]
    bad["poms"][label]["mc"] = [mean * 1.2, sd, n]
    result, record = run.run_benchmark("mse_sweep", seed=5, seconds=0, trace=0, refs=bad, min_passes=1)
    assert result["failed"] > 0 and not result["correct"]
    assert all(label in failure for failure in record["failures"])


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
