"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SHAPES  # noqa: E402

TINY = {
    "lowdim-library": replace(
        SHAPES["lowdim-library"], n=600, dim=4, radius=0.25, counted=12,
        traced=6, setups=2,
    ),
    "highdim-serve": replace(
        SHAPES["highdim-serve"], n=400, dim=8, radius=0.6, counted=12,
        traced=6, setups=2,
    ),
    "churn-serve": replace(
        SHAPES["churn-serve"], n=400, dim=4, radius=0.3, counted=12,
        traced=12, setups=2, prechurn=40, rebuild_every=4,
    ),
}


def _run(name, tmp_path, *, seed=3, trace=False):
    return run.run_workload(
        name, seed=seed, seconds=0.2, trace=trace, shape=TINY[name],
        scratch=tmp_path,
    )


@pytest.fixture(scope="module", params=sorted(TINY))
def runs(request, tmp_path_factory):
    """Two plain runs and one traced run of a workload, same seed."""
    tmp = tmp_path_factory.mktemp("perfbench")
    name = request.param
    return (
        name,
        _run(name, tmp),
        _run(name, tmp),
        _run(name, tmp, trace=True),
    )


def test_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_every_metric_is_emitted_with_its_unit(runs):
    _, plain, _, traced = runs
    for result, trace, units in (
        (plain, False, run.END_TO_END_UNITS),
        (traced, True, run.PER_LAYER_UNITS),
    ):
        line = json.loads(json.dumps(run.report(result, trace=trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_every_operation_matches_the_oracle(runs):
    _, plain, _, traced = runs
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["metrics"]["ok_frac"] == 1.0
    assert traced["failed"] == 0


def test_distance_counts_repeat_exactly(runs):
    _, first, second, traced = runs
    for kind in ("knn", "range"):
        counts = first["plain"].dists[kind]
        assert counts == second["plain"].dists[kind]
        replayed = traced["traced"].dists[kind]
        assert replayed == counts[: len(replayed)]
        assert traced["plain"].dists[kind] == counts
    assert first["metrics"]["knn_dists"] == second["metrics"]["knn_dists"]


def test_churn_traced_run_sees_writes_and_rebuilds(runs):
    name, _, _, traced = runs
    if name != "churn-serve":
        pytest.skip("only churn-serve writes and rebuilds")
    metrics = traced["metrics"]
    assert metrics["lifecycle.rebuilds"] > 0
    assert metrics["sharding.insert_us"] > 0 and metrics["sharding.delete_us"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
