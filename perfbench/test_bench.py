"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The repeat tests run each workload twice with one seed (about six minutes
in all on two cores); select the quick ones with ``-k "not repeat"``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer as tr

RUN = Path(run.__file__).resolve()

# counts that must repeat exactly between two runs with one seed
EXACT_COUNTS = (
    "kernels.kv.evals", "kernels.gram_matrix.entries", "kernels.cross_matrix.entries",
    "planner.concentrated_log_likelihood.calls",
    "linalg.cho_factor.calls", "linalg.cho_factor.order_sum", "linalg.eigh.order_max",
)


def _bench(*args, cwd=run.ROOT):
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["casestudy", "curves", "allocate"]


@pytest.mark.parametrize("workload", ["curves", "allocate", "casestudy"])
def test_counts_repeat_exactly(workload):
    first, second = (_result(_bench("--workload", workload, "--seed", "3",
                                    "--seconds", "0", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert first["metrics"]["bench.missing_names"]["value"] == 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_missing_name_is_reported_not_zero():
    fake = types.ModuleType("gpbudget._bench_fake")
    fake.present = lambda x: x + 1
    sys.modules[fake.__name__] = fake
    try:
        tracer = tr.Tracer()
        tracer.install([
            ("fake", fake.__name__, "present"),
            ("fake", fake.__name__, "absent"),
            ("linalg", "scipy.linalg", "lu_factor"),
        ])
        try:
            assert fake.present(1) == 2
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[fake.__name__]
    assert tracer.missing() == ["fake.absent", "linalg.lu_factor"]
    assert [rec[tr.NAME] for rec in tracer.spans] == ["fake.present"]


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1, False, 0],
        ["b", 1.0, 4.0, 0, 1, False, 0],
        ["c", 2.0, 3.0, 1, 1, False, 0],
        ["b", 5.0, 6.0, 0, 1, False, 0],
    ]
    assert tr.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / run.BENCH_DIR.name / "run.py"),
                           "--workload", "curves", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
