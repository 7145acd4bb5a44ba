"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench/tests

They run ``bench/run.py`` from the repository root, as the benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the workloads in BENCHMARK.json plus solver_n64, which runs but is not gated
WORKLOADS = ["l2_sweep", "solver_n64", "criterion_cli"]
NAMED = {
    "l2_sweep": {"checks_per_s": "1/s", "check_ms_p50": "ms", "check_ms_tail": "ms",
                 "failed_ratio": "ratio"},
    "solver_n64": {"steps_per_s": "1/s", "step_ms_p50": "ms", "failed_ratio": "ratio"},
    "criterion_cli": {"cycle_s_p50": "s", "criterion_rows_per_s": "1/s",
                      "failed_ratio": "ratio"},
}

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


@lru_cache(maxsize=None)
def bench_run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = bench_run(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = detail["workload_metrics"]
    for name, unit in NAMED[workload].items():
        assert named[name]["unit"] == unit, name
    assert named["failed_ratio"]["value"] == 0.0
    env = detail["environment"]
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "scipy", "fft_backend",
                "thread_env", "git_commit", "src_sha256", "seed"):
        assert key in env, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_keeps_metric_names(workload):
    _, first = bench_run(workload, 1, 0)
    detail, second = bench_run(workload, 2, 0)
    assert second["correct"] is True, detail["failures"]
    assert set(second["metrics"]) == set(first["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs(workload, tmp_path):
    from workloads import WORKLOADS as classes

    def inputs(seed):
        w = classes[workload]("tiny", tmp_path / f"w{seed}")
        w.setup(seed)
        if workload == "l2_sweep":
            return b"".join(f.data.tobytes() for _, f in w.pool)
        if workload == "solver_n64":
            return repr(w.seeds).encode()
        return w.field_path.read_bytes()

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    detail, result = bench_run(workload, 1, 1)
    assert result["correct"] is True, detail["failures"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["outputs_identical"] is True
    assert detail["compared_ops"] >= 1
    assert detail["trace_consistency"]["ok"] is True


EXACT = {
    "l2_sweep": {"grid.fft_transforms": 20.0, "verify.check_lemma_l2.fft_per_call": 20.0},
    "solver_n64": {"nse.fft_per_step": 42.0},
    "criterion_cli": {"morrey.gm_norm.fft_per_call": 33.0, "nse.fft_per_step": 42.0},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    runs = [bench_run(workload, seed, 1)[1]["metrics"] for seed in (1, 2)]
    bench_run.cache_clear()  # a fresh process for the same seed
    runs.append(bench_run(workload, 1, 1)[1]["metrics"])
    for name, expected in EXACT[workload].items():
        assert [m[name]["value"] for m in runs] == [expected] * len(runs), name


def test_metric_tables_agree():
    import layers

    design = json.loads((BENCH / "design.json").read_text())
    names = [m[0] for m in layers.METRICS]
    assert names == [m["name"] for m in SPEC["per_layer"]]
    assert set(design["per_layer"]) == set(names)
    assert set(design["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(design["workloads"]) | set(design["extra_workloads"]) == set(WORKLOADS)
    assert set(design["end_to_end"]) - {"reported_not_gated"} == {
        m["name"] for m in SPEC["end_to_end"]}


def test_missing_layer_function_is_absent_not_zero():
    import layers
    from tracing import Tracer

    tracer = Tracer()
    metrics, _ = layers.per_layer(tracer, None, 1.0, 1.0)
    for name, _unit, _better, needs in layers.METRICS:
        if needs:
            assert metrics[name]["value"] is None, name
            assert "no longer present" in metrics[name]["absent"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
