"""Smoke tests of the benchmark itself, on tiny corpora.

Every workload runs in ``--smoke`` mode: it must print every metric
``BENCHMARK.json`` names, with its unit, and a different seed must change
the inputs but not the metric names.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hooks
from measure import nearest_rank
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict, list[str]]:
    # A process per run, as the benchmark command runs: the program's metrics
    # registry and span ring are process-wide.
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[0].removeprefix("perfbench-report: "))
    result = json.loads(lines[-1])
    return report, result, lines


def _units(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_spec_names_the_workloads_it_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload):
    first, result, _ = _run(workload, seed=1, trace=0)
    second, other, _ = _run(workload, seed=2, trace=0)
    for outcome in (result, other):
        assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
        assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
        assert {name: m["unit"] for name, m in outcome["metrics"].items()} == _units(SPEC["end_to_end"])
    assert first["inputs_sha256"] != second["inputs_sha256"]
    if workload.startswith("label-"):  # whole rounds of the five datasets only
        assert result["attempted"] == 5 * first["rounds"]
    assert first["env"]["seed"] == 1 and first["env"]["nproc"] >= 1

    report, traced, lines = _run(workload, seed=1, trace=1)
    assert traced["correct"]
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == _units(SPEC["per_layer"])
    assert report["unmeasured_targets"] == []
    assert not any(line.startswith("unmeasured:") for line in lines)
    if workload == "relabel-cached":
        assert traced["metrics"]["cache.hit_ratio"]["value"] == pytest.approx(report["cache.revisit_share"])


def test_missing_hook_target_is_unmeasured_not_zero():
    tracer = hooks.Tracer()
    missing = hooks.Hook("repro.engine.source.no_such_stage", "nn.forward")
    source = importlib.import_module("repro.engine.source")
    original = source.best_similarities
    tracer.install((missing, hooks.HOOKS[3]))
    try:
        assert tracer.unmeasured == ["repro.engine.source.no_such_stage"]
        assert not tracer.measured("nn.forward")
        assert tracer.measured("tiling.similarity")
        assert source.best_similarities is not original
    finally:
        tracer.uninstall()
    assert source.best_similarities is original


def test_nearest_rank_takes_raw_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 0.5) == 3.0
    assert nearest_rank(samples, 0.9) == 5.0
    assert nearest_rank([7.0], 0.9) == 7.0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *SPEC["command"][1:], "--workload", "label-n160", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
