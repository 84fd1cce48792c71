"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the
checkout root."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_sqpo()

ROOT = run.HERE.parent
LAYERS = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload, seed=1, max_ops=6, trace=0):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=trace)
    return run.run_workload(args, BENCHMARK, max_ops=max_ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload, capsys):
    first, run_a = bench(workload)
    second, run_b = bench(workload)
    assert first["correct"] and second["correct"], run_a.failures + run_b.failures
    assert run_a.digest() == run_b.digest()
    _, run_c = bench(workload, seed=2)
    assert run_c.digest() != run_a.digest()


def test_result_line_has_every_end_to_end_metric(capsys):
    result, _ = bench("deep_layers", max_ops=4)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric(capsys):
    result, _ = bench("deep_layers", max_ops=2, trace=1)
    assert result["correct"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(result["metrics"])
    metrics = result["metrics"]
    assert metrics["hierarchy.validate_commutativity.calls"]["value"] > 0
    assert metrics["hierarchy.add_typing.calls"]["value"] == 44


def test_cli_outputs_match_library_path(capsys):
    # one pass over every cli input: each rewrite is compared byte for byte
    workload = run.make_workload("cli_batch", 3)
    result, batch = bench("cli_batch", seed=3, max_ops=len(workload.ops))
    assert result["correct"], batch.failures
    assert {op.key for op in workload.ops} == set(batch.digests)


def test_benchmark_json_matches_layer_table():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert list(LAYERS["workloads"]) == WORKLOADS
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    families = {f"{f}_ms_p50" for f in run.FAMILIES}
    for name, m in LAYERS["per_layer"].items():
        assert name in per_layer
        for move in m["moves"]:
            assert move["workload"] in WORKLOADS
            assert move["metric"] in end_to_end | families
        assert set(m["no_change_on"]) <= set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "data_fwd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
