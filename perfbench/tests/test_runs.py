"""Reduced-size runs of every workload, the traced mode, and the contract
between the runner and BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reduced_run_has_no_failed_operation(workload, trace, tmp_path):
    result = run.run(workload, 7, 0, trace, str(tmp_path), small=True)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + workloads.MIN_HITS
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_records_its_workload_layers(tmp_path):
    result = run.run("set-verbs", 7, 0, 1, str(tmp_path / "run"), small=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("cli.load_s", "cli.render_s", "fincat.validate_s",
                 "cyclo.free_monoid_build_s", "cyclo.psi_s",
                 "facthom.trace_table_s", "facthom.set_value_s"):
        assert metrics[name] > 0, name
    # S_3, Q_8: one object, n morphisms, n^3 composable triples per load
    assert metrics["fincat.validate_triples"] == 8 * (6 ** 3 + 8 ** 3)
    assert metrics["cyclo.compose_entries"] == sum((s + 1) * 2 ** s for s in range(5))
    assert metrics["cli.cache_misses"] == 8
    jobs = workloads.set_verbs(str(tmp_path), 7, small=True)
    hits = sum(is_hit for _, is_hit in workloads.round_plan(jobs))
    assert metrics["cli.cache_hits"] == hits >= workloads.MIN_HITS
    assert metrics["exactla.rank_calls"] == 0


def test_a_missing_layer_function_is_reported_not_fatal():
    run.import_program()
    tracer = Tracer()
    tracer.install((("gone_s", "strathom.exactla", "no_such_function", None, None),
                    ("rank_s", "strathom.exactla", "SparseMat.rank", None, None)))
    try:
        assert tracer.missing == ["strathom.exactla.no_such_function"]
        from strathom.exactla import QQ, SparseMat
        tracer.begin_round()
        assert SparseMat.identity(3).rank(QQ) == 3
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert tracer.self_times()[0]["rank_s"] > 0


def test_benchmark_json_lists_the_runner_metrics():
    bench = json.loads(BENCH.read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology-z",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_main_drops_a_user_cache_directory_before_running(monkeypatch, tmp_path):
    seen = {}

    def fake_run(workload, seed, seconds, trace, tmp, trace_path=None):
        seen["FH_CACHE"] = os.environ.get("FH_CACHE")
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    monkeypatch.setenv("FH_CACHE", str(tmp_path))
    monkeypatch.setattr(run, "run", fake_run)
    assert run.main(["--workload", "homology-z"]) == 0
    assert seen == {"FH_CACHE": None}
