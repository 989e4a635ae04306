"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload: str, trace: int) -> tuple[dict, str]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_prints_every_metric(capsys, workload, trace):
    result, out = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float) and reported["value"] >= 0.0
        if not trace:
            assert reported["value"] > 0.0
        assert any(
            line.split()[:3] == [metric["name"], f"{reported['value']:.6g}", metric["unit"]]
            for line in out.splitlines()
        )
    if not trace:
        assert "failed_ratio 0 ratio" in out


def test_wrong_expected_value_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "kron_fold", lambda factors: np.zeros(1))
    result, out = bench(capsys, "kron_onf", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "failed_ratio 1 ratio" in out


def send_pair(tmp_path, tree, shapes):
    """Checks of a compile_mix tree's plan request and run request, as sent."""
    run.set_up("compile_mix", 0, tmp_path, True)  # puts moa on a fresh import
    from moa import cli

    mix = workloads.CompileMix(0, tmp_path, True)
    mix.write_files()
    results = []
    for request in mix._requests(tree, shapes):
        calls = run.send(cli.main, request)[1]
        results.append(([c[0] for c in calls], request.check(calls)))
    return results, mix._requests(tree, shapes)


def test_zero_denominator_must_exit_3_on_every_route(tmp_path):
    tree = ("outer", "div", ("leaf", "A"), ("outer", "sub", ("leaf", "B"), ("leaf", "B")))
    (plan, run_or_eval), _ = send_pair(tmp_path, tree, {"A": (2,), "B": (2,)})
    assert plan == ([0], (None, 0))
    assert run_or_eval == ([3, 3], (None, 0))


def test_onf_may_refuse_only_with_a_lowering_error(tmp_path):
    tree = ("reshape", (2, 3, 2, 3), ("transpose", (0, 2, 1, 3), ("outer", "add", ("leaf", "C"), ("leaf", "C"))))
    (plan, run_or_eval), (plan_request, run_request) = send_pair(tmp_path, tree, {"C": (2, 3)})
    assert plan == ([3], (None, 0))
    assert run_or_eval[0] == [3, 0] and run_or_eval[1] == (None, 36)
    other_error = (workloads.DATA_ERROR, "", "error: shape mismatch in reshape\n")
    assert plan_request.check([other_error])[0] is not None
    assert run_request.check([other_error, other_error])[0] is not None


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "kron_onf", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
