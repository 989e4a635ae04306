"""Documented exits for inputs that used to end in a traceback, and the
module globals of moa.cli that the benchmark's tracer wraps by name."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from moa import DenseArray, DomainError, PlanError, ShapeError, cli, plan_from_json
from moa.cli import main

ROOT = Path(__file__).resolve().parent.parent


def write_array(tmp_path, text: str) -> str:
    path = tmp_path / "a.json"
    path.write_text(text)
    return f"A={path}"


def test_an_output_too_large_for_memory_exits_3(tmp_path, capsys):
    binding = write_array(tmp_path, json.dumps({"shape": [4096], "data": [1.0] * 4096}))
    expr = "outer(mul, outer(mul, A, A), outer(mul, A, A))"
    assert main(["eval", "--expr", expr, "--array", binding]) == 3
    assert capsys.readouterr().err == (
        f"error: expression output of {4096**4} elements does not fit in memory\n"
    )


def test_a_negative_seed_is_a_usage_error(monkeypatch, capsys):
    assert main(["verify", "--suite", "permute", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    monkeypatch.setenv("MOA_SEED", "-1")
    assert main(["verify", "--suite", "permute"]) == 2
    assert capsys.readouterr().err == "error: MOA_SEED must be a non-negative integer, got '-1'\n"


@pytest.mark.parametrize(
    "data, kind",
    [
        (["x"], "string"),
        ([1.0, "1.5"], "string"),
        ([True], "boolean"),
        ([None], "null"),
        ([{}], "object"),
        ([[1.0]], "array"),
        ([[1], [1, 2]], "array"),
    ],
)
def test_array_data_must_be_a_flat_list_of_json_numbers(tmp_path, capsys, data, kind):
    doc = json.dumps({"shape": [len(data)], "data": data})
    with pytest.raises(ShapeError):
        DenseArray.from_json(doc)
    assert main(["eval", "--expr", "A", "--array", write_array(tmp_path, doc)]) == 3
    k = next(k for k, x in enumerate(data) if type(x) not in (int, float))
    assert capsys.readouterr().err == (
        f'error: "data" must be a flat list of JSON numbers; element {k} is a JSON {kind}\n'
    )


def test_array_data_takes_ints_and_floats_and_rejects_huge_ints():
    assert DenseArray.from_json('{"shape": [2], "data": [1, 2.5]}').data == (1.0, 2.5)
    with pytest.raises(DomainError, match="out of float range"):
        DenseArray.from_json('{"shape": [1], "data": [1' + "0" * 400 + "]}")
    # past the interpreter's limit on digits in one integer, json.loads
    # raises a plain ValueError
    with pytest.raises(ShapeError, match="invalid array JSON"):
        DenseArray.from_json('{"shape": [1], "data": [1' + "0" * 5000 + "]}")
    with pytest.raises(PlanError, match="invalid plan JSON"):
        plan_from_json('{"procs": 1' + "0" * 5000 + "}")


def test_cli_keeps_every_global_the_benchmark_tracer_wraps():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [attr for attr, _ in spans.CLI_ENTRY_POINTS] + ["render_json", "DenseArray"]
    assert [name for name in names if name not in vars(cli)] == []
    assert "from_json" in vars(cli.DenseArray)
