from __future__ import annotations

import json
import subprocess
import sys

import pytest

from moa import DenseArray, cli, materialize, parse
from moa.cli import build_parser, format_shape, main, render_json


@pytest.fixture
def array_files(tmp_path):
    paths = {}
    arrays = {
        "A": DenseArray.from_nested([[1.0, 2.0], [3.0, 4.0]]),
        "B": DenseArray.from_nested(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        ),
    }
    for name, arr in arrays.items():
        path = tmp_path / f"{name}.json"
        path.write_text(arr.to_json())
        paths[name] = str(path)
    return paths, arrays


def args_with_arrays(paths, *rest):
    out = list(rest)
    for name, path in paths.items():
        out += ["--array", f"{name}={path}"]
    return out


def test_render_json_is_canonical():
    doc = {"b": [1, 2.5], "a": {"y": 0.1, "x": True}}
    assert render_json(doc) == (
        '{\n  "a": {\n    "x": true,\n    "y": 0.10000000000000001\n  },'
        '\n  "b": [\n    1,\n    2.5\n  ]\n}'
    )


def test_format_shape():
    assert format_shape((2, 4, 3)) == "<2 4 3>"
    assert format_shape(()) == "<>"


def test_shape_command(array_files, capsys):
    paths, _ = array_files
    code = main(args_with_arrays(paths, "shape", "--expr", "outer(mul, A, B)"))
    assert code == 0
    assert capsys.readouterr().out.strip() == "<2 2 3 3>"


def test_eval_full_array(array_files, capsys):
    paths, arrays = array_files
    code = main(args_with_arrays(paths, "eval", "--expr", "kron(A, B)"))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    expr = parse("kron(A, B)", {n: a.shape for n, a in arrays.items()})
    expected = materialize(expr, arrays)
    assert doc["shape"] == [6, 6]
    assert doc["data"] == list(expected.data)


def test_eval_single_element(array_files, capsys):
    paths, _ = array_files
    code = main(
        args_with_arrays(paths, "eval", "--expr", "kron(A, B)", "--index", "0,3")
    )
    assert code == 0
    # kron entry (0, 3) is A[0,1] * B[0,0] = 2
    assert capsys.readouterr().out.strip() == "2"


def test_dnf_command(array_files, capsys):
    paths, _ = array_files
    code = main(
        args_with_arrays(paths, "dnf", "--expr", "outer(mul, A, B)", "--index", "1,0,2,1")
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "op": "mul",
        "args": [
            {"array": "A", "offset": 2},
            {"array": "B", "offset": 7},
        ],
    }


def test_onf_plan_output(array_files, capsys):
    paths, _ = array_files
    code = main(
        args_with_arrays(
            paths, "onf", "--expr", "outer(mul, outer(mul, A, B), A)", "--procs", "4"
        )
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["procs"] == 4
    assert [l["var"] for l in doc["loops"]] == ["p", "q", "r"]
    assert [l["stop"] for l in doc["loops"]] == [4, 9, 4]


def test_onf_run(array_files, capsys):
    paths, arrays = array_files
    code = main(
        args_with_arrays(
            paths,
            "onf",
            "--expr",
            "kron(A, B)",
            "--procs",
            "2",
            "--run",
            "--parallel",
        )
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    expr = parse("kron(A, B)", {n: a.shape for n, a in arrays.items()})
    assert doc["data"] == list(materialize(expr, arrays).data)


def test_an_unused_binding_that_collides_under_buffer_naming_is_ignored(array_files, capsys):
    # A and a both name buffer avec, but the expression reads only A
    paths, _ = array_files
    bindings = ["--array", f"A={paths['A']}", "--array", f"a={paths['A']}"]
    printed = []
    for command in (["eval"], ["onf", "--run"], ["onf", "--procs", "2", "--run", "--parallel"]):
        assert main([command[0], "--expr", "outer(mul, A, A)", *bindings, *command[1:]]) == 0
        printed.append(capsys.readouterr())
    assert printed[0].err == ""
    assert printed[1:] == printed[:1] * 2
    assert main(["onf", "--expr", "outer(mul, A, A)", *bindings]) == 0
    assert main(["onf", "--expr", "outer(mul, A, a)", *bindings]) == 3
    assert "collide under buffer naming" in capsys.readouterr().err


def test_eval_beyond_numpy_rank_limit(tmp_path, capsys):
    # a rank-71 outer chain of (1,) leaves: past numpy's 64 axes, within nesting
    values = {"A": 1.5, "B": -2.0}
    bindings = []
    for name, value in values.items():
        path = tmp_path / f"{name}.json"
        path.write_text(DenseArray((1,), [value]).to_json())
        bindings += ["--array", f"{name}={path}"]
    text, value = "A", 1.5
    for k in range(1, 71):
        op, name = ("mul" if k % 3 else "add"), ("B" if k % 2 else "A")
        text = f"outer({op}, {text}, {name})"
        value = value * values[name] if op == "mul" else value + values[name]
    assert main(["eval", "--expr", text, *bindings]) == 0
    assert json.loads(capsys.readouterr().out) == {"shape": [1] * 71, "data": [value]}
    assert main(["eval", "--expr", text, "--index", ",".join("0" * 71), *bindings]) == 0
    assert float(capsys.readouterr().out) == value

def test_onf_run_beyond_numpy_rank_limit(tmp_path, capsys):
    # an operand of rank 71 binds by its flat buffer, not a rank-71 numpy view
    path = tmp_path / "T.json"
    path.write_text(DenseArray((1,) * 70 + (2,), [1.5, -2.0]).to_json())
    text = "transpose([" + ", ".join(str(k) for k in range(70, -1, -1)) + "], T)"
    common = ["--expr", text, "--array", f"T={path}"]
    assert main(["eval", *common]) == 0
    evaluated = capsys.readouterr()
    assert main(["onf", "--run", *common]) == 0
    assert capsys.readouterr() == evaluated
    assert json.loads(evaluated.out) == {"shape": [2] + [1] * 70, "data": [1.5, -2.0]}


def test_onf_partition_error_exit_code(array_files, capsys):
    paths, _ = array_files
    code = main(
        args_with_arrays(
            paths, "onf", "--expr", "outer(mul, outer(mul, A, B), A)", "--procs", "5"
        )
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "2, 4" in err


def test_parallel_requires_run(array_files, capsys):
    paths, _ = array_files
    code = main(args_with_arrays(paths, "onf", "--expr", "kron(A, B)", "--parallel"))
    assert code == 2


def test_syntax_error_exit_code(array_files, capsys):
    paths, _ = array_files
    code = main(args_with_arrays(paths, "shape", "--expr", "outer(mul, A"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_name_exit_code(array_files, capsys):
    paths, _ = array_files
    code = main(args_with_arrays(paths, "shape", "--expr", "outer(mul, A, Z)"))
    assert code == 2


def test_shape_error_exit_code(array_files, capsys):
    paths, _ = array_files
    # reshape changes the element count: a data error, not a syntax error
    code = main(args_with_arrays(paths, "shape", "--expr", "reshape([5], A)"))
    assert code == 3


def test_index_out_of_bounds_exit_code(array_files, capsys):
    paths, _ = array_files
    code = main(
        args_with_arrays(paths, "eval", "--expr", "kron(A, B)", "--index", "6,0")
    )
    assert code == 3


def test_missing_array_file(tmp_path, capsys):
    code = main(
        ["shape", "--expr", "A", "--array", f"A={tmp_path}/missing.json"]
    )
    assert code == 2


def test_bad_array_binding_syntax(capsys):
    code = main(["shape", "--expr", "A", "--array", "A"])
    assert code == 2


def test_malformed_array_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"shape": [2], "data": [1, 2, 3]}')
    code = main(["shape", "--expr", "A", "--array", f"A={path}"])
    assert code == 3


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "dyadics", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dyadics:" in out
    assert out.strip().endswith("ok")


def test_verify_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MOA_SEED", "11")
    code = main(["verify", "--suite", "permute"])
    assert code == 0


def test_verify_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MOA_SEED", "eleven")
    code = main(["verify", "--suite", "permute"])
    assert code == 2


def test_console_entry_point(array_files):
    paths, _ = array_files
    result = subprocess.run(
        [sys.executable, "-m", "moa.cli"]
        + args_with_arrays(paths, "shape", "--expr", "transpose([1, 0], A)"),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "<2 2>"


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_without_leaking_state(array_files, capsys):
    paths, _ = array_files
    a, b = (["--array", f"{name}={paths[name]}"] for name in ("A", "B"))
    calls = [
        ["shape", "--expr", "outer(mul, A, B)", *a, *b],
        ["shape", "--expr", "B", *a],  # B was bound only in the call before
        ["eval", "--expr", "kron(A, B)", *a, *b, "--index", "0,3"],
        ["eval", "--expr", "A", *a],
        ["dnf", "--expr", "outer(mul, A, B)", *b, *a, "--index", "1,0,2,1"],
        ["onf", "--expr", "kron(A, B)", *a, *b, "--procs", "2", "--run", "--parallel"],
        ["onf", "--expr", "kron(A, B)", *a, *b],  # no --procs or --run carried over
        ["verify", "--suite", "dyadics", "--seed", "3"],
        ["eval", "--expr", "A"],  # no binding at all
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_main(argv, capsys))
    build_parser.cache_clear()
    assert [run_main(argv, capsys) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 0, 0, 0, 2]


def test_json_output_goes_through_the_render_json_global(array_files, capsys, monkeypatch):
    """Tracing wraps the moa.cli global, so every JSON print must look it up."""
    paths, _ = array_files
    rendered = []

    def counting(doc):
        rendered.append(doc)
        return render_json(doc)

    monkeypatch.setattr(cli, "render_json", counting)
    for command in (
        ["eval", "--expr", "kron(A, B)"],
        ["dnf", "--expr", "kron(A, B)", "--index", "1,2"],
        ["onf", "--expr", "kron(A, B)", "--run"],
    ):
        assert main(args_with_arrays(paths, *command)) == 0
        assert capsys.readouterr().out == render_json(rendered[-1]) + "\n"
    assert len(rendered) == 3
