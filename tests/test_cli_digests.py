"""The bytes the CLI prints are its contract: for every built-in grid
expression, the sha256 of the exit code, stdout and stderr of a fixed set of
`moa` calls is pinned here, so any change to what a command prints is
deliberate and shows in this table.

The calls per expression: shape and eval; eval --index and dnf --index at
the first and the last element; onf at every valid procs count; onf --run,
and onf --procs 2 --run --parallel where 2 divides the outer loop.  The
arrays are builtin_env(0), written to files.  Outputs long enough for the
vectorized float writer are pinned too, and checked against the text of the
% writer.
"""

from __future__ import annotations

import hashlib
import json

from moa import DenseArray, canonical, lower, parse
from moa.canonical import render_json
from moa.cli import main
from moa.verify import builtin_env, builtin_grid

# builtin_grid() as `moa --expr` text, in grid order
GRID_TEXTS = [
    "A",
    "D",
    "outer(mul, A, B)",
    "outer(add, C, D)",
    "outer(sub, A, A)",
    "outer(div, B, A)",
    "outer(mul, D, D)",
    "transpose([1, 0], C)",
    "transpose([2, 0, 1], E)",
    "transpose([0, 2, 1, 3], outer(mul, A, C))",
    "reshape([4], A)",
    "reshape([3, 2], C)",
    "reshape([4, 9], outer(mul, A, B))",
    "reshape([2, 3, 2, 3], transpose([0, 2, 1, 3], outer(add, C, C)))",
    "kron(A, B)",
    "kron(A, C)",
    "kron(C, A)",
    "kron(kron(A, A), A)",
    "outer(mul, outer(mul, A, B), A)",
    "outer(div, kron(A, A), A)",
    "transpose([3, 2, 1, 0], outer(sub, A, B))",
    "reshape([6, 6], outer(mul, reshape([6], C), D))",
]

# grid index: sha256 of the calls' (command, exit code, stdout, stderr)
CLI_SHA256 = {
    0: "24ecf20fb261342270d51ad405f1d6e824b6f1f571dc52655a42b79a42698ce4",
    1: "3461cef03c8c38c7d047fd8f5eb29a3aa1ed4a1dba2a28ef87c66ebc3163d912",
    2: "1ba4d7ccbc3a89ac57aef95fc5af39508a6f252b9d40fc032f1e1fc199d363a6",
    3: "7e34748aa08f27d55edbe779cd1679f116d5cc410adfad1d47701b550b0099e0",
    4: "32ad643a3a0e7262683065fc9ffd68da0a89f1f72153d9c61a3f0b3c92c74def",
    5: "bdb35b3da757e4925efa46efe79f248b06f76f5c8bbfacbb61bcc37e9b362115",
    6: "c22126000ce1195a78eb626cbc07bc4836ca303674e4cdd67d1aa8161244452f",
    7: "4a3f483e3e5378704a9d901bf42a5c2805b66bdce932ea8d43bf376a01d6edfe",
    8: "128af016af2361683bd2a9224ec4a3bd3f673323426ff717dac2b36dee0ca8a1",
    9: "ff3bcaaedb456f80ed92212bcc37ff9186584d32690a12e3b8a8847e6cb68b3e",
    10: "607621547b8d09ba334fc92ba28e27c7be0ac9c3558de38f725ccd77d9bfdfe6",
    11: "7d30a4aac946e6bf3e1d3fe7426ef02f5aae26ad681998181ce0f5956c9bea2c",
    12: "fa5ce4a542cad0962dfa0c61f3f0558e32eab0cd67eadcf8f022ba3f98734911",
    13: "df7e958bfce01e0bc2937e106fe84a5dc3209f4e95e277e279477f5c2fc4879e",
    14: "b403975d46c07768b0386e28f2799f2f144b1aaca45b821cfa791c441758dd11",
    15: "55938c344febdbf100b93b7e54040b2993ed68c03461189570f620ab119dbc7d",
    16: "36cbdd3f4ac0418ba132e4baf0f0dd680ed999a06ae6369dbd643eb7da6b9150",
    17: "9c664b95339c555ce22aa8f23223d24082b2efdde184f268f7c117e714601337",
    18: "94bcbc34cd69d882e38ac68ce5ee80a1c130ca2a9bc3e345fe9f18bb1df9d343",
    19: "d57d417defdd23323d56036808b537b091953b6b70aec0c40b62de1448cc2649",
    20: "12fe4fc03ac60cb9e9f22d1d8e021a310612ed40a865803c0ed0feb65672707d",
    21: "59af1a5d633cf11029c11749db97316290f1e326763f17bb9bacb7caab3d3fee",
}


def commands(shape: tuple[int, ...], outer: int) -> list[list[str]]:
    first = ",".join("0" for _ in shape)
    last = ",".join(str(extent - 1) for extent in shape)
    out = [["shape"], ["eval"]]
    for index in (first, last):
        out += [["eval", "--index", index], ["dnf", "--index", index]]
    out += [["onf", "--procs", str(p)] for p in range(1, outer + 1) if outer % p == 0]
    out.append(["onf", "--run"])
    if outer % 2 == 0:
        out.append(["onf", "--procs", "2", "--run", "--parallel"])
    return out


def test_cli_bytes_of_every_grid_expression_are_pinned(tmp_path, capsys):
    env = builtin_env(0)
    shapes = {name: array.shape for name, array in env.items()}
    bindings = []
    for name, array in env.items():
        path = tmp_path / f"{name}.json"
        path.write_text(array.to_json())
        bindings += ["--array", f"{name}={path}"]
    got = {}
    for k, (text, expr) in enumerate(zip(GRID_TEXTS, builtin_grid(), strict=True)):
        assert parse(text, shapes) == expr
        digest = hashlib.sha256()
        for command in commands(expr.shape, lower(expr, procs=1).loops[0].count):
            code = main([command[0], "--expr", text, *bindings, *command[1:]])
            out, err = capsys.readouterr()
            digest.update(json.dumps([command, code, out, err]).encode())
        got[k] = digest.hexdigest()
    assert got == CLI_SHA256


# Outputs of at least canonical.VECTOR_MIN elements, which the vectorized
# float writer renders: (argv, sha256 of exit code, stdout and stderr).
KRON_CHAIN = "kron(kron(A8, B8), C4)"
LARGE_OUTPUT_SHA256 = [
    (
        ["onf", "--run", "--expr", KRON_CHAIN],
        "7381aa53e7b471ae99c279c329b43e3014b83ac8fc1899007ed48d35504ebade",
    ),
    (
        ["onf", "--run", "--procs", "2", "--parallel", "--expr", KRON_CHAIN],
        "7381aa53e7b471ae99c279c329b43e3014b83ac8fc1899007ed48d35504ebade",
    ),
    (
        ["eval", "--expr", "outer(div, U, V)"],
        "d6cd36a4e706e7fd03090c9b41c1eb9230dabcf11ed238ef6b4cf545594b012e",
    ),
]


def exact_array(shape: tuple[int, ...], step: int, shift: float, scale: float) -> DenseArray:
    """Values spread over many decades, each from correctly rounded
    operations, so every platform computes the same doubles."""
    size = 1
    for extent in shape:
        size *= extent
    return DenseArray(
        shape, [(k * step % size - shift) / 7.0 * scale ** (k % 5 - 2) for k in range(size)]
    )


def test_cli_bytes_of_large_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    arrays = {
        "A8": exact_array((8, 8), 37, 31.5, 10.0),
        "B8": exact_array((8, 8), 11, 20.25, 0.01),
        "C4": exact_array((4, 4), 5, 7.75, 1000.0),
        "U": exact_array((48,), 13, 23.5, 1e-3),
        "V": exact_array((48,), 29, 24.5, 1e4),
    }
    bindings = []
    for name, array in arrays.items():
        path = tmp_path / f"{name}.json"
        path.write_text(array.to_json())
        bindings += ["--array", f"{name}={path}"]
    got = []
    for argv, _ in LARGE_OUTPUT_SHA256:
        code = main([*argv, *bindings])
        out, err = capsys.readouterr()
        got.append((argv, hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()))
        doc = json.loads(out)
        assert len(doc["data"]) >= canonical.VECTOR_MIN
        with monkeypatch.context() as patch:
            patch.setattr(canonical, "VECTOR_MIN", float("inf"))  # the % writer only
            assert out == render_json(doc) + "\n"
    assert got == LARGE_OUTPUT_SHA256
