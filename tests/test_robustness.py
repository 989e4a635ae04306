"""Input limits and strict checks: deep nesting, thread-pool sizing, untrusted
plan JSON, and usage errors that must win over data errors."""

from __future__ import annotations

import concurrent.futures
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from moa import (
    Affine,
    Combine,
    DenseArray,
    DomainError,
    FlatWrite,
    Kron,
    Leaf,
    LeafRead,
    LoopPlan,
    LoopSpec,
    MoaError,
    Outer,
    PlanError,
    Reshape,
    ShapeError,
    SizeError,
    TransposeG,
    execute_plan,
    flatten_operands,
    leaves,
    lower,
    materialize,
    materialize_stepwise,
    multi_kron,
    plan_from_json,
    plan_to_json,
    psi_reduce,
)
from moa import exprs, lowering, parser
from moa.cli import main
from moa.lowering import MAX_BODY_DEPTH
from moa.parser import MAX_NESTING


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(DenseArray((1, 1), [2.0]).to_json())
    return str(path)


def kron_chain(nesting: int) -> str:
    return "kron(" * nesting + "A" + ", A)" * nesting


def transpose_nest(nesting: int) -> str:
    return "transpose([1, 0], " * nesting + "A" + ")" * nesting


COMMANDS = [
    ["shape"],
    ["eval"],
    ["eval", "--index", "0,0"],
    ["dnf", "--index", "0,0"],
    ["onf"],
    ["onf", "--run"],
]


@pytest.mark.parametrize("build", [kron_chain, transpose_nest])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_deepest_accepted_nesting_runs(build, command, unit_file, capsys):
    code = main(command + ["--expr", build(MAX_NESTING), "--array", f"A={unit_file}"])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("build", [kron_chain, transpose_nest])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_one_level_deeper_is_a_parse_error(build, command, unit_file, capsys):
    code = main(command + ["--expr", build(MAX_NESTING + 1), "--array", f"A={unit_file}"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"nests deeper than {MAX_NESTING}" in err
    assert "line 1, column" in err


def test_too_deep_nesting_prints_no_traceback(unit_file):
    result = subprocess.run(
        [sys.executable, "-m", "moa.cli", "eval", "--expr", kron_chain(MAX_NESTING + 1)]
        + ["--array", f"A={unit_file}"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def double_outer():
    a = Leaf("A", (2, 2))
    return Outer("mul", Outer("mul", a, Leaf("B", (3, 3))), a)


def double_outer_env():
    return {
        "A": DenseArray((2, 2), [1.0, 2.0, 3.0, 4.0]),
        "B": DenseArray((3, 3), [float(v) for v in range(1, 10)]),
    }


def spy_pools(monkeypatch) -> list:
    """The thread count of each pool execute_plan builds from now on;
    execute_plan looks the class up in concurrent.futures."""
    seen = []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return seen


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1), (8, 4)])
def test_thread_pool_is_capped_at_cpu_count(monkeypatch, cpus, workers):
    seen = spy_pools(monkeypatch)
    monkeypatch.setattr(lowering, "PARALLEL_MIN_SLAB", 0)
    monkeypatch.setattr(lowering.os, "cpu_count", lambda: cpus)
    plan = lower(double_outer(), procs=4)
    buffers = flatten_operands(double_outer_env())
    sequential = execute_plan(plan, buffers)
    threaded = execute_plan(plan, buffers, parallel=True)
    assert seen == [workers]  # min(procs, cpus): four slabs need no more
    assert threaded.to_numpy().tobytes() == sequential.to_numpy().tobytes()


def test_a_plan_below_the_slab_size_builds_no_pool(monkeypatch):
    seen = spy_pools(monkeypatch)
    plan = lower(double_outer(), procs=4)
    assert np.prod(plan.out_shape) // plan.procs < lowering.PARALLEL_MIN_SLAB
    buffers = flatten_operands(double_outer_env())
    threaded = execute_plan(plan, buffers, parallel=True)
    assert seen == []
    assert threaded.to_numpy().tobytes() == execute_plan(plan, buffers).to_numpy().tobytes()


def test_a_plan_at_the_slab_size_runs_on_threads(monkeypatch):
    seen = spy_pools(monkeypatch)
    monkeypatch.setattr(lowering.os, "cpu_count", lambda: 2)
    slab = lowering.PARALLEL_MIN_SLAB  # procs 2 cut the plan into two slabs of this size
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal(2), rng.standard_normal(slab)
    env = {"A": DenseArray.from_numpy(a), "B": DenseArray.from_numpy(b)}
    plan = lower(Outer("add", Leaf("A", (2,)), Leaf("B", (slab,))), procs=2)
    threaded = execute_plan(plan, flatten_operands(env), parallel=True)
    assert seen == [2]
    assert threaded.to_numpy().tobytes() == np.add.outer(a, b).tobytes()


def plan_doc() -> dict:
    return json.loads(plan_to_json(lower(double_outer(), procs=4)))


def set_procs(doc, value):
    doc["procs"] = value


def set_count(doc, value):
    doc["loops"][0]["count"] = value


def set_extent(doc, value):
    doc["out_shape"][0] = value


def set_coeff(doc, value):
    doc["body"]["write"]["offset"]["terms"][-1]["coeff"] = value


def set_op(doc, value):
    doc["body"]["expr"]["op"] = value


def set_var(doc, value):
    """Rename loop variable p everywhere, so the plan stays consistent."""
    nodes = [doc]
    while nodes:
        node = nodes.pop()
        items = node.values() if isinstance(node, dict) else node
        if isinstance(node, dict) and node.get("var") == "p":
            node["var"] = value
        nodes += [item for item in items if isinstance(item, (dict, list))]


def set_buffer(doc, value):
    doc["body"]["expr"]["args"][1]["buffer"] = value


@pytest.mark.parametrize(
    "mutate, value",
    [
        (set_procs, "4"),
        (set_procs, True),
        (set_count, 4.9),  # loop p runs 4 times
        (set_extent, 2.5),  # the output's first extent is 2
        (set_coeff, True),
        (set_op, "pow"),
        (set_var, 7),
        (set_buffer, ["avec"]),
    ],
    ids=["string procs", "bool procs", "float count", "float extent", "bool coeff",
         "unknown op", "int var", "list buffer"],
)
def test_plan_from_json_rejects_loose_values(mutate, value):
    doc = plan_doc()
    assert plan_from_json(json.dumps(doc)) == lower(double_outer(), procs=4)
    mutate(doc, value)
    with pytest.raises(PlanError):
        plan_from_json(json.dumps(doc))


def test_loop_bounds_past_a_machine_word_are_plan_errors():
    huge = 10**30
    assert LoopSpec("p", 0, huge, 1, huge).count == huge
    assert LoopSpec("p", 3, huge, 7, (huge - 3 + 6) // 7).count == (huge - 3 + 6) // 7
    with pytest.raises(PlanError, match="does not match"):
        LoopSpec("p", 0, huge, 1, huge - 1)
    doc = plan_doc()
    doc["loops"][0]["stop"] = doc["loops"][0]["count"] = huge
    with pytest.raises(PlanError, match="iterations"):
        plan_from_json(json.dumps(doc))
    doc["out_shape"][0] = huge
    with pytest.raises(SizeError):
        plan_from_json(json.dumps(doc))


def test_parallel_without_run_is_a_usage_error_before_lowering(tmp_path, capsys):
    paths = []
    for name, array in double_outer_env().items():
        path = tmp_path / f"{name}.json"
        path.write_text(array.to_json())
        paths += ["--array", f"{name}={path}"]
    expr = "outer(mul, outer(mul, A, B), A)"
    # procs 5 does not partition this plan: without --parallel that is exit 3
    assert main(["onf", "--expr", expr, "--procs", "5"] + paths) == 3
    capsys.readouterr()
    code = main(["onf", "--expr", expr, "--procs", "5", "--parallel"] + paths)
    assert code == 2
    assert "--parallel requires --run" in capsys.readouterr().err


def test_leaves_walks_expressions_and_plan_bodies_left_to_right():
    expr = Kron(Leaf("A", (2, 2)), TransposeG((1, 0), Leaf("C", (2, 3))))
    assert [leaf.name for leaf in leaves(Outer("add", expr, Leaf("B", (3,))))] == [
        "A",
        "C",
        "B",
    ]
    assert [read.name for read in leaves(lower(expr).body)] == ["avec", "cvec"]


UNIT = Leaf("M", (1, 1))
SCALAR = Leaf("S", ())


def api_kron_chain(levels: int):
    return multi_kron([UNIT] * (levels + 1))


def api_nest(wrap):
    def build(levels: int):
        expr = UNIT
        for _ in range(levels):
            expr = wrap(expr)
        return expr

    return build


API_BUILDS = {
    "kron": api_kron_chain,
    "transpose": api_nest(lambda e: TransposeG((1, 0), e)),
    "reshape": api_nest(lambda e: Reshape((1, 1), e)),
    "outer": api_nest(lambda e: Outer("add", e, SCALAR)),
    "left kron": api_nest(lambda e: Kron(UNIT, e)),
}


def test_parser_and_nodes_share_one_nesting_limit():
    assert parser.MAX_NESTING is exprs.MAX_NESTING == 100


@pytest.mark.parametrize("build", API_BUILDS.values(), ids=API_BUILDS.keys())
def test_api_built_trees_run_at_the_nesting_limit(build):
    expr = build(MAX_NESTING)
    assert expr.depth == MAX_NESTING
    env = {"M": DenseArray((1, 1), [1.0]), "S": DenseArray((), [0.0])}
    assert len(list(leaves(psi_reduce((0, 0), expr)))) == len(list(leaves(expr)))
    assert materialize(expr, env).data == (1.0,)
    assert lower(expr).out_shape == (1, 1)
    assert materialize_stepwise(expr, env).tolist() == [[1.0]]


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1000])
@pytest.mark.parametrize("build", API_BUILDS.values(), ids=API_BUILDS.keys())
def test_api_built_trees_past_the_limit_are_shape_errors(build, levels):
    with pytest.raises(ShapeError, match=f"nests deeper than {MAX_NESTING}"):
        build(levels)


def test_element_count_overflow_is_a_moa_error():
    with pytest.raises(MoaError, match="element count exceeds"):
        DenseArray((2**40, 2**40), [])
    with pytest.raises(ShapeError):
        Reshape((2**40, 2**40), Leaf("A", (2,)))


def api_plan(depth: int, nest_right: bool = False) -> LoopPlan:
    """A one-element plan whose body is ``depth`` adds of one read, nested down
    the left (or the right) argument."""
    read = LeafRead("avec", Affine((), 0))
    body = read
    for _ in range(depth):
        body = Combine("add", read, body) if nest_right else Combine("add", body, read)
    loop = LoopSpec("p", 0, 1, 1, 1)
    return LoopPlan(1, (1,), (loop,), FlatWrite("out", Affine((("p", 1),), 0)), body)


@pytest.mark.parametrize("nest_right", [False, True])
def test_api_built_plan_bodies_run_at_the_depth_limit(nest_right):
    plan = api_plan(MAX_BODY_DEPTH, nest_right)
    text = plan_to_json(plan)
    assert plan_to_json(plan_from_json(text)) == text
    result = execute_plan(plan, flatten_operands({"a": DenseArray((1,), [2.0])}))
    assert result.data == (2.0 * (MAX_BODY_DEPTH + 1),)


@pytest.mark.parametrize("depth", [MAX_BODY_DEPTH + 1, 3000])
@pytest.mark.parametrize("nest_right", [False, True])
def test_api_built_plan_bodies_past_the_limit_are_plan_errors(depth, nest_right):
    with pytest.raises(PlanError, match=f"nests deeper than {MAX_BODY_DEPTH} ops"):
        api_plan(depth, nest_right)


def test_integer_past_the_float_range_is_a_domain_error(tmp_path, capsys):
    huge = 10**400
    builds = [
        lambda: DenseArray((1,), [huge]),
        lambda: DenseArray.from_nested([[huge]]),
        lambda: DenseArray.from_numpy(np.array([huge], dtype=object)),
    ]
    for build in builds:
        with pytest.raises(DomainError, match="out of float range"):
            build()
    path = tmp_path / "A.json"
    path.write_text('{"shape": [1], "data": [' + str(huge) + "]}")
    assert main(["eval", "--expr", "A", "--array", f"A={path}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: array element out of float range")
