from __future__ import annotations

import json

import numpy as np
import pytest

from moa import (
    Affine,
    DenseArray,
    FlatRead,
    FlatWrite,
    Kron,
    Leaf,
    LoopPlan,
    LoopSpec,
    LoweringError,
    OpExpr,
    Outer,
    PartitionError,
    PlanError,
    Reshape,
    TransposeG,
    execute_plan,
    flatten_operands,
    lower,
    materialize,
    plan_from_json,
    plan_to_json,
)
from moa.verify import builtin_env, builtin_grid


def double_outer():
    a = Leaf("A", (2, 2))
    b = Leaf("B", (3, 3))
    return Outer("mul", Outer("mul", a, b), a)


def test_double_outer_plan_structure():
    plan = lower(double_outer(), procs=4)
    assert plan.procs == 4
    assert plan.out_shape == (2, 2, 3, 3, 2, 2)
    assert [(l.var, l.start, l.stop, l.stride, l.count) for l in plan.loops] == [
        ("p", 0, 4, 1, 4),
        ("q", 0, 9, 1, 9),
        ("r", 0, 4, 1, 4),
    ]
    assert plan.write == FlatWrite("out", Affine((("p", 36), ("q", 4), ("r", 1))))
    assert plan.body == OpExpr(
        "mul",
        OpExpr(
            "mul",
            FlatRead("avec", Affine((("p", 1),))),
            FlatRead("bvec", Affine((("q", 1),))),
        ),
        FlatRead("avec", Affine((("r", 1),))),
    )


def test_double_outer_plan_iteration_count():
    plan = lower(double_outer(), procs=4)
    total = 1
    for loop in plan.loops:
        total *= loop.count
    assert total == 144


def test_plan_executes_to_expected_values(mat2, mat3):
    env = {"A": mat2, "B": mat3}
    plan = lower(double_outer(), procs=4)
    out = execute_plan(plan, flatten_operands(env))
    assert out == materialize(double_outer(), env)


def test_procs_split_outer_loop():
    plan = lower(double_outer(), procs=2)
    assert [(l.var, l.count) for l in plan.loops] == [
        ("p", 2),
        ("q", 2),
        ("r", 9),
        ("s", 4),
    ]
    # offsets re-expand the split loop: avec index is 2p + q
    assert plan.write.offset == Affine((("p", 72), ("q", 36), ("r", 4), ("s", 1)))
    first_read = plan.body.left.left
    assert first_read == FlatRead("avec", Affine((("p", 2), ("q", 1))))


def test_partition_error_lists_valid_counts():
    with pytest.raises(PartitionError) as info:
        lower(double_outer(), procs=5)
    assert info.value.valid == (2, 4)
    assert "2, 4" in str(info.value)


def test_procs_one_always_works():
    plan = lower(double_outer(), procs=1)
    assert plan.procs == 1
    assert [l.count for l in plan.loops] == [4, 9, 4]


def test_all_valid_procs_agree(mat2, mat3):
    env = {"A": mat2, "B": mat3}
    buffers = flatten_operands(env)
    reference = execute_plan(lower(double_outer(), procs=1), buffers)
    for procs in (2, 4):
        out = execute_plan(lower(double_outer(), procs=procs), buffers)
        assert out == reference


def test_parallel_execution_is_bit_identical(mat2, mat3):
    env = {"A": mat2, "B": mat3}
    buffers = flatten_operands(env)
    plan = lower(double_outer(), procs=4)
    sequential = execute_plan(plan, buffers, parallel=False)
    threaded = execute_plan(plan, buffers, parallel=True)
    assert sequential.data == threaded.data


def test_kron_lowering_matches_numpy(mat2, mat3):
    expr = Kron(Leaf("A", (2, 2)), Leaf("B", (3, 3)))
    env = {"A": mat2, "B": mat3}
    plan = lower(expr, procs=1)
    out = execute_plan(plan, flatten_operands(env))
    assert np.array_equal(out.to_numpy(), np.kron(mat2.to_numpy(), mat3.to_numpy()))


def test_contiguous_reshape_lowers():
    # reshaping a row-major leaf is always affine
    expr = Reshape((3, 2), Leaf("C", (2, 3)))
    plan = lower(expr, procs=1)
    c = DenseArray((2, 3), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = execute_plan(plan, flatten_operands({"C": c}))
    assert out.data == c.data
    assert out.shape == (3, 2)


def assert_runs_like_materialize(expr, env):
    """The plan at every valid procs count, run in order and threaded, is
    bit-identical to materialize."""
    want = materialize(expr, env).to_numpy().tobytes()
    buffers = flatten_operands(env)
    outer = lower(expr, procs=1).loops[0].count
    for procs in [d for d in range(1, outer + 1) if outer % d == 0]:
        plan = lower(expr, procs=procs)
        for parallel in (False, True):
            assert execute_plan(plan, buffers, parallel).to_numpy().tobytes() == want


def test_interleaved_reshape_lowers_and_a_transpose_across_it_is_rejected():
    # a reshape keeps the digit stream; only a transpose that splits the
    # reshape's axes across digits is not affine
    c = Leaf("C", (2, 3))
    expr = Reshape((2, 3, 2, 3), TransposeG((0, 2, 1, 3), Outer("add", c, c)))
    assert_runs_like_materialize(expr, {"C": DenseArray((2, 3), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])})
    interleaved = Reshape((3, 2), TransposeG((1, 0), Leaf("A", (3, 2))))
    for rejected in (TransposeG((1, 0), interleaved), Kron(interleaved, Leaf("B", (2, 2)))):
        with pytest.raises(LoweringError, match="not affine"):
            lower(rejected, procs=1)


def test_a_transpose_across_a_reshape_is_named_with_the_axis_it_cannot_take():
    a = Leaf("A", (3, 2))
    interleaved = Reshape((3, 2), TransposeG((1, 0), a))
    split = Reshape((4, 3), Outer("mul", TransposeG((1, 0), a), Leaf("B", (2,))))
    for rejected, message in [
        (
            TransposeG((1, 0), interleaved),
            "transpose [1, 0] cannot take an axis of extent 3: its leading digits "
            "span 2; access is not affine",
        ),
        (
            TransposeG((1, 0), split),
            "transpose [1, 0] cannot take an axis of extent 4: a digit of extent 3 "
            "does not split by 2; access is not affine",
        ),
    ]:
        with pytest.raises(LoweringError) as info:
            lower(rejected, procs=1)
        assert str(info.value) == message


def test_every_grid_expression_lowers_at_every_valid_procs_count():
    env = builtin_env(0)
    for expr in builtin_grid():
        assert_runs_like_materialize(expr, env)


def test_transposed_layout_still_lowers(mat2, mat3):
    expr = TransposeG((2, 3, 0, 1), Outer("mul", Leaf("A", (2, 2)), Leaf("B", (3, 3))))
    env = {"A": mat2, "B": mat3}
    out = execute_plan(lower(expr, procs=1), flatten_operands(env))
    assert out == materialize(expr, env)


def test_extent_one_axes_drop_out_of_loops():
    expr = Leaf("A", (1, 5, 1))
    plan = lower(expr, procs=1)
    assert [(l.var, l.count) for l in plan.loops] == [("p", 5)]
    assert plan.out_shape == (1, 5, 1)


def test_single_element_output():
    plan = lower(Leaf("A", (1, 1)), procs=1)
    assert [(l.var, l.count) for l in plan.loops] == [("p", 1)]
    out = execute_plan(plan, {"avec": np.array([42.0])})
    assert out.data == (42.0,)


def test_zero_element_output_is_rejected():
    with pytest.raises(LoweringError):
        lower(Leaf("A", (0, 3)), procs=1)


def test_buffer_name_collision_is_rejected():
    expr = Outer("mul", Leaf("A", (2,)), Leaf("a", (2,)))
    with pytest.raises(LoweringError):
        lower(expr, procs=1)


def test_conflicting_leaf_shapes_are_rejected():
    from moa import ShapeError

    expr = Outer("mul", Leaf("A", (2,)), Leaf("A", (3,)))
    with pytest.raises(ShapeError):
        lower(expr, procs=1)


def test_plan_json_roundtrip():
    plan = lower(double_outer(), procs=4)
    text = plan_to_json(plan)
    assert plan_from_json(text) == plan
    # canonical text is stable under a round trip too
    assert plan_to_json(plan_from_json(text)) == text


def test_plan_json_shape():
    doc = json.loads(plan_to_json(lower(double_outer(), procs=4)))
    assert set(doc) == {"procs", "out_shape", "loops", "body"}
    assert doc["procs"] == 4
    assert doc["out_shape"] == [2, 2, 3, 3, 2, 2]
    assert doc["loops"][0] == {"var": "p", "start": 0, "stop": 4, "stride": 1, "count": 4}
    write = doc["body"]["write"]
    assert write["buffer"] == "out"
    assert write["offset"]["terms"] == [
        {"var": "p", "coeff": 36},
        {"var": "q", "coeff": 4},
        {"var": "r", "coeff": 1},
    ]
    assert write["offset"]["const"] == 0


def test_loop_spec_invariants():
    with pytest.raises(PlanError):
        LoopSpec("p", 0, 4, 1, 5)
    with pytest.raises(PlanError):
        LoopSpec("p", 0, 4, 0, 4)
    with pytest.raises(PlanError):
        LoopSpec("p", 4, 0, 1, 0)


def test_loop_plan_invariants():
    loop = LoopSpec("p", 0, 4, 1, 4)
    write = FlatWrite("out", Affine((("p", 1),)))
    body = FlatRead("avec", Affine((("p", 1),)))
    with pytest.raises(PlanError):
        LoopPlan(1, (5,), (loop,), write, body)  # count mismatch
    with pytest.raises(PlanError):
        LoopPlan(3, (4,), (loop,), write, body)  # procs does not divide
    with pytest.raises(PlanError):
        LoopPlan(1, (4,), (), write, body)  # no loops
    with pytest.raises(PlanError):
        LoopPlan(1, (4,), (loop,), FlatWrite("res", Affine((("p", 1),))), body)
    with pytest.raises(PlanError):
        LoopPlan(1, (4,), (loop,), write, FlatRead("avec", Affine((("z", 1),))))


def test_execute_checks_offsets():
    loop = LoopSpec("p", 0, 4, 1, 4)
    plan = LoopPlan(
        1,
        (4,),
        (loop,),
        FlatWrite("out", Affine((("p", 1),))),
        FlatRead("avec", Affine((("p", 2),))),  # reads past a 4-element buffer
    )
    with pytest.raises(PlanError, match="read offset"):
        execute_plan(plan, {"avec": np.arange(4.0)})
    with pytest.raises(PlanError, match="unbound buffer"):
        execute_plan(plan, {})


def test_flatten_operands_binds_each_buffer_without_a_copy():
    # numpy arrays stop at 64 axes; the flat buffer binds an operand of any rank
    shape = (1,) * 70 + (2,)
    t = DenseArray(shape, [1.5, -2.0])
    buffers = flatten_operands({"T": t, "A": DenseArray((2,), [3.0, 4.0])})
    assert sorted(buffers) == ["avec", "tvec"]
    assert buffers["tvec"] is t._buffer and not buffers["tvec"].flags.writeable
    expr = TransposeG(tuple(range(70, -1, -1)), Leaf("T", shape))
    out = execute_plan(lower(expr, procs=1), buffers)
    assert out == materialize(expr, {"T": t})
    assert out.shape == shape[::-1] and out.data == (1.5, -2.0)


def test_flatten_operands_naming(mat2, mat3):
    buffers = flatten_operands({"A": mat2, "B": mat3})
    assert set(buffers) == {"avec", "bvec"}
    assert buffers["avec"].tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(LoweringError):
        flatten_operands({"A": mat2, "a": mat2})
