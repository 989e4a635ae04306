"""Property tests: random well-shaped expression trees agree on every route.

Each drawn tree is evaluated by index rewriting (materialize, eval_element),
by the numpy stepwise oracle, and by lowering to a loop plan and executing
it.  Division by zero must be reported the same way by the DNF and the ONF
route, and no route may raise anything but a MoaError.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moa import (
    DenseArray,
    EvaluationError,
    Kron,
    Leaf,
    LoweringError,
    Outer,
    Reshape,
    TransposeG,
    eval_element,
    execute_plan,
    flatten_operands,
    lower,
    materialize,
    materialize_stepwise,
    parse,
    pi,
    plan_from_json,
    plan_to_json,
    unravel_rowmajor,
)

MAX_ELEMENTS = 256
MAX_DEPTH = 4
LEAF_NAMES = ("A", "B", "C")

extents = st.integers(1, 3)


@st.composite
def leaf_shapes(draw) -> dict[str, tuple[int, ...]]:
    """A always binds a matrix, so every kron has an operand to fall back on."""
    shapes = {"A": tuple(draw(st.lists(extents, min_size=2, max_size=2)))}
    for name in LEAF_NAMES[1:]:
        shapes[name] = tuple(draw(st.lists(extents, min_size=0, max_size=3)))
    return shapes


@st.composite
def factorizations(draw, n: int) -> tuple[int, ...]:
    """A random shape with ``n`` elements, unit extents included."""
    dims: list[int] = []
    remaining = n
    while remaining > 1:
        divisor = draw(st.sampled_from([d for d in range(2, remaining + 1) if remaining % d == 0]))
        dims.append(divisor)
        remaining //= divisor
    dims += [1] * draw(st.integers(0, 1))
    return tuple(draw(st.permutations(dims)))


@st.composite
def trees(draw, shapes: dict[str, tuple[int, ...]], depth: int):
    kinds = ["leaf"] if depth == 0 else ["leaf", "outer", "outer", "transpose", "reshape", "kron"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        name = draw(st.sampled_from(LEAF_NAMES))
        return Leaf(name, shapes[name])
    left = draw(trees(shapes, depth - 1))
    if kind == "transpose":
        return TransposeG(tuple(draw(st.permutations(range(len(left.shape))))), left)
    if kind == "reshape":
        return Reshape(draw(factorizations(pi(left.shape))), left)
    right = draw(trees(shapes, depth - 1))
    if pi(left.shape) * pi(right.shape) > MAX_ELEMENTS:
        return left
    if kind == "outer":
        return Outer(draw(st.sampled_from(["mul", "add", "sub", "div"])), left, right)
    matrix = Leaf("A", shapes["A"])
    left = left if len(left.shape) == 2 else matrix
    right = right if len(right.shape) == 2 else matrix
    if pi(left.shape) * pi(right.shape) > MAX_ELEMENTS:
        return left
    return Kron(left, right)


@st.composite
def cases(draw):
    shapes = draw(leaf_shapes())
    expr = draw(trees(shapes, MAX_DEPTH))
    values = st.integers(-3, 5) if draw(st.booleans()) else st.integers(1, 5)
    env = {
        name: DenseArray(shape, draw(st.lists(values, min_size=pi(shape), max_size=pi(shape))))
        for name, shape in shapes.items()
    }
    return expr, env


def to_text(expr) -> str:
    if isinstance(expr, Leaf):
        return expr.name
    if isinstance(expr, Outer):
        return f"outer({expr.op}, {to_text(expr.left)}, {to_text(expr.right)})"
    if isinstance(expr, Kron):
        return f"kron({to_text(expr.left)}, {to_text(expr.right)})"
    if isinstance(expr, TransposeG):
        return f"transpose({list(expr.perm)}, {to_text(expr.child)})"
    return f"reshape({list(expr.shape)}, {to_text(expr.child)})"


def has_reshape(expr) -> bool:
    if isinstance(expr, Reshape):
        return True
    if isinstance(expr, Leaf):
        return False
    if isinstance(expr, TransposeG):
        return has_reshape(expr.child)
    return has_reshape(expr.left) or has_reshape(expr.right)


def is_div_by_zero(exc: EvaluationError) -> bool:
    return "division by zero" in str(exc)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(cases())
def test_all_routes_agree(case):
    expr, env = case
    assert pi(expr.shape) <= MAX_ELEMENTS
    assert parse(to_text(expr), {n: a.shape for n, a in env.items()}) == expr

    with np.errstate(divide="ignore", invalid="ignore"):
        expected = materialize_stepwise(expr, env).reshape(-1)
    try:
        dnf = materialize(expr, env)
        dnf_div_zero = False
    except EvaluationError as exc:
        assert is_div_by_zero(exc), exc
        dnf_div_zero = True
    if not dnf_div_zero:
        assert dnf.shape == expr.shape
        assert np.array_equal(dnf.to_numpy().reshape(-1), expected)

    for offset in {0, pi(expr.shape) // 2, pi(expr.shape) - 1}:
        index = unravel_rowmajor(offset, expr.shape)
        try:
            value = eval_element(expr, index, env)
        except EvaluationError as exc:
            assert dnf_div_zero and is_div_by_zero(exc), exc
        else:
            assert value == expected[offset]

    try:
        plan = lower(expr, procs=1)
    except LoweringError:
        assert has_reshape(expr), expr
        return
    assert plan_from_json(plan_to_json(plan)) == plan
    buffers = flatten_operands(env)
    for procs in (1, plan.loops[0].count):
        try:
            onf = execute_plan(lower(expr, procs=procs), buffers)
        except EvaluationError as exc:
            assert dnf_div_zero and is_div_by_zero(exc), exc
        else:
            assert not dnf_div_zero
            assert np.array_equal(onf.to_numpy().reshape(-1), expected)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cases())
def test_parallel_run_is_bit_identical_to_sequential(case):
    expr, env = case
    try:
        plan = lower(expr, procs=1)
    except LoweringError:
        return
    buffers = flatten_operands(env)
    outer = plan.loops[0].count
    for procs in [d for d in range(1, outer + 1) if outer % d == 0]:
        split = lower(expr, procs=procs)
        runs = []
        for parallel in (False, True):
            try:
                runs.append(execute_plan(split, buffers, parallel=parallel).to_numpy().tobytes())
            except EvaluationError as exc:
                assert is_div_by_zero(exc), exc
                runs.append("division by zero")
        assert runs[0] == runs[1]
