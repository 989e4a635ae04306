from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from moa import (
    Combine,
    DenseArray,
    EvaluationError,
    Kron,
    Leaf,
    LeafRead,
    Outer,
    Reshape,
    ShapeError,
    TransposeG,
    apply_op,
    eval_element,
    infer_shape,
    materialize,
    psi,
    psi_reduce,
    transpose_general,
)


def leaf_a():
    return Leaf("A", (2, 2))


def leaf_b():
    return Leaf("B", (3, 3))


def test_node_validation():
    with pytest.raises(ShapeError):
        Outer("pow", leaf_a(), leaf_b())
    with pytest.raises(ShapeError):
        TransposeG((0, 2), leaf_a())
    with pytest.raises(ShapeError):
        Reshape((3,), leaf_a())
    with pytest.raises(ShapeError):
        Kron(leaf_a(), Leaf("V", (3,)))
    with pytest.raises(ShapeError):
        Leaf("not an identifier", (2,))


def test_shape_inference():
    assert infer_shape(Outer("mul", leaf_a(), leaf_b())) == (2, 2, 3, 3)
    assert infer_shape(TransposeG((1, 0), Leaf("C", (2, 3)))) == (3, 2)
    assert infer_shape(Reshape((4,), leaf_a())) == (4,)
    assert infer_shape(Kron(leaf_a(), leaf_b())) == (6, 6)
    assert infer_shape(Leaf("S", ())) == ()


def test_kron_desugars_to_blocked_outer():
    node = Kron(leaf_a(), leaf_b()).desugared
    assert isinstance(node, Reshape)
    assert node.shape == (6, 6)
    inner = node.child
    assert isinstance(inner, TransposeG)
    assert inner.perm == (0, 2, 1, 3)
    assert isinstance(inner.child, Outer)
    assert inner.child.op == "mul"


def test_psi_reduce_outer_splits_index():
    plan = psi_reduce((1, 0, 2, 1), Outer("mul", leaf_a(), leaf_b()))
    assert plan == Combine("mul", LeafRead("A", 2), LeafRead("B", 7))


def test_psi_reduce_transpose_rewrites_index():
    expr = TransposeG((1, 0), Leaf("C", (2, 3)))
    # element (j, i) of the transpose reads element (i, j) of C
    assert psi_reduce((2, 1), expr) == LeafRead("C", 1 * 3 + 2)


def test_psi_reduce_reshape_relabels():
    expr = Reshape((4,), leaf_a())
    assert [psi_reduce((k,), expr) for k in range(4)] == [
        LeafRead("A", 0),
        LeafRead("A", 1),
        LeafRead("A", 2),
        LeafRead("A", 3),
    ]


def test_psi_reduce_checks_rank_and_bounds():
    with pytest.raises(ShapeError):
        psi_reduce((0,), leaf_a())
    with pytest.raises(Exception):
        psi_reduce((2, 0), leaf_a())


def test_eval_element_matches_materialize(mat2, mat3):
    expr = Outer("add", Leaf("A", (2, 2)), Leaf("B", (3, 3)))
    env = {"A": mat2, "B": mat3}
    full = materialize(expr, env)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    direct = eval_element(expr, (i, j, k, l), env)
                    assert direct == psi((i, j, k, l), full)


def test_outer_value_semantics(mat2, mat3):
    expr = Outer("mul", Leaf("A", (2, 2)), Leaf("B", (3, 3)))
    out = materialize(expr, {"A": mat2, "B": mat3})
    expected = np.multiply.outer(mat2.to_numpy(), mat3.to_numpy())
    assert np.array_equal(out.to_numpy(), expected)


def test_unbound_and_mismatched_leaves(mat2):
    expr = Outer("mul", Leaf("A", (2, 2)), Leaf("B", (3, 3)))
    with pytest.raises(EvaluationError, match="unbound"):
        eval_element(expr, (0, 0, 0, 0), {"A": mat2})
    with pytest.raises(EvaluationError, match="shape"):
        eval_element(expr, (0, 0, 0, 0), {"A": mat2, "B": mat2})


def test_division_by_zero(mat2):
    zero = DenseArray((2, 2), [1.0, 0.0, 1.0, 1.0])
    expr = Outer("div", Leaf("A", (2, 2)), Leaf("Z", (2, 2)))
    env = {"A": mat2, "Z": zero}
    assert eval_element(expr, (0, 0, 0, 0), env) == 1.0
    with pytest.raises(EvaluationError, match="zero"):
        eval_element(expr, (0, 0, 0, 1), env)


def test_apply_op():
    assert apply_op("mul", 3.0, 4.0) == 12.0
    assert apply_op("add", 3.0, 4.0) == 7.0
    assert apply_op("sub", 3.0, 4.0) == -1.0
    assert apply_op("div", 8.0, 4.0) == 2.0
    with pytest.raises(EvaluationError):
        apply_op("pow", 2.0, 3.0)


def test_materialize_scalar():
    scalar = DenseArray((), [6.0])
    out = materialize(Leaf("S", ()), {"S": scalar})
    assert out.shape == ()
    assert out.data == (6.0,)


def test_materialize_of_an_outer_chain_peaks_under_four_outputs():
    # the open index grid keeps each leaf's offsets to the axes it reads, so
    # only the combined values and the result span the whole output; at
    # 147,456 elements numpy's fixed ufunc buffer is a small part of the peak
    rng = np.random.default_rng(0)
    env = {
        "A": DenseArray.from_numpy(rng.standard_normal((4, 4))),
        "B": DenseArray.from_numpy(rng.standard_normal((24, 24))),
    }
    a, b = Leaf("A", (4, 4)), Leaf("B", (24, 24))
    tracemalloc.start()
    try:
        out = materialize(Outer("mul", Outer("mul", a, b), a), env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.size * 8


def test_materialize_beyond_numpy_rank_limit():
    # numpy arrays stop at rank 64; DenseArray keeps a flat buffer of any rank
    env = {"A": DenseArray((1,), [1.5]), "B": DenseArray((1,), [-2.0])}
    expr, value = Leaf("A", (1,)), 1.5
    for k in range(1, 71):
        op, name = ("mul" if k % 3 else "add"), ("B" if k % 2 else "A")
        expr = Outer(op, expr, Leaf(name, (1,)))
        value = apply_op(op, value, env[name].data[0])
    out = materialize(expr, env)
    assert out.shape == (1,) * 71
    assert out.data == (value,)
    assert eval_element(expr, (0,) * 71, env) == value


def test_transpose_general_beyond_numpy_rank_limit():
    shape = (2,) + (1,) * 63 + (3,)
    out = transpose_general(tuple(range(64, -1, -1)), DenseArray(shape, range(6)))
    assert out.shape == shape[::-1]
    assert out.data == (0.0, 3.0, 1.0, 4.0, 2.0, 5.0)
