"""Expression IR over named array leaves, and its index-rewriting evaluator.

Nodes
-----
Leaf(name, shape)          a named input array
Outer(op, left, right)     generalized outer product; shape is the
                           concatenation shape(left) ++ shape(right), and
                           element (i ++ j) is  left[i] op right[j]
TransposeG(perm, child)    axis permutation of the child
Reshape(shape, child)      row-major relabeling, same element count
Kron(left, right)          matrix Kronecker product; structurally sugar for
                           Reshape over a (0, 2, 1, 3) transpose of a
                           multiplicative Outer

Every node computes its shape once, at construction.

Evaluation works by rewriting indices downward instead of materializing
intermediates: psi_reduce turns (index, expression) into a ScalarReadPlan, a
tree whose leaves are LeafRead flat reads of the input buffers and whose
interior nodes are Combine scalar operations.  Evaluating that plan touches
exactly one element per Leaf read, no matter how deep the expression is.

The same read/op tree is the body of an ONF loop plan (see lowering): there a
LeafRead's offset is an Affine function of the loop variables rather than an
int, so the DNF and the ONF are one IR at two stages of binding.  leaves()
walks the leaf occurrences of either kind of tree from left to right, and
fold_plan evaluates either kind: evaluate_plan folds counted scalar reads,
lowering.execute_plan folds strided array views.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Union

from .arrays import DenseArray
from .errors import EvaluationError, ShapeError
from .shapes import (
    MultiIndex,
    Shape,
    as_index,
    as_permutation,
    as_shape,
    concat,
    gradeup,
    pi,
    ravel_rowmajor,
    select,
    unravel_rowmajor,
)

if TYPE_CHECKING:
    from .lowering import Affine

OPS = ("mul", "add", "sub", "div")

_OP_FUNCS = dict(mul=operator.mul, add=operator.add, sub=operator.sub, div=operator.truediv)


def apply_op(op: str, x, y):
    """x op y for floats (DNF reads) or elementwise for numpy arrays (ONF views)."""
    func = _OP_FUNCS.get(op)
    if func is None:
        raise EvaluationError(f"unknown scalar op: {op!r}")
    if op == "div" and (y == 0.0 if isinstance(y, float) else not y.all()):
        raise EvaluationError("division by zero")
    return func(x, y)


class ExprNode:
    """Base class; every subclass is a frozen dataclass with a .shape."""

    shape: Shape


@dataclass(frozen=True)
class Leaf(ExprNode):
    name: str
    shape: Shape

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ShapeError(f"leaf name must be an identifier: {self.name!r}")
        object.__setattr__(self, "shape", as_shape(self.shape))


@dataclass(frozen=True)
class Outer(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode
    shape: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ShapeError(f"outer op must be one of {OPS}, got {self.op!r}")
        object.__setattr__(self, "shape", concat(self.left.shape, self.right.shape))


@dataclass(frozen=True)
class TransposeG(ExprNode):
    perm: tuple[int, ...]
    child: ExprNode
    shape: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        perm = as_permutation(self.perm, len(self.child.shape))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "shape", select(self.child.shape, perm))


@dataclass(frozen=True)
class Reshape(ExprNode):
    shape: Shape
    child: ExprNode

    def __post_init__(self) -> None:
        shape = as_shape(self.shape)
        if pi(shape) != pi(self.child.shape):
            raise ShapeError(
                f"reshape to {shape} changes element count: "
                f"{pi(self.child.shape)} -> {pi(shape)}"
            )
        object.__setattr__(self, "shape", shape)


@dataclass(frozen=True)
class Kron(ExprNode):
    left: ExprNode
    right: ExprNode
    shape: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.left.shape) != 2 or len(self.right.shape) != 2:
            raise ShapeError(
                "kron operands must be matrices, got shapes "
                f"{self.left.shape} and {self.right.shape}"
            )
        (m, n), (p, q) = self.left.shape, self.right.shape
        object.__setattr__(self, "shape", (m * p, n * q))

    @cached_property
    def desugared(self) -> Reshape:
        """The defining rewrite: block layout via a (0, 2, 1, 3) transpose.

        Outer(mul) of an m-by-n and a p-by-q matrix has shape
        (m, n, p, q); permuting to (m, p, n, q) groups row and column
        block digits so a row-major reshape to (m*p, n*q) lands every
        product at its Kronecker position.
        """
        return Reshape(
            self.shape, TransposeG((0, 2, 1, 3), Outer("mul", self.left, self.right))
        )


def infer_shape(expr: ExprNode) -> Shape:
    """Shape of the expression's value.  Validation happened at build time."""
    return expr.shape


# --- scalar read plans -------------------------------------------------------

@dataclass(frozen=True)
class LeafRead:
    """Read one element of a named buffer at a flat row-major offset.

    In a DNF read plan the offset is an int; in an ONF loop body it is an
    Affine over the loop variables and the name is a buffer such as avec.
    """

    name: str
    offset: int | Affine


@dataclass(frozen=True)
class Combine:
    """Apply a scalar op to two sub-plans."""

    op: str
    left: "ScalarReadPlan"
    right: "ScalarReadPlan"


ScalarReadPlan = Union[LeafRead, Combine]


def psi_reduce(index: MultiIndex, expr: ExprNode) -> ScalarReadPlan:
    """Rewrite a full index against ``expr`` down to leaf reads.

    This is the normalization step: each structural node becomes an index
    transformation, and only Leaf emits an actual memory access.
    """
    index = as_index(index)
    shape = expr.shape
    if len(index) != len(shape):
        raise ShapeError(
            f"index rank {len(index)} does not match expression rank {len(shape)}"
        )

    if isinstance(expr, Leaf):
        return LeafRead(expr.name, ravel_rowmajor(index, shape))

    if isinstance(expr, Outer):
        split = len(expr.left.shape)
        return Combine(
            expr.op,
            psi_reduce(index[:split], expr.left),
            psi_reduce(index[split:], expr.right),
        )

    if isinstance(expr, TransposeG):
        return psi_reduce(select(index, gradeup(expr.perm)), expr.child)

    if isinstance(expr, Reshape):
        offset = ravel_rowmajor(index, shape)
        return psi_reduce(unravel_rowmajor(offset, expr.child.shape), expr.child)

    if isinstance(expr, Kron):
        return psi_reduce(index, expr.desugared)

    raise ShapeError(f"unknown expression node: {type(expr).__name__}")


def leaves(tree: ExprNode | ScalarReadPlan) -> Iterator[Leaf | LeafRead]:
    """Leaf occurrences from left to right: the Leaf nodes of an expression
    or the LeafRead nodes of a read plan.  Iterative, so depth costs no stack."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (Outer, Kron, Combine)):
            stack += (node.right, node.left)
        elif isinstance(node, (TransposeG, Reshape)):
            stack.append(node.child)
        elif isinstance(node, (Leaf, LeafRead)):
            yield node


def _check_env(expr: ExprNode, env: dict[str, DenseArray]) -> None:
    """Every leaf must be bound, and bound to its declared shape."""
    for leaf in leaves(expr):
        bound = env.get(leaf.name)
        if bound is None:
            raise EvaluationError(f"unbound leaf: {leaf.name!r}")
        if bound.shape != leaf.shape:
            raise EvaluationError(
                f"leaf {leaf.name!r} declared shape {leaf.shape}, "
                f"bound array has shape {bound.shape}"
            )


def fold_plan(plan: ScalarReadPlan, read: Callable[[LeafRead], Any]) -> Any:
    """Evaluate a read/op tree: ``read`` gives each leaf's value, and apply_op
    combines values, so one fold serves scalar reads and array views alike."""
    if isinstance(plan, LeafRead):
        return read(plan)
    return apply_op(plan.op, fold_plan(plan.left, read), fold_plan(plan.right, read))


def evaluate_plan(plan: ScalarReadPlan, env: dict[str, DenseArray]) -> float:
    """Run a scalar read plan against bound buffers."""

    def read(leaf: LeafRead) -> float:
        if leaf.name not in env:
            raise EvaluationError(f"unbound leaf: {leaf.name!r}")
        return env[leaf.name].read_flat(leaf.offset)

    return fold_plan(plan, read)


def eval_element(
    expr: ExprNode, index: MultiIndex, env: dict[str, DenseArray]
) -> float:
    """One element of the expression's value, without materializing anything.

    Reads exactly one input scalar per Leaf occurrence in the expression.
    """
    _check_env(expr, env)
    return evaluate_plan(psi_reduce(index, expr), env)


def materialize(expr: ExprNode, env: dict[str, DenseArray]) -> DenseArray:
    """Evaluate the whole expression element by element."""
    _check_env(expr, env)
    shape = expr.shape
    total = pi(shape)
    values = [0.0] * total
    for offset in range(total):
        index = unravel_rowmajor(offset, shape)
        values[offset] = evaluate_plan(psi_reduce(index, expr), env)
    return DenseArray(shape, values)
