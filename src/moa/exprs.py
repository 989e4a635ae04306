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

Every node computes its shape and its depth once, at construction; a tree
deeper than MAX_NESTING calls is a ShapeError.

Evaluation works by rewriting indices downward instead of materializing
intermediates: psi_reduce turns (index, expression) into a ScalarReadPlan, a
tree whose leaves are LeafRead flat reads of the input buffers and whose
interior nodes are Combine scalar operations.  Evaluating that plan touches
exactly one element per Leaf read, no matter how deep the expression is.
materialize is the same rewrite applied to every index at once: the index
components are an open grid of int64 arrays (0 on an extent-1 axis), so each
LeafRead offset spans only its leaf's axes; each leaf occurrence is one gather.

The same read/op tree is the body of an ONF loop plan (see lowering): there a
LeafRead's offset is an Affine function of the loop variables rather than an
int, so the DNF and the ONF are one IR at two stages of binding.  leaves()
walks the leaf occurrences of either kind of tree from left to right, and
fold_plan is the one recursive walk of either kind: it evaluates with apply_op
(evaluate_plan, materialize, lowering.execute_plan), rebuilds with Combine
and writes JSON with op_to_obj.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Union

import numpy as np

from .arrays import DenseArray, counters
from .errors import EvaluationError, ShapeError
from .shapes import (
    MultiIndex,
    Shape,
    as_index,
    as_permutation,
    as_shape,
    check_bounds,
    concat,
    gradeup,
    pi,
    ravel_unchecked,
    select,
    unravel_unchecked,
)

if TYPE_CHECKING:
    from .lowering import Affine

OPS = ("mul", "add", "sub", "div")

# Calls may nest at most this deep, parsed or built through the API.  Every
# walk of a tree recurses a few frames per level (a kron costs four), so the
# limit keeps them all well inside Python's recursion limit.
MAX_NESTING = 100

_OP_FUNCS = dict(mul=operator.mul, add=operator.add, sub=operator.sub, div=operator.truediv)
_UFUNCS = dict(mul=np.multiply, add=np.add, sub=np.subtract, div=np.divide)


def apply_op(op: str, x, y, out=None):
    """x op y for floats (DNF reads) or elementwise for numpy arrays (ONF
    views); an ``out`` array receives the result, broadcast to its shape."""
    func = _OP_FUNCS.get(op)
    if func is None:
        raise EvaluationError(f"unknown scalar op: {op!r}")
    if op == "div" and (y == 0.0 if isinstance(y, float) else not y.all()):
        raise EvaluationError("division by zero")
    return func(x, y) if out is None else _UFUNCS[op](x, y, out=out)


class ExprNode:
    """Base class; every subclass is a frozen dataclass with a .shape and a
    .depth, the calls on its deepest path (a Leaf is depth 0)."""

    shape: Shape
    depth: int = 0


def _nest(node: ExprNode, *children: ExprNode) -> None:
    """Set node.depth to one more than its deepest child's; deeper than
    MAX_NESTING is a ShapeError."""
    depth = 1 + max(child.depth for child in children)
    if depth > MAX_NESTING:
        raise ShapeError(f"expression nests deeper than {MAX_NESTING} calls")
    object.__setattr__(node, "depth", depth)


def _at_child_depth(cls: type, **fields: Any) -> ExprNode:
    """A node of already valid fields that adds no level to its child's depth."""
    node = object.__new__(cls)
    for name, value in {**fields, "depth": fields["child"].depth}.items():
        object.__setattr__(node, name, value)
    return node


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
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ShapeError(f"outer op must be one of {OPS}, got {self.op!r}")
        object.__setattr__(self, "shape", concat(self.left.shape, self.right.shape))
        _nest(self, self.left, self.right)


@dataclass(frozen=True)
class TransposeG(ExprNode):
    perm: tuple[int, ...]
    child: ExprNode
    shape: Shape = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        perm = as_permutation(self.perm, len(self.child.shape))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "shape", select(self.child.shape, perm))
        _nest(self, self.child)


@dataclass(frozen=True)
class Reshape(ExprNode):
    shape: Shape
    child: ExprNode
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = as_shape(self.shape)
        if pi(shape) != pi(self.child.shape):
            raise ShapeError(
                f"reshape to {shape} changes element count: "
                f"{pi(self.child.shape)} -> {pi(shape)}"
            )
        object.__setattr__(self, "shape", shape)
        _nest(self, self.child)


@dataclass(frozen=True)
class Kron(ExprNode):
    left: ExprNode
    right: ExprNode
    shape: Shape = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.left.shape) != 2 or len(self.right.shape) != 2:
            raise ShapeError(
                "kron operands must be matrices, got shapes "
                f"{self.left.shape} and {self.right.shape}"
            )
        (m, n), (p, q) = self.left.shape, self.right.shape
        object.__setattr__(self, "shape", (m * p, n * q))
        _nest(self, self.left, self.right)

    @cached_property
    def desugared(self) -> Reshape:
        """The defining rewrite: block layout via a (0, 2, 1, 3) transpose.

        Outer(mul) of an m-by-n and a p-by-q matrix has shape
        (m, n, p, q); permuting to (m, p, n, q) groups row and column
        block digits so a row-major reshape to (m*p, n*q) lands every
        product at its Kronecker position.  The three nodes stand for this
        one call, so none is deeper than it.
        """
        (m, n), (p, q) = self.left.shape, self.right.shape
        outer = Outer("mul", self.left, self.right)
        blocked = _at_child_depth(TransposeG, perm=(0, 2, 1, 3), child=outer, shape=(m, p, n, q))
        return _at_child_depth(Reshape, shape=self.shape, child=blocked)


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
    transformation, and only Leaf emits an actual memory access.  The index is
    checked once: every rewrite maps an in-range index to an in-range index.
    """
    index = as_index(index)
    shape = expr.shape
    if len(index) != len(shape):
        raise ShapeError(
            f"index rank {len(index)} does not match expression rank {len(shape)}"
        )
    check_bounds(index, shape)
    return _psi(index, expr)


def _psi(index: tuple, expr: ExprNode) -> ScalarReadPlan:
    """Psi rewrite of an in-range index of ints or broadcasting int64 arrays."""
    if isinstance(expr, Leaf):
        return LeafRead(expr.name, ravel_unchecked(index, expr.shape))
    if isinstance(expr, Outer):
        split = len(expr.left.shape)
        return Combine(expr.op, _psi(index[:split], expr.left), _psi(index[split:], expr.right))
    if isinstance(expr, TransposeG):
        return _psi(select(index, gradeup(expr.perm)), expr.child)
    if isinstance(expr, Reshape):
        offset = ravel_unchecked(index, expr.shape)
        return _psi(unravel_unchecked(offset, expr.child.shape), expr.child)
    if isinstance(expr, Kron):
        return _psi(index, expr.desugared)
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


def fold_plan(plan: ScalarReadPlan, read: Callable, combine: Callable = apply_op) -> Any:
    """Fold a read/op tree: ``read`` maps each leaf read, and ``combine`` maps
    each op with its folded operands; apply_op evaluates them."""
    if isinstance(plan, LeafRead):
        return read(plan)
    left, right = fold_plan(plan.left, read, combine), fold_plan(plan.right, read, combine)
    return combine(plan.op, left, right)


def op_to_obj(op: str, left: Any, right: Any) -> dict:
    """The JSON object of one op node, for fold_plan over converted operands."""
    return {"op": op, "args": [left, right]}


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
    """Evaluate the whole expression: the psi rewrite of every index at once,
    over an open grid of int64 index arrays, with one counted gather per Leaf
    occurrence, combined by the same fold as a single element.  An output
    too large for memory is an EvaluationError that names its element count."""
    _check_env(expr, env)
    total = pi(expr.shape)
    if total == 0:  # no element is computed, so not even a zero divisor is read
        return DenseArray(expr.shape, [])

    def gather(leaf: LeafRead) -> Any:
        counters.scalar_reads += total
        return env[leaf.name]._buffer[leaf.offset]

    # extent-1 axes take the int 0, so no array outgrows numpy's 64 axes
    extents = [extent for extent in expr.shape if extent > 1]
    try:
        grid = iter(np.indices(extents, dtype=np.int64, sparse=True))
        index = tuple(next(grid) if extent > 1 else 0 for extent in expr.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # DenseArray rejects inf and nan
            values = fold_plan(_psi(index, expr), gather)
        return DenseArray(expr.shape, np.broadcast_to(values, extents))
    except MemoryError:
        raise EvaluationError(
            f"expression output of {total} elements does not fit in memory"
        ) from None
