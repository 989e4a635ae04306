"""Kronecker products as structured expressions.

The Kronecker product of an m-by-n matrix A and a p-by-q matrix B is the
(m*p)-by-(n*q) matrix whose entry at row i*p + l, column j*q + m is
A[i, j] * B[l, m].  Rather than materializing it, every entry is reachable
by decomposing its row and column into those mixed-radix digits, which is
exactly what the Reshape/TransposeG/Outer desugaring does via index
rewriting.  Chains of Kronecker products therefore evaluate with one read
per factor per element and no intermediate buffers: one scalar per factor
for a single entry, one gather per factor for the whole product.
"""

from __future__ import annotations

from collections.abc import Sequence

from .arrays import DenseArray
from .errors import BoundsError, ShapeError
from .exprs import ExprNode, Kron, Reshape
from .shapes import MultiIndex, as_index


def kron_desugar(left: ExprNode, right: ExprNode) -> Reshape:
    """The defining rewrite of Kron into Reshape(TransposeG(Outer))."""
    return Kron(left, right).desugared


def kron_entry(index: Sequence[int], a: DenseArray, b: DenseArray) -> float:
    """Direct entry of kron(a, b) via composite row/column digits.

    Independent of the expression machinery: splits row R into (i, l) with
    R = i*p + l and column C into (j, m) with C = j*q + m, then multiplies
    a[i, j] by b[l, m].  Used as a cross-check oracle for the desugared
    route.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"kron_entry needs matrices, got ranks {a.ndim} and {b.ndim}")
    index = as_index(index)
    if len(index) != 2:
        raise ShapeError(f"kron_entry needs a rank-2 index, got rank {len(index)}")
    (ar, ac), (br, bc) = a.shape, b.shape
    row, col = index
    if not 0 <= row < ar * br:
        raise BoundsError(f"row {row} out of range [0, {ar * br})")
    if not 0 <= col < ac * bc:
        raise BoundsError(f"column {col} out of range [0, {ac * bc})")
    i, l = divmod(row, br)
    j, m = divmod(col, bc)
    return a.read_flat(i * ac + j) * b.read_flat(l * bc + m)


def multi_kron(factors: Sequence[ExprNode]) -> ExprNode:
    """Left-fold a chain of two or more matrix expressions into nested Kron.

    multi_kron([A, B, C]) is Kron(Kron(A, B), C).  The result is a single
    expression DAG; no factor is ever materialized by building it.
    """
    if len(factors) < 2:
        raise ValueError(f"multi_kron needs at least 2 factors, got {len(factors)}")
    expr = factors[0]
    for factor in factors[1:]:
        expr = Kron(expr, factor)
    return expr
