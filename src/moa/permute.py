"""General transpose: permute axes of a dense array.

The transpose of A by permutation t has shape select(shape(A), t), and the
element at index i is the element of A at index select(i, gradeup(t)).  The
matrix transpose is the rank-2 special case t = (1, 0).
"""

from __future__ import annotations

from collections.abc import Sequence

from .arrays import DenseArray
from .errors import ShapeError
from .exprs import Leaf, TransposeG, materialize


def transpose_general(order: Sequence[int], array: DenseArray) -> DenseArray:
    """Eagerly materialize the axis permutation of ``array``.

    This is materialize of a TransposeG node: the psi rewrite pulls every
    output index through the inverse permutation at once, so it doubles as an
    executable statement of the definition.
    """
    return materialize(TransposeG(tuple(order), Leaf("a", array.shape)), {"a": array})


def transpose_matrix(array: DenseArray) -> DenseArray:
    """Rank-2 transpose."""
    if array.ndim != 2:
        raise ShapeError(f"matrix transpose needs rank 2, got rank {array.ndim}")
    return transpose_general((1, 0), array)
