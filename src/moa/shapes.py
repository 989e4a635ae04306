"""Shape vectors, row-major linearization, and index permutations.

A shape is a tuple of nonnegative ints, one extent per axis.  A multi-index
is a tuple of ints addressing one element, component i in [0, shape[i]).
Rank 0 (the empty tuple) is a scalar.  Zero extents are legal: such an array
has no elements but keeps its rank and the extents of its other axes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import BoundsError, DomainError, ShapeError, SizeError

Shape = tuple[int, ...]
MultiIndex = tuple[int, ...]
AxisPermutation = tuple[int, ...]

_MAX_ELEMENTS = 2**63 - 1


def as_shape(extents: Iterable[int]) -> Shape:
    """Validate and normalize a shape: ints, each >= 0."""
    shape = tuple(extents)
    for axis, extent in enumerate(shape):
        if not isinstance(extent, int) or isinstance(extent, bool):
            raise ShapeError(f"shape extent at axis {axis} is not an int: {extent!r}")
        if extent < 0:
            raise ShapeError(f"shape extent at axis {axis} is negative: {extent}")
    return shape


def as_index(components: Iterable[int]) -> MultiIndex:
    """Normalize an index to a tuple of ints (bounds checked elsewhere)."""
    index = tuple(components)
    for axis, component in enumerate(index):
        if not isinstance(component, int) or isinstance(component, bool):
            raise ShapeError(f"index component at axis {axis} is not an int: {component!r}")
    return index


def as_permutation(order: Iterable[int], rank: int) -> AxisPermutation:
    """Validate that ``order`` is a permutation of range(rank)."""
    perm = tuple(order)
    if len(perm) != rank:
        raise ShapeError(f"permutation has length {len(perm)}, expected rank {rank}")
    if sorted(perm) != list(range(rank)):
        raise ShapeError(f"not a permutation of 0..{rank - 1}: {perm}")
    return perm


def pi(shape: Sequence[int]) -> int:
    """Total element count of a shape.  pi(()) == 1.

    Raises SizeError (a ShapeError and an OverflowError) past 2**63 - 1 so
    downstream C-width arithmetic (flat offsets, loop bounds) can never wrap.
    """
    total = 1
    for extent in shape:
        total *= extent
        if total > _MAX_ELEMENTS:
            raise SizeError(f"element count exceeds {_MAX_ELEMENTS}: shape {tuple(shape)}")
    return total


def concat(left: Sequence[int], right: Sequence[int]) -> Shape:
    """Concatenate two shapes (or index vectors)."""
    return tuple(left) + tuple(right)


def row_major_strides(shape: Shape) -> tuple[int, ...]:
    """Strides in elements for row-major layout; rightmost axis is densest.

    Zero-extent axes get the same stride a one-extent axis would, which keeps
    strides monotone and ravel/unravel consistent on empty arrays.
    """
    strides = [0] * len(shape)
    acc = 1
    for axis in range(len(shape) - 1, -1, -1):
        strides[axis] = acc
        acc *= max(shape[axis], 1)
    return tuple(strides)


def check_bounds(index: Sequence[int], shape: Sequence[int]) -> None:
    """Each component in [0, extent) of its axis (of the prefix, if shorter)."""
    for axis, (component, extent) in enumerate(zip(index, shape)):
        if not 0 <= component < extent:
            raise BoundsError(
                f"index component {component} out of range [0, {extent}) at axis {axis}"
            )


def ravel_unchecked(index, shape: Sequence[int]):
    """Row-major Horner ravel of in-range ints or broadcasting int64 arrays."""
    offset = 0
    for component, extent in zip(index, shape):
        offset = offset * extent + component
    return offset


def unravel_unchecked(offset, shape: Sequence[int]) -> tuple:
    """Inverse of ravel_unchecked for an in-range int or int64 array offset."""
    components = [0] * len(shape)
    for axis in range(len(shape) - 1, -1, -1):
        offset, components[axis] = divmod(offset, shape[axis])
    return tuple(components)


def ravel_rowmajor(index: Sequence[int], shape: Shape) -> int:
    """Flat row-major offset of a full multi-index.

    Every component is bounds checked; the error names the offending axis.
    """
    index = as_index(index)
    if len(index) != len(shape):
        raise ShapeError(f"index rank {len(index)} does not match shape rank {len(shape)}")
    check_bounds(index, shape)
    return ravel_unchecked(index, shape)


def unravel_rowmajor(offset: int, shape: Shape) -> MultiIndex:
    """Inverse of ravel_rowmajor.  Requires 0 <= offset < pi(shape)."""
    total = pi(shape)
    if not 0 <= offset < total:
        raise BoundsError(f"flat offset {offset} out of range [0, {total})")
    return unravel_unchecked(offset, shape)


def gradeup(values: Sequence[int]) -> AxisPermutation:
    """Stable ascending sort permutation of ``values``.

    Each entry must lie in [0, len(values)).  Ties keep their original
    left-to-right order.  When ``values`` is itself a permutation, gradeup
    returns its inverse: values[gradeup(values)] is the identity.
    """
    vec = tuple(values)
    n = len(vec)
    for pos, value in enumerate(vec):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"gradeup entry at position {pos} is not an int: {value!r}")
        if not 0 <= value < n:
            raise DomainError(f"gradeup entry {value} at position {pos} outside [0, {n})")
    return tuple(sorted(range(n), key=vec.__getitem__))


def select(values: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Gather: tuple(values[k] for k in order), bounds checked."""
    vec = tuple(values)
    picked = []
    for pos, k in enumerate(order):
        if not 0 <= k < len(vec):
            raise BoundsError(f"selection index {k} at position {pos} outside [0, {len(vec)})")
        picked.append(vec[k])
    return tuple(picked)
