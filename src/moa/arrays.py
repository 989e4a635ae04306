"""Dense row-major arrays over float64 and the psi indexing operator.

DenseArray is immutable: the buffer is a read-only 1-D numpy array.  Data
passed in through public constructors is copied and validated; data handed
out (to_numpy, psi sub-arrays) is copied too, so callers can never alias the
internal buffer.

Module-level counters record every flat scalar read and every buffer
allocation, so tests can prove that an evaluation touched exactly the
elements it claims to and materialized nothing.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import BoundsError, DomainError, ShapeError
from .shapes import (
    MultiIndex,
    Shape,
    as_index,
    as_shape,
    pi,
    ravel_rowmajor,
)


@dataclass
class OpCounters:
    """Mutable tally of buffer traffic."""

    scalar_reads: int = 0
    array_allocations: int = 0

    def reset(self) -> None:
        self.scalar_reads = 0
        self.array_allocations = 0


counters = OpCounters()


class DenseArray:
    """Immutable dense array: a shape plus a row-major float64 buffer."""

    __slots__ = ("_shape", "_buffer")

    def __init__(self, shape: Iterable[int], data: Sequence[float] | np.ndarray):
        shape = as_shape(shape)
        buffer = np.array(data, dtype=np.float64).reshape(-1)
        if buffer.size != pi(shape):
            raise ShapeError(
                f"data has {buffer.size} elements, shape {shape} needs {pi(shape)}"
            )
        if buffer.size and not np.all(np.isfinite(buffer)):
            raise DomainError("array elements must be finite")
        buffer.setflags(write=False)
        self._shape = shape
        self._buffer = buffer
        counters.array_allocations += 1

    @classmethod
    def _from_buffer(cls, shape: Shape, buffer: np.ndarray) -> "DenseArray":
        """Internal constructor that adopts ``buffer`` without copying.

        Callers must hand over a read-only float64 1-D array they will not
        mutate.  Does not count as an allocation: no new storage exists.
        """
        self = object.__new__(cls)
        self._shape = shape
        self._buffer = buffer
        return self

    @property
    def shape(self) -> Shape:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def size(self) -> int:
        return self._buffer.size

    @property
    def data(self) -> tuple[float, ...]:
        """Row-major element tuple (a copy, like every public view)."""
        return tuple(self._buffer.tolist())

    def read_flat(self, offset: int) -> float:
        """One scalar at a flat row-major offset.  Counted."""
        if not 0 <= offset < self._buffer.size:
            raise BoundsError(f"flat offset {offset} out of range [0, {self._buffer.size})")
        counters.scalar_reads += 1
        return float(self._buffer[offset])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseArray):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._buffer, other._buffer)

    __hash__ = None  # mutable-adjacent semantics: keep out of sets and dict keys

    def __repr__(self) -> str:
        preview = ", ".join(f"{x:g}" for x in self._buffer[:8])
        if self._buffer.size > 8:
            preview += ", ..."
        return f"DenseArray(shape={self._shape}, data=[{preview}])"

    @classmethod
    def from_nested(cls, nested: Any) -> "DenseArray":
        """Build from nested lists (or a scalar), numpy-style."""
        arr = np.array(nested, dtype=np.float64)
        return cls(arr.shape, arr.reshape(-1))

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "DenseArray":
        return cls(arr.shape, np.ascontiguousarray(arr, dtype=np.float64).reshape(-1))

    def to_numpy(self) -> np.ndarray:
        """Writable ndarray copy with this array's shape."""
        return self._buffer.copy().reshape(self._shape)

    @classmethod
    def from_json(cls, text: str) -> "DenseArray":
        """Parse {"shape": [...], "data": [...]} with row-major data."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShapeError(f"invalid array JSON: {exc}") from exc
        if not isinstance(doc, dict) or "shape" not in doc or "data" not in doc:
            raise ShapeError('array JSON must be an object with "shape" and "data"')
        shape = doc["shape"]
        data = doc["data"]
        if not isinstance(shape, list) or not isinstance(data, list):
            raise ShapeError('"shape" and "data" must both be JSON arrays')
        return cls(as_shape(shape), data)

    def to_json(self) -> str:
        shape = list(self._shape)
        data = [float(x) for x in self._buffer]
        return json.dumps({"shape": shape, "data": data})


def psi(index: Sequence[int], array: DenseArray) -> float | DenseArray:
    """The indexing operator.

    A full index (rank components) selects one element and returns a float.
    A shorter index selects the contiguous row-major sub-array it prefixes
    and returns it as a new DenseArray whose shape is the remaining axes.
    The empty index returns a copy of the whole array.
    """
    index = as_index(index)
    shape = array.shape
    if len(index) > len(shape):
        raise ShapeError(f"index rank {len(index)} exceeds array rank {len(shape)}")
    for axis, (component, extent) in enumerate(zip(index, shape)):
        if not 0 <= component < extent:
            raise BoundsError(
                f"index component {component} out of range [0, {extent}) at axis {axis}"
            )
    rest = shape[len(index) :]
    block = pi(rest)
    start = 0
    for component, extent in zip(index, shape):
        start = start * extent + component
    start *= block
    if len(index) == len(shape):
        return array.read_flat(start)
    sub = array._buffer[start : start + block].copy()
    sub.setflags(write=False)
    out = DenseArray._from_buffer(rest, sub)
    counters.array_allocations += 1
    return out


def element(index: Sequence[int], array: DenseArray) -> float:
    """Full indexing only; rejects partial indices."""
    index = as_index(index)
    if len(index) != array.ndim:
        raise ShapeError(f"need a full rank-{array.ndim} index, got rank {len(index)}")
    return array.read_flat(ravel_rowmajor(index, array.shape))


def flatten(array: DenseArray) -> DenseArray:
    """Rank-1 view of the elements in row-major order (shared buffer)."""
    return DenseArray._from_buffer((array.size,), array._buffer)


def reshape(shape: Iterable[int], array: DenseArray) -> DenseArray:
    """Same elements, new shape of identical element count (shared buffer)."""
    shape = as_shape(shape)
    if pi(shape) != array.size:
        raise ShapeError(
            f"cannot reshape {array.size} elements to shape {shape} ({pi(shape)} elements)"
        )
    return DenseArray._from_buffer(shape, array._buffer)
