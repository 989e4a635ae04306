from __future__ import annotations

import numpy as np
import pytest

from moa import (
    BoundsError,
    DenseArray,
    DomainError,
    ShapeError,
    counters,
    flatten,
    psi,
    reshape,
)
from moa.arrays import element
from moa.cli import main


def test_construction_copies_input():
    source = np.array([1.0, 2.0, 3.0, 4.0])
    arr = DenseArray((2, 2), source)
    source[0] = 99.0
    assert arr.data == (1.0, 2.0, 3.0, 4.0)


def test_to_numpy_is_a_copy():
    arr = DenseArray((2, 2), [1.0, 2.0, 3.0, 4.0])
    out = arr.to_numpy()
    out[0, 0] = 99.0
    assert arr.data == (1.0, 2.0, 3.0, 4.0)


def test_data_count_must_match_shape():
    with pytest.raises(ShapeError):
        DenseArray((2, 2), [1.0, 2.0, 3.0])


def test_elements_must_be_finite():
    with pytest.raises(DomainError):
        DenseArray((2,), [1.0, float("nan")])
    with pytest.raises(DomainError):
        DenseArray((2,), [1.0, float("inf")])


def test_empty_array_is_legal():
    arr = DenseArray((2, 0, 3), [])
    assert arr.shape == (2, 0, 3)
    assert arr.size == 0
    assert arr.data == ()


def test_scalar_rank0():
    arr = DenseArray((), [7.5])
    assert arr.ndim == 0
    # the empty index is a full index for a scalar, so it yields the element
    assert psi((), arr) == 7.5


def test_from_nested():
    arr = DenseArray.from_nested([[1, 2, 3], [4, 5, 6]])
    assert arr.shape == (2, 3)
    assert arr.data == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_json_roundtrip():
    arr = DenseArray((2, 2), [1.5, 2.0, 3.0, 4.0])
    again = DenseArray.from_json(arr.to_json())
    assert again == arr


def test_to_json_round_trips_exactly_and_prints_as_eval_does(tmp_path, capsys):
    arr = DenseArray((2, 2), [-0.0, 5e-324, 0.1, 1e308])
    again = DenseArray.from_json(arr.to_json())
    assert again.to_numpy().tobytes() == arr.to_numpy().tobytes()
    path = tmp_path / "a.json"
    path.write_text(arr.to_json())
    assert main(["eval", "--expr", "A", "--array", f"A={path}"]) == 0
    assert capsys.readouterr().out == arr.to_json() + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"shape": [2]}',
        '{"shape": 2, "data": [1, 2]}',
        '{"shape": [2], "data": [1, 2, 3]}',
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(ShapeError):
        DenseArray.from_json(text)


def test_psi_full_index(slabs):
    assert psi((0, 0, 0), slabs) == 0.0
    assert psi((1, 2, 0), slabs) == 26.0
    assert psi((1, 3, 2), slabs) == 31.0


def test_psi_partial_index_takes_contiguous_slab(slabs):
    plane = psi((1,), slabs)
    assert isinstance(plane, DenseArray)
    assert plane.shape == (4, 3)
    assert plane.data == tuple(float(v) for v in range(20, 32))

    row = psi((1, 2), slabs)
    assert row.shape == (3,)
    assert row.data == (26.0, 27.0, 28.0)


def test_psi_empty_index_copies(slabs):
    whole = psi((), slabs)
    assert whole == slabs
    assert whole is not slabs


def test_psi_bounds_and_rank_errors(slabs):
    with pytest.raises(BoundsError, match="axis 1"):
        psi((0, 4), slabs)
    with pytest.raises(ShapeError):
        psi((0, 0, 0, 0), slabs)


def test_psi_partial_on_zero_extent():
    arr = DenseArray((2, 0, 3), [])
    empty = psi((1,), arr)
    assert empty.shape == (0, 3)
    with pytest.raises(BoundsError):
        psi((0, 0, 0), arr)


def test_element_requires_full_index(slabs):
    assert element((0, 1, 2), slabs) == 5.0
    with pytest.raises(ShapeError):
        element((0, 1), slabs)


def test_flatten_and_reshape(slabs):
    flat = flatten(slabs)
    assert flat.shape == (24,)
    assert flat.data == slabs.data

    cube = reshape((4, 6), slabs)
    assert cube.shape == (4, 6)
    assert cube.data == slabs.data

    with pytest.raises(ShapeError):
        reshape((5, 5), slabs)


def test_read_counter_increments(slabs):
    counters.reset()
    slabs.read_flat(0)
    slabs.read_flat(11)
    assert counters.scalar_reads == 2
    with pytest.raises(BoundsError):
        slabs.read_flat(24)
    assert counters.scalar_reads == 2  # failed reads do not count


def test_allocation_counter_increments():
    counters.reset()
    DenseArray((2,), [1.0, 2.0])
    assert counters.array_allocations == 1


def test_equality_is_exact():
    a = DenseArray((2,), [1.0, 2.0])
    b = DenseArray((2,), [1.0, 2.0])
    c = DenseArray((2,), [1.0, 2.0 + 1e-12])
    d = DenseArray((1, 2), [1.0, 2.0])
    assert a == b
    assert a != c
    assert a != d
