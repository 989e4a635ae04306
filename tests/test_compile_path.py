"""The compile path from text to loop plan: the tokenizer and call table of
parse, and the digit algebra of lower.

The pinned rows hold the exact message, line and column of every kind of
ParseError.  The properties check that any text over the grammar's words,
whitespace and a few Unicode digits and letters parses or raises a MoaError,
and that every LoweringError of a random tree says the access is not affine
and comes from a transpose over a reshape.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_lowering import assert_runs_like_materialize
from test_properties import MAX_DEPTH, leaf_shapes, trees

from moa import (
    DenseArray,
    Kron,
    Leaf,
    LoweringError,
    MoaError,
    ParseError,
    PartitionError,
    Reshape,
    TransposeG,
    lower,
    parse,
)
from moa.exprs import MAX_NESTING

SHAPES = {"A": (2, 2), "B": (3, 3), "C": (2, 3), "V": (6,)}

TOO_DEEP = "kron(" * (MAX_NESTING + 1) + "A, B" + ")" * (MAX_NESTING + 1)

# (text, message, line, column)
PINNED = [
    ("", "expected 'name', found 'end of input'", 1, 1),
    ("   \n\t ", "expected 'name', found 'end of input'", 2, 3),
    ("?", "unexpected character '?'", 1, 1),
    ("A $", "unexpected character '$'", 1, 3),
    ("outer(mul, A, B", "expected ')', found 'end of input'", 1, 16),
    ("outer(mul, A, B))", "unexpected trailing input ')'", 1, 17),
    ("outer(pow, A, B)", "outer op must be one of mul, add, sub, div, found 'pow'", 1, 7),
    ("outer(mul A, B)", "expected ',', found 'A'", 1, 11),
    ("outer(1, A, B)", "expected 'name', found '1'", 1, 7),
    ("spam(A, B)", "unknown function 'spam'", 1, 1),
    ("kron", "kron needs an argument list", 1, 1),
    ("reshape", "reshape needs an argument list", 1, 1),
    ("Z", "unknown array name 'Z'", 1, 1),
    ("kron(A, B) extra", "unexpected trailing input 'extra'", 1, 12),
    ("transpose([-1, 0], C)", "unexpected character '-'", 1, 12),
    ("transpose([1 0], C)", "expected ']', found '0'", 1, 14),
    ("transpose(1, C)", "expected '[', found '1'", 1, 11),
    ("reshape([3, 2,], C)", "expected 'int', found ']'", 1, 15),
    ("reshape([3, 2], C", "expected ')', found 'end of input'", 1, 18),
    ("kron(A,\n  B,\n  C)", "expected ')', found ','", 2, 4),
    ("outer(mul,\n  A,\n  ?)", "unexpected character '?'", 3, 3),
    ("outer(add,\r\n A,\r\n\tQ)", "unknown array name 'Q'", 3, 2),
    ("kron(A\xa0,\xa0½)", "unexpected character '½'", 1, 10),
    ("outer(mul, A, éB)", "unknown array name 'éB'", 1, 15),
    ("outer(mul, A, B) (", "unexpected trailing input '('", 1, 18),
    ("kron(A, B)\n\n  kron", "unexpected trailing input 'kron'", 3, 3),
    ("[", "expected 'name', found '['", 1, 1),
    (TOO_DEEP, f"expression nests deeper than {MAX_NESTING} calls", 1, 5 * MAX_NESTING + 1),
]


@pytest.mark.parametrize("text, message, line, column", PINNED)
def test_parse_errors_keep_their_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text, SHAPES)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, char, column", [("reshape([3, 2²], C)", "²", 14), ("outer(div, A, ①)", "①", 15)]
)
def test_digits_that_are_not_decimal_are_unexpected_characters(text, char, column):
    with pytest.raises(ParseError) as info:
        parse(text, SHAPES)
    assert str(info.value) == f"unexpected character {char!r} (line 1, column {column})"


def test_a_name_may_hold_any_letter_or_digit_after_its_first_letter():
    assert parse("é_١2", {"é_١2": (2,)}) == Leaf("é_١2", (2,))


def test_decimal_digits_of_any_script_read_as_ints():
    assert parse("transpose([١, ٠], C)", SHAPES) == TransposeG((1, 0), Leaf("C", (2, 3)))
    assert parse("reshape([٦], C)", SHAPES) == Reshape((6,), Leaf("C", (2, 3)))


def test_an_integer_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse("reshape([" + "1" * 5000 + "], A)", SHAPES)
    assert str(info.value) == "integer of 5000 digits is too long (line 1, column 10)"


WORDS = (
    "outer", "kron", "transpose", "reshape", "mul", "div", "pow",
    "A", "B", "C", "V", "Z", "0", "1", "2", "3", "6", "12",
    "(", ")", "[", "]", ",", " ", "\n", "\t", "\xa0",
    "é", "١", "²", "①", "½", "#", "-",
    "reshape([", "transpose([", "outer(mul, ", "kron(", "], ", ", ",
)  # fmt: skip


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.lists(st.sampled_from(WORDS), max_size=30).map("".join))
@example("reshape([3, 2²], C)")
@example("transpose([①, 0], C)")
@example("reshape([²], V)")
def test_any_text_parses_or_raises_a_moa_error(text):
    try:
        parse(text, SHAPES)
    except MoaError:
        pass


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_every_lowering_error_says_not_affine(data):
    shapes = data.draw(leaf_shapes())
    expr = data.draw(trees(shapes, MAX_DEPTH))
    try:
        lower(expr)
    except LoweringError as exc:
        assert "not affine" in str(exc)


def transposes_a_reshape(expr, below_transpose: bool = False) -> bool:
    """Whether a Reshape lies below a TransposeG or a Kron."""
    if isinstance(expr, Leaf):
        return False
    if isinstance(expr, Reshape):
        return below_transpose or transposes_a_reshape(expr.child)
    below_transpose = below_transpose or isinstance(expr, (TransposeG, Kron))
    children = [expr.child] if isinstance(expr, TransposeG) else [expr.left, expr.right]
    return any(transposes_a_reshape(child, below_transpose) for child in children)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(leaf_shapes().flatmap(lambda shapes: trees(shapes, MAX_DEPTH)))
def test_only_a_transpose_over_a_reshape_is_not_affine(expr):
    try:
        lower(expr)
    except LoweringError as exc:
        assert "not affine" in str(exc)
        assert transposes_a_reshape(expr), expr


def test_an_interleaved_reshape_is_affine_until_a_transpose_splits_it():
    # the (2, 3) transpose of a (3, 2) leaf, reshaped to (3, 2), lowers as its
    # child; transposing it again would need the first row of 3 to take a
    # third of the column digit
    interleaved = Reshape((3, 2), TransposeG((1, 0), Leaf("A", (3, 2))))
    a = DenseArray((3, 2), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert_runs_like_materialize(interleaved, {"A": a})
    for expr in (TransposeG((1, 0), interleaved), Kron(interleaved, Leaf("B", (2, 2)))):
        with pytest.raises(LoweringError, match="not affine"):
            lower(expr)


def test_partition_error_lists_every_divisor_of_a_huge_extent():
    with pytest.raises(PartitionError) as info:
        lower(Leaf("A", (10**12,)), procs=7)
    valid = info.value.valid
    assert len(valid) == 168
    assert list(valid) == sorted(valid) and valid[0] == 2 and valid[-1] == 10**12
    assert all(10**12 % d == 0 for d in valid)
    assert str(info.value).endswith(", ".join(map(str, valid)))


def test_partition_error_divisors_match_a_plain_scan():
    for n in range(1, 121):
        with pytest.raises(PartitionError) as info:
            lower(Leaf("A", (n,)), procs=n + 1)
        assert info.value.valid == tuple(d for d in range(2, n + 1) if n % d == 0)
