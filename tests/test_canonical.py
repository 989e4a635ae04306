"""The one canonical JSON writer: json.dumps layout and escapes, %.17g floats,
the all-float fast path, and depth without recursion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moa import DenseArray
from moa.canonical import render_json
from moa.cli import main

scalars = st.none() | st.booleans() | st.integers() | st.text()
documents = st.recursive(
    scalars,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(documents)
def test_float_free_documents_match_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


FLOATS = [-0.0, 5e-324, 0.1, 2.0**53, 1e16, 1e17, 1.7976931348623157e308]


@pytest.mark.parametrize("items", [FLOATS, FLOATS[:1], tuple(FLOATS)])
def test_float_lists_render_each_item_with_17_digits(items):
    lines = render_json({"data": items}).splitlines()
    assert lines[:2] == ["{", '  "data": [']
    assert lines[2:-2] == [f"    {'%.17g' % x}," for x in items[:-1]] + [
        f"    {'%.17g' % items[-1]}"
    ]
    assert lines[-2:] == ["  ]", "}"]
    assert render_json(items[0]) == "%.17g" % items[0]


def test_float_spellings():
    assert render_json([-0.0, 5e-324, 0.1, 2.0**53, 1e17]).split() == [
        "[", "-0,", "4.9406564584124654e-324,", "0.10000000000000001,",
        "9007199254740992,", "1e+17", "]",
    ]


def test_mixed_lists_stay_off_the_float_path():
    assert render_json([1, 2.5, True]) == "[\n  1,\n  2.5,\n  true\n]"
    assert render_json([2.5, None, "x"]) == '[\n  2.5,\n  null,\n  "x"\n]'
    assert render_json([0.5, [0.25]]) == "[\n  0.5,\n  [\n    0.25\n  ]\n]"


def test_tuples_and_empty_containers():
    assert render_json((1, (2,), ())) == json.dumps([1, [2], []], indent=2)
    assert render_json({"a": {}, "b": [], "c": ()}) == (
        '{\n  "a": {},\n  "b": [],\n  "c": []\n}'
    )
    assert [render_json(doc) for doc in ({}, [], ())] == ["{}", "[]", "[]"]


def test_unrenderable_values_are_type_errors():
    with pytest.raises(TypeError, match="cannot render set"):
        render_json([{1}])


def test_deep_nesting_needs_no_recursion():
    depth = 5000
    doc: list = [1.5]
    for _ in range(depth):
        doc = [doc]
    opening = ["  " * level + "[" for level in range(depth + 1)]
    closing = ["  " * level + "]" for level in reversed(range(depth + 1))]
    assert render_json(doc).split("\n") == opening + ["  " * (depth + 1) + "1.5"] + closing


def test_strings_and_keys_escape_like_json_dumps():
    doc = {"é\n": 'a"b\\c \x00', "k": ["\U0001f600"]}
    assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert render_json("é") == '"\\u00e9"'


def test_dnf_and_onf_escape_non_ascii_names_alike(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(DenseArray((2,), [1.5, 2.5]).to_json())
    common = ["--expr", "outer(add, é, é)", "--array", f"é={path}"]
    assert main(["dnf", *common, "--index", "1,0"]) == 0
    dnf = capsys.readouterr().out
    assert '"array": "\\u00e9"' in dnf
    assert json.loads(dnf)["args"][0] == {"array": "é", "offset": 1}
    assert main(["onf", *common]) == 0
    onf = capsys.readouterr().out
    assert '"buffer": "\\u00e9vec"' in onf
    assert dnf.isascii() and onf.isascii()
