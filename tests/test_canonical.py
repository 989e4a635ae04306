"""The one canonical JSON writer: json.dumps layout and escapes, %.17g floats,
the all-float fast paths (one format string, and the vectorized writer for
long lists, byte-identical to it), and depth without recursion."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moa import DenseArray, canonical, floatfmt
from moa.canonical import VECTOR_MIN, render_json
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


# --- the vectorized %.17g writer for long float lists -------------------------


def percent_text(values, sep: str) -> str:
    """The % path's text: one format string over the whole list."""
    values = list(values)
    return (("%.17g" + sep) * (len(values) - 1) + "%.17g") % tuple(values)


def ties(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """Exact doubles M / 2**k (M odd) with 18 significant digits, the last a
    5: %.17g rounds each of them half to even at 10**(1 - k)."""
    low, high = -(-(10**17) // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
    m = rng.integers(low, high + 1, count) | 1
    return m[m <= high] / 2.0**k


def exactness_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20091)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return {
        "random bit patterns": rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
        "normals": rng.standard_normal(400_000) * rng.standard_normal(400_000),
        "log-uniform": 10.0 ** rng.uniform(-300, 300, 100_000),
        "powers of ten and their neighbours": np.concatenate(
            [powers * (1 + j * 2.0**-52) for j in range(-3, 4)]
            + [np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
        ),
        "neighbours of 1e16 and 1e17": np.concatenate(
            [start + np.arange(-4096, 4097) * ulp for start, ulp in ((1e16, 2.0), (1e17, 16.0))]
        ),
        "integers from 2**53 to 2**63": np.ldexp(
            rng.integers(2**52, 2**53, 80_000).astype(np.float64), rng.integers(1, 11, 80_000)
        ),
        "fixed/exponent switch points": np.array(
            [1e-5, 9.9999999999999995e-05, 1e-4, 1e17, 99999999999999984.0, 1e16, 2.0**53, 2.0**63]
        ),
        "zeros and subnormals": np.concatenate(
            [[0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
             rng.integers(1, 2**52, 20_000).astype(np.uint64).view(np.float64)]
        ),
        "exact ties and their neighbours": np.concatenate(
            [np.concatenate([t, np.nextafter(t, 0), np.nextafter(t, np.inf)])
             for t in (ties(rng, 1_000, k) for k in range(2, 26))]
        ),
        "sixteenths above 1e14": np.arange(50_000) / 16 + 1e14,
    }


def test_vectorized_floats_match_percent_exactly():
    cases = exactness_cases()
    assert sum(values.size for values in cases.values()) >= 1_000_000
    # random signs, flipped bitwise so that NaN payloads stay as they are
    signs = np.random.default_rng(1).integers(0, 2, 1_000_000, dtype=np.uint64) << np.uint64(63)
    for name, values in cases.items():
        values = (values.view(np.uint64) ^ signs[: values.size]).view(np.float64)
        assert floatfmt.format_floats(values, "\n") == percent_text(values.tolist(), "\n"), name


def test_ordinary_data_is_certified_with_the_digits_of_percent():
    rng = np.random.default_rng(5)
    a = np.abs(np.concatenate([
        rng.standard_normal(50_000) * rng.standard_normal(50_000),
        10.0 ** rng.uniform(-260, -9, 20_000),
        2.0 ** rng.uniform(54, 896, 20_000),
    ]))
    n, exponent, ok = floatfmt._digits(a)
    assert ok.all()
    mantissas, exponents = zip(*(("%.16e" % v).split("e") for v in a[::97].tolist()))
    assert n[::97].tolist() == [int(m.replace(".", "")) for m in mantissas]
    assert exponent[::97].tolist() == [int(e) for e in exponents]


@pytest.mark.parametrize("k", [2, 12, 23, 24, 25])
def test_exact_ties_round_half_even_or_fall_back(k):
    # The 17th digit sits at 10**(1 - k), so y = a * 10**(k - 1): exact, and
    # certified, while 10**(k - 1) is a double (k <= 23); never certified past.
    tie = ties(np.random.default_rng(k), 2_000, k)
    n, exponent, ok = floatfmt._digits(tie)
    if k > 23:
        assert not ok.any()
        return
    assert ok.all()
    mantissas, exponents = zip(*(("%.16e" % v).split("e") for v in tie.tolist()))
    assert n.tolist() == [int(m.replace(".", "")) for m in mantissas]
    assert exponent.tolist() == [int(e) for e in exponents]


@pytest.mark.parametrize("share", [0.0, 0.2, 0.3, 0.7, 0.8, 1.0])
def test_chunks_of_any_certified_share_match_percent(share):
    # uncertifiable elements (subnormals and near ties) mixed into ordinary ones
    rng = np.random.default_rng(int(share * 10))
    size = 3 * floatfmt._CHUNK + 5
    values = rng.standard_normal(size)
    odd = rng.random(size) >= share
    values[odd] = np.where(rng.random(odd.sum()) < 0.5, 1e-310 * rng.random(odd.sum()), 1.5 * 2.0**-24)
    assert floatfmt.format_floats(values, ", ") == percent_text(values.tolist(), ", ")


@pytest.mark.parametrize("size", [VECTOR_MIN - 1, VECTOR_MIN, VECTOR_MIN + 1])
def test_float_lists_at_the_threshold_render_alike_on_both_paths(size):
    values = np.random.default_rng(size).standard_normal(size) * 1e-3
    values[::7] = 0.0
    values[1::7] = -0.0
    want = '{\n  "data": [\n    ' + percent_text(values.tolist(), ",\n    ") + "\n  ]\n}"
    assert render_json({"data": values}) == want
    assert render_json({"data": values.tolist()}) == want
    assert render_json({"data": tuple(values.tolist())}) == want
    assert render_json([[[values]]]) == render_json([[[values.tolist()]]])


def test_non_finite_floats_in_long_lists_print_as_percent_does():
    values = np.linspace(-1.0, 1.0, VECTOR_MIN + 5)
    values[[0, 3, 700, -1]] = [np.inf, np.nan, -np.inf, -np.nan]
    text = render_json(values.tolist())
    assert text == "[\n  " + percent_text(values.tolist(), ",\n  ") + "\n]"
    lines = text.split("\n")
    assert [lines[1], lines[4], lines[701], lines[-2]] == ["  inf,", "  nan,", "  -inf,", "  nan"]
    assert render_json(values) == text


@pytest.mark.parametrize(
    "array",
    [np.zeros((2, 2)), np.arange(3), np.zeros(3, np.float32), np.zeros(VECTOR_MIN, np.int64)],
)
def test_other_ndarrays_are_type_errors(array):
    with pytest.raises(TypeError, match="ndarray"):
        render_json({"data": array})


def test_empty_and_short_float_arrays():
    assert render_json(np.zeros(0)) == "[]"
    assert render_json({"a": np.array([0.5, -0.0])}) == '{\n  "a": [\n    0.5,\n    -0\n  ]\n}'


def test_array_json_is_the_percent_text_of_its_buffer(monkeypatch):
    array = DenseArray((VECTOR_MIN,), np.random.default_rng(3).standard_normal(VECTOR_MIN))
    text = array.to_json()
    monkeypatch.setattr(canonical, "VECTOR_MIN", float("inf"))  # the % writer only
    assert text == render_json({"shape": [VECTOR_MIN], "data": list(array.data)})
