"""Canonical JSON, the one writer for CLI output and plan JSON.

Object keys are sorted, containers indent by two spaces per level, floats
print as %.17g, and strings and keys are escaped as json.dumps escapes them:
ASCII only, with control and non-ASCII characters as \\u escapes.  For
documents without floats the text equals
json.dumps(doc, sort_keys=True, indent=2).

The walk keeps an explicit stack, so nesting depth costs neither recursion
nor re-indenting.  A non-empty list or tuple whose items are all exactly
float, or a 1-D float64 ndarray, renders as a float list.  Below VECTOR_MIN
items a float list goes through one format string, so its per-element loop
runs inside CPython's % formatting.  From VECTOR_MIN items on,
floatfmt.format_floats writes the same bytes with numpy: it certifies the 17
digits of each float with a double-double product and leaves what it cannot
certify (near ties, subnormals, extreme exponents, inf and nan) to %.  That
module is imported on the first such list, so a process that never writes
one never loads it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any

import numpy as np

# Float lists this long or longer render through floatfmt.format_floats.
# Measured on 1-D float64 input, 2-core Xeon: format_floats is level with
# the % path at 256 items, 1.5 times as fast at 512, twice at 1,024 and three
# times at 65,536.  1,024 keeps outputs of at most 256 elements, such as
# every compile_mix result, on the % path.
VECTOR_MIN = 1024


def render_json(doc: Any) -> str:
    """Canonical JSON text of dicts with str keys, lists, tuples, 1-D float64
    ndarrays, str, int, float, bool and None."""
    out: list[str] = []
    # Entries are (value, level) to render, or (text, None) to emit as is.
    stack: list[tuple[Any, int | None]] = [(doc, 0)]
    while stack:
        value, level = stack.pop()
        if level is None:
            out.append(value)
        elif isinstance(value, dict) and value:
            inner = "  " * (level + 1)
            keys = sorted(value)
            stack.append(("\n" + "  " * level + "}", None))
            for key in reversed(keys):
                stack.append((value[key], level + 1))
                stack.append((",\n" + inner + _quote(key) + ": ", None))
            stack[-1] = ("{\n" + inner + _quote(keys[0]) + ": ", None)
        elif isinstance(value, np.ndarray):
            if value.ndim != 1 or value.dtype != np.float64:
                raise TypeError(f"cannot render a {value.ndim}-D {value.dtype} ndarray as JSON")
            out.append(_float_list(value, level) if value.size else "[]")
        elif isinstance(value, (list, tuple)) and value:
            if type(value[0]) is float and set(map(type, value)) == {float}:
                out.append(_float_list(value, level))
                continue
            inner = "  " * (level + 1)
            stack.append(("\n" + "  " * level + "]", None))
            for item in reversed(value):
                stack.append((item, level + 1))
                stack.append((",\n" + inner, None))
            stack[-1] = ("[\n" + inner, None)
        else:
            out.append(_scalar(value))
    return "".join(out)


def _float_list(values: Any, level: int) -> str:
    """A non-empty float list, tuple or 1-D float64 array, one item a line."""
    inner = "  " * (level + 1)
    if len(values) >= VECTOR_MIN:
        from .floatfmt import format_floats

        items = format_floats(np.asarray(values, dtype=np.float64), ",\n" + inner)
    else:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        items = (("%.17g,\n" + inner) * (len(values) - 1) + "%.17g") % tuple(values)
    return "".join(("[\n", inner, items, "\n", "  " * level, "]"))  # one copy of items


def _scalar(value: Any) -> str:
    """A scalar or an empty container."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, (list, tuple)):
        return "[]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")
