"""Canonical JSON, the one writer for CLI output and plan JSON.

Object keys are sorted, containers indent by two spaces per level, floats
print as %.17g, and strings and keys are escaped as json.dumps escapes them:
ASCII only, with control and non-ASCII characters as \\u escapes.  For
documents without floats the text equals
json.dumps(doc, sort_keys=True, indent=2).

The walk keeps an explicit stack, so nesting depth costs neither recursion
nor re-indenting.  A non-empty list or tuple whose items are all exactly
float renders through one format string, so its per-element loop runs inside
CPython's % formatting.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any


def render_json(doc: Any) -> str:
    """Canonical JSON text of dicts with str keys, lists, tuples, str, int,
    float, bool and None."""
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
        elif isinstance(value, (list, tuple)) and value:
            inner = "  " * (level + 1)
            close = "\n" + "  " * level + "]"
            if type(value[0]) is float and set(map(type, value)) == {float}:
                items = (("%.17g,\n" + inner) * (len(value) - 1) + "%.17g") % tuple(value)
                out.append("[\n" + inner + items + close)
                continue
            stack.append((close, None))
            for item in reversed(value):
                stack.append((item, level + 1))
                stack.append((",\n" + inner, None))
            stack[-1] = ("[\n" + inner, None)
        else:
            out.append(_scalar(value))
    return "".join(out)


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
