"""Spans around the layer entry points that `moa.cli` calls.

`moa.cli` looks up `parse`, `lower`, `execute_plan` and the other layer
functions by module-global name at call time, so replacing those globals
with timing wrappers traces every layer boundary of a request without
touching the program.  Spans stay in memory as
[name, start, end, parent, request, info] and are written out at the end.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

# (name of the moa.cli global, span name); render_json recurses through its
# module global, so only its outermost call becomes a span.
CLI_ENTRY_POINTS = (
    ("parse", "parser.parse"),
    ("lower", "lowering.lower"),
    ("plan_to_json", "lowering.plan_to_json"),
    ("flatten_operands", "lowering.flatten_operands"),
    ("execute_plan", "lowering.execute_plan"),
    ("materialize", "exprs.materialize"),
    ("eval_element", "exprs.eval_element"),
    ("psi_reduce", "exprs.psi_reduce"),
)


def _parallel(args, kwargs) -> bool:
    return bool(kwargs.get("parallel", args[2] if len(args) > 2 else False))


class Tracer:
    def __init__(self, cli, counters) -> None:
        self.cli = cli
        self.counters = counters  # moa's scalar-read tally, or None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.restore: list[Callable[[], None]] = []
        self.main = self.wrap("cli.main", cli.main)

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack = self.spans, self.stack
        counters = self.counters if name in ("exprs.materialize", "exprs.eval_element") else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            reads = counters.scalar_reads if counters is not None else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = (counters.scalar_reads - reads, args, result.size if name == "exprs.materialize" else 1)
            elif info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        cli = self.cli
        infos = {
            "parser.parse": lambda a, k, r: len(a[0]),
            "lowering.lower": lambda a, k, r: r,
            "lowering.plan_to_json": lambda a, k, r: len(r),
            "lowering.execute_plan": lambda a, k, r: (a[0], a[1], _parallel(a, k), r.size),
        }
        for attr, name in CLI_ENTRY_POINTS:
            if not hasattr(cli, attr):
                print(f"warning: moa.cli has no {attr}; {name} is not traced", file=sys.stderr)
                continue
            self._replace(cli, attr, self.wrap(name, getattr(cli, attr), infos.get(name)))

        original = cli.render_json
        traced = self.wrap("cli.render_json", original, lambda a, k, r: len(r))

        def outermost(*args, **kwargs):
            cli.render_json = original
            try:
                return traced(*args, **kwargs)
            finally:
                cli.render_json = outermost

        self._replace(cli, "render_json", outermost)

        array_cls = cli.DenseArray
        descriptor = array_cls.__dict__["from_json"]
        from_json = self.wrap("arrays.from_json", array_cls.from_json)
        array_cls.from_json = staticmethod(from_json)
        self.restore.append(lambda: setattr(array_cls, "from_json", descriptor))

    def _replace(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self.restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self.restore:
            self.restore.pop()()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(start - origin, 9), round(end - origin, 9), parent, request]
            for name, start, end, parent, request, _ in self.spans
        ]
