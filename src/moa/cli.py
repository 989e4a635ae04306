"""Command line interface.

Subcommands:

    moa shape  --expr EXPR --array NAME=FILE ...
    moa eval   --expr EXPR --array NAME=FILE ... [--index I,J,...]
    moa dnf    --expr EXPR --array NAME=FILE ... --index I,J,...
    moa onf    --expr EXPR --array NAME=FILE ... [--procs N] [--run] [--parallel]
    moa verify [--suite NAME] [--seed N]

Arrays are JSON files of the form {"shape": [...], "data": [...]} with data
in row-major order.  All JSON output is canonical: sorted keys, two-space
indent, floats rendered with %.17g.  Shapes print as <e0 e1 ...>.

Exit codes: 0 success, 1 verification failure, 2 usage or expression syntax
error, 3 shape/index/evaluation error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arrays import DenseArray
from .errors import MoaError, ParseError
from .exprs import Combine, LeafRead, ScalarReadPlan, eval_element, materialize, psi_reduce
from .lowering import execute_plan, flatten_operands, lower, plan_to_json
from .parser import parse
from .shapes import Shape
from .verify import SUITES, run_suites

USAGE_ERROR = 2
DATA_ERROR = 3


def render_json(value, level: int = 0) -> str:
    """Canonical JSON: sorted object keys, 2-space indent, %.17g floats."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}"{key}": {render_json(value[key], level + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{render_json(item, level + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def format_shape(shape: Shape) -> str:
    return "<" + " ".join(str(extent) for extent in shape) + ">"


def _parse_bindings(pairs: list[str]) -> dict[str, DenseArray]:
    env: dict[str, DenseArray] = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name.isidentifier() or not path:
            raise _Usage(f"--array expects NAME=FILE, got {pair!r}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise _Usage(f"cannot read array file {path!r}: {exc}") from exc
        env[name] = DenseArray.from_json(text)
    return env


def _parse_index(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise _Usage(f"--index expects comma-separated integers, got {text!r}") from exc


class _Usage(Exception):
    pass


def _array_to_obj(array: DenseArray) -> dict:
    return {"shape": list(array.shape), "data": array.data}


def _read_plan_to_obj(plan: ScalarReadPlan) -> dict:
    if isinstance(plan, LeafRead):
        return {"array": plan.name, "offset": plan.offset}
    assert isinstance(plan, Combine)
    return {
        "op": plan.op,
        "args": [_read_plan_to_obj(plan.left), _read_plan_to_obj(plan.right)],
    }


def cmd_shape(args: argparse.Namespace) -> int:
    env = _parse_bindings(args.array)
    expr = parse(args.expr, {name: arr.shape for name, arr in env.items()})
    print(format_shape(expr.shape))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    env = _parse_bindings(args.array)
    expr = parse(args.expr, {name: arr.shape for name, arr in env.items()})
    if args.index is not None:
        value = eval_element(expr, _parse_index(args.index), env)
        print("%.17g" % value)
    else:
        print(render_json(_array_to_obj(materialize(expr, env))))
    return 0


def cmd_dnf(args: argparse.Namespace) -> int:
    env = _parse_bindings(args.array)
    expr = parse(args.expr, {name: arr.shape for name, arr in env.items()})
    plan = psi_reduce(_parse_index(args.index), expr)
    print(render_json(_read_plan_to_obj(plan)))
    return 0


def cmd_onf(args: argparse.Namespace) -> int:
    if args.parallel and not args.run:
        raise _Usage("--parallel requires --run")
    env = _parse_bindings(args.array)
    expr = parse(args.expr, {name: arr.shape for name, arr in env.items()})
    plan = lower(expr, procs=args.procs)
    if args.run:
        result = execute_plan(plan, flatten_operands(env), parallel=args.parallel)
        print(render_json(_array_to_obj(result)))
    else:
        print(plan_to_json(plan))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    any_failed = False
    for result in results:
        print(f"{result.name}: {result.passed} passed, {result.failed} failed")
        for message in result.failures[:5]:
            print(f"  {message}", file=sys.stderr)
        if result.failed:
            any_failed = True
    print("FAILED" if any_failed else "ok")
    return 1 if any_failed else 0


def _default_seed() -> int:
    raw = os.environ.get("MOA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _Usage(f"MOA_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--expr", required=True, help="expression text")
        p.add_argument(
            "--array",
            action="append",
            default=[],
            metavar="NAME=FILE",
            help="bind a leaf name to an array JSON file (repeatable)",
        )

    p_shape = sub.add_parser("shape", help="print the expression's shape")
    common(p_shape)
    p_shape.set_defaults(func=cmd_shape)

    p_eval = sub.add_parser("eval", help="evaluate the expression")
    common(p_eval)
    p_eval.add_argument("--index", help="evaluate a single element at I,J,...")
    p_eval.set_defaults(func=cmd_eval)

    p_dnf = sub.add_parser("dnf", help="print the per-element read plan")
    common(p_dnf)
    p_dnf.add_argument("--index", required=True, help="element index I,J,...")
    p_dnf.set_defaults(func=cmd_dnf)

    p_onf = sub.add_parser("onf", help="lower to a loop plan")
    common(p_onf)
    p_onf.add_argument("--procs", type=int, default=1, help="virtual processor count")
    p_onf.add_argument("--run", action="store_true", help="execute the plan")
    p_onf.add_argument(
        "--parallel", action="store_true", help="run processors on threads"
    )
    p_onf.set_defaults(func=cmd_onf)

    p_verify = sub.add_parser("verify", help="run the built-in check suites")
    p_verify.add_argument(
        "--suite",
        choices=["all"] + list(SUITES),
        default="all",
        help="which suite to run",
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="randomness seed (default: MOA_SEED env var, else 0)",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and args.command == "verify":
            args.seed = _default_seed()
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MoaError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
