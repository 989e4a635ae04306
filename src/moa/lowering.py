"""Lowering expressions to executable loop plans.

A loop plan is the operational form of an expression: a nest of counted
loops (start/stop/stride/count), a body that reads input buffers at affine
offsets in the loop variables, and a single affine write into the output
buffer that covers every output element exactly once.  The body is the DNF's
read/op IR (exprs.LeafRead and exprs.Combine, also exported as FlatRead and
OpExpr) with each read's offset an Affine instead of an int.  Lowering never
materializes intermediates: structural nodes (outer, transpose, reshape,
kron) are compiled away into the offset algebra.

Over the loop box an affine offset is a base plus one step per loop, so
execute_plan runs each read as one strided numpy view of its buffer and the
body as exprs.fold_plan over those views.

The algorithm tracks one "digit" per surviving unit of iteration.  A leaf
axis starts as one digit carrying that axis's row-major stride into the
leaf's buffer.  Outer concatenates digit groups, transpose permutes them,
and reshape re-slices the digit stream into new axis groups, splitting a
digit only when the split is exact.  An access that cannot be expressed
affinely this way raises LoweringError.

After the walk, adjacent digits whose read coefficients chain (outer
coefficient equals inner coefficient times inner extent, for every read)
coalesce into a single longer loop.  The plan's virtual processor count must
divide the outermost coalesced loop extent; the outer loop is then split so
its leading dimension equals the processor count and each processor owns one
contiguous slab of the output.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .arrays import DenseArray, counters
from .errors import DomainError, LoweringError, PartitionError, PlanError, ShapeError
from .exprs import (
    OPS,
    Combine,
    ExprNode,
    Kron,
    Leaf,
    LeafRead,
    Outer,
    Reshape,
    ScalarReadPlan,
    TransposeG,
    fold_plan,
    leaves,
)
from .shapes import Shape, as_shape, pi

_LOOP_NAMES = "pqrstuvw"


def _loop_name(k: int) -> str:
    return _LOOP_NAMES[k] if k < len(_LOOP_NAMES) else f"x{k}"


# --- plan data model ---------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """Sum of coeff*var terms plus a constant, in loop order."""

    terms: tuple[tuple[str, int], ...]
    const: int = 0


@dataclass(frozen=True)
class FlatWrite:
    buffer: str
    offset: Affine


@dataclass(frozen=True)
class LoopSpec:
    var: str
    start: int
    stop: int
    stride: int
    count: int

    def __post_init__(self) -> None:
        if self.stride <= 0 or self.start < 0 or self.stop < self.start:
            raise PlanError(
                f"loop {self.var}: bad range start={self.start} "
                f"stop={self.stop} stride={self.stride}"
            )
        expected = len(range(self.start, self.stop, self.stride))
        if self.count != expected:
            raise PlanError(
                f"loop {self.var}: count {self.count} does not match "
                f"range({self.start}, {self.stop}, {self.stride}) = {expected}"
            )


def _fold_offset(affine: Affine, loops: tuple[LoopSpec, ...]) -> tuple[int, list[int], int, int]:
    """An affine offset over the loop box as (first offset, step per loop, lowest, highest).
    A loop that runs once gets step 0, so no coefficient on it can overflow a stride."""
    coeffs = dict.fromkeys((loop.var for loop in loops), 0)
    for var, coeff in affine.terms:
        coeffs[var] += coeff
    base = affine.const + sum(coeffs[loop.var] * loop.start for loop in loops)
    steps = [coeffs[loop.var] * loop.stride if loop.count > 1 else 0 for loop in loops]
    spans = [step * (loop.count - 1) for step, loop in zip(steps, loops)]
    return base, steps, base + sum(min(s, 0) for s in spans), base + sum(max(s, 0) for s in spans)


@dataclass(frozen=True)
class LoopPlan:
    procs: int
    out_shape: Shape
    loops: tuple[LoopSpec, ...]
    write: FlatWrite
    body: ScalarReadPlan

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_shape", as_shape(self.out_shape))
        if not self.loops:
            raise PlanError("a loop plan needs at least one loop")
        names = [loop.var for loop in self.loops]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate loop variables: {names}")
        size = pi(self.out_shape)
        if size == 0:
            raise PlanError("zero-element output has no loop plan")
        iterations = 1
        for loop in self.loops:
            iterations *= loop.count
        if iterations != size:
            raise PlanError(
                f"loop nest runs {iterations} iterations, output shape "
                f"{self.out_shape} has {size} elements"
            )
        if self.procs < 1:
            raise PlanError(f"procs must be >= 1, got {self.procs}")
        if self.loops[0].count % self.procs != 0:
            raise PlanError(
                f"procs {self.procs} does not divide the outer loop count "
                f"{self.loops[0].count}"
            )
        if self.write.buffer != "out":
            raise PlanError(f'write buffer must be "out", got {self.write.buffer!r}')
        known = set(names)
        for affine in [self.write.offset] + [r.offset for r in leaves(self.body)]:
            for var, _ in affine.terms:
                if var not in known:
                    raise PlanError(f"offset references unknown loop variable {var!r}")
        # The write offsets are a permutation of range(size) exactly when they
        # start at 0 and the loop steps, sorted by size, are the mixed-radix
        # place values of their counts.
        _, steps, low, high = _fold_offset(self.write.offset, self.loops)
        radix = 1
        for step, count in sorted(
            (abs(step), loop.count) for step, loop in zip(steps, self.loops) if loop.count > 1
        ):
            if step != radix:
                break
            radix *= count
        if low != 0 or radix != size:
            raise PlanError(
                f"write offsets in [{low}, {high}] do not cover the {size} "
                f"elements of out exactly once"
            )


# --- symbolic digits ---------------------------------------------------------

@dataclass
class _Digit:
    """One unit of iteration: an extent plus, per leaf occurrence, the
    coefficient its value contributes to that occurrence's read offset."""

    extent: int
    coeffs: dict[int, int] = field(default_factory=dict)


@dataclass
class _Build:
    """Result of walking one expression node."""

    axes: list[list[_Digit]]  # one digit group per output axis, 1-extents dropped
    body: ScalarReadPlan  # each read's offset is its leaf occurrence for now


def _split_digit(digit: _Digit, head: int) -> tuple[_Digit, _Digit]:
    """Split extent e into (head, e // head); head must divide e.

    The original digit value v factors as v = hi * (e // head) + lo, so the
    high digit inherits each coefficient scaled by the low extent.
    """
    low = digit.extent // head
    hi = _Digit(head, {occ: c * low for occ, c in digit.coeffs.items()})
    lo = _Digit(low, dict(digit.coeffs))
    return hi, lo


def _regroup(stream: list[_Digit], extents: Shape) -> list[list[_Digit]]:
    """Re-slice a digit stream into groups whose extents multiply to the
    target axis extents, splitting digits when the split is exact.

    The stream coalesces first: adjacent digits whose reads chain act as one
    contiguous run, so reshapes of contiguous data always stay affine and
    only genuinely interleaved layouts can fail."""
    queue = _coalesce(stream)
    groups: list[list[_Digit]] = []
    for extent in extents:
        group: list[_Digit] = []
        acc = 1
        while acc < extent:
            if not queue:
                raise LoweringError("reshape regrouping exhausted digits")
            digit = queue.pop(0)
            if acc * digit.extent <= extent:
                group.append(digit)
                acc *= digit.extent
            else:
                head, rem = divmod(extent, acc)
                if rem != 0:
                    raise LoweringError(
                        f"reshape to extent {extent} is not affine over the "
                        f"underlying digit radices"
                    )
                if digit.extent % head != 0:
                    raise LoweringError(
                        f"reshape needs to split a digit of extent {digit.extent} "
                        f"by {head}, which is not exact; access is not affine"
                    )
                hi, lo = _split_digit(digit, head)
                group.append(hi)
                acc *= head
                queue.insert(0, lo)
        if acc != extent:
            raise LoweringError(
                f"reshape group reached extent {acc}, target was {extent}; "
                f"access is not affine"
            )
        groups.append(group)
    if queue:
        raise LoweringError("reshape regrouping left digits unconsumed")
    return groups


def _build(expr: ExprNode, counter: itertools.count) -> _Build:
    """Walk the expression; return digit groups and a body whose reads carry
    their leaf occurrence as the offset until lower knows the digits."""
    if isinstance(expr, Leaf):
        occ = next(counter)
        stride = 1
        rev: list[list[_Digit]] = []
        for extent in reversed(expr.shape):
            rev.append([_Digit(extent, {occ: stride})] if extent > 1 else [])
            stride *= extent
        return _Build(list(reversed(rev)), LeafRead(buffer_name(expr.name), occ))

    if isinstance(expr, Outer):
        left = _build(expr.left, counter)
        right = _build(expr.right, counter)
        return _Build(left.axes + right.axes, Combine(expr.op, left.body, right.body))

    if isinstance(expr, TransposeG):
        child = _build(expr.child, counter)
        return _Build([child.axes[k] for k in expr.perm], child.body)

    if isinstance(expr, Reshape):
        child = _build(expr.child, counter)
        stream = [digit for group in child.axes for digit in group]
        return _Build(_regroup(stream, expr.shape), child.body)

    if isinstance(expr, Kron):
        return _build(expr.desugared, counter)

    raise LoweringError(f"cannot lower node {type(expr).__name__}")


def _coalesce(digits: list[_Digit]) -> list[_Digit]:
    """Merge adjacent digits whose coefficients chain for every read.

    Digits u (outer) and v (inner) merge when coeff_u == coeff_v * extent_v
    for each leaf occurrence, both treated as 0 when absent.  The write side
    always chains, because write coefficients are suffix products of the
    digit extents by construction.
    """
    merged = list(digits)
    k = 0
    while k + 1 < len(merged):
        u, v = merged[k], merged[k + 1]
        occs = set(u.coeffs) | set(v.coeffs)
        if all(u.coeffs.get(o, 0) == v.coeffs.get(o, 0) * v.extent for o in occs):
            merged[k : k + 2] = [_Digit(u.extent * v.extent, dict(v.coeffs))]
            if k > 0:
                k -= 1  # the new digit may chain with its left neighbor
        else:
            k += 1
    return merged


def _nontrivial_divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(2, n + 1) if n % d == 0)


def buffer_name(leaf_name: str) -> str:
    """Flat-buffer naming convention: leaf A binds buffer avec."""
    return leaf_name.lower() + "vec"


def lower(expr: ExprNode, procs: int = 1) -> LoopPlan:
    """Compile an expression to a loop plan for ``procs`` virtual processors.

    Raises PartitionError when procs is neither 1 nor a divisor of the
    outermost loop extent; the error carries the valid nontrivial counts.
    """
    out_shape = expr.shape
    if pi(out_shape) == 0:
        raise LoweringError("zero-element output has no loop plan")
    if procs < 1:
        raise PartitionError(f"procs must be >= 1, got {procs}")

    shapes: dict[str, Shape] = {}
    for leaf in leaves(expr):
        seen = shapes.setdefault(leaf.name, leaf.shape)
        if seen != leaf.shape:
            raise ShapeError(
                f"leaf {leaf.name!r} used with conflicting shapes {seen} and {leaf.shape}"
            )
    if len({buffer_name(name) for name in shapes}) != len(shapes):
        raise LoweringError(f"leaf names {sorted(shapes)} collide under buffer naming")

    built = _build(expr, itertools.count())
    digits = _coalesce([digit for group in built.axes for digit in group])

    outer_extent = digits[0].extent if digits else 1
    if procs != 1:
        if outer_extent % procs != 0:
            raise PartitionError(
                f"procs {procs} does not divide the outer loop extent "
                f"{outer_extent}; valid processor counts: "
                f"{', '.join(map(str, _nontrivial_divisors(outer_extent))) or '1'}",
                valid=_nontrivial_divisors(outer_extent),
            )
        if procs < outer_extent:
            hi, lo = _split_digit(digits[0], procs)
            digits[0:1] = [hi, lo]

    if not digits:
        digits = [_Digit(1, {})]

    names = [_loop_name(k) for k in range(len(digits))]
    loops = tuple(
        LoopSpec(var=name, start=0, stop=d.extent, stride=1, count=d.extent)
        for name, d in zip(names, digits)
    )

    suffix = [1] * len(digits)
    for k in range(len(digits) - 2, -1, -1):
        suffix[k] = suffix[k + 1] * digits[k + 1].extent
    write = FlatWrite(
        "out",
        Affine(tuple((names[k], suffix[k]) for k in range(len(digits))), 0),
    )

    def realize(body: ScalarReadPlan) -> ScalarReadPlan:
        if isinstance(body, Combine):
            return Combine(body.op, realize(body.left), realize(body.right))
        terms = tuple(
            (name, digit.coeffs[body.offset])
            for name, digit in zip(names, digits)
            if digit.coeffs.get(body.offset, 0) != 0
        )
        return LeafRead(body.name, Affine(terms, 0))

    return LoopPlan(
        procs=procs,
        out_shape=out_shape,
        loops=loops,
        write=write,
        body=realize(built.body),
    )


# --- execution ---------------------------------------------------------------

def flatten_operands(env: dict[str, DenseArray]) -> dict[str, np.ndarray]:
    """Bind leaf arrays to the flat buffers a plan reads.

    Leaf A becomes buffer avec, holding A's elements in row-major order.
    """
    buffers: dict[str, np.ndarray] = {}
    for name, array in env.items():
        bname = buffer_name(name)
        if bname in buffers:
            raise LoweringError(f"operand names {sorted(env)} collide under buffer naming")
        buffers[bname] = array.to_numpy().reshape(-1)
    return buffers


def execute_plan(
    plan: LoopPlan, buffers: dict[str, np.ndarray], parallel: bool = False
) -> DenseArray:
    """Run a plan over flat input buffers and return the output array.

    Each read is a read-only strided view, bounds-checked at its lowest and
    highest offset before any arithmetic; results land in a strided view of
    out.  Processor k fills slab k, a slice of the outer loop, in order or on
    a thread pool of at most os.cpu_count() threads; slabs are disjoint, so
    results are identical bit for bit.  A non-finite result is a DomainError.
    """
    counts = tuple(loop.count for loop in plan.loops)
    views: dict[LeafRead, np.ndarray] = {}
    for read in leaves(plan.body):
        if read.name not in buffers:
            raise PlanError(f"plan reads unbound buffer {read.name!r}")
        buffer = np.ascontiguousarray(buffers[read.name], dtype=np.float64).reshape(-1)
        base, steps, low, high = _fold_offset(read.offset, plan.loops)
        if low < 0 or high >= buffer.size:
            raise PlanError(
                f"read offset {low if low < 0 else high} out of range "
                f"[0, {buffer.size}) for buffer {read.name!r}"
            )
        views[read] = as_strided(buffer[base:], counts, [8 * s for s in steps], writeable=False)

    size = pi(plan.out_shape)
    chunk = counts[0] // plan.procs
    base, steps, _, _ = _fold_offset(plan.write.offset, plan.loops)

    def run_slab(k: int) -> None:
        slab = slice(k * chunk, (k + 1) * chunk)
        # errstate is per thread; overflow shows up in the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            target[slab] = fold_plan(plan.body, lambda read: views[read][slab])

    try:
        out = np.empty(size, dtype=np.float64)
        target = as_strided(out[base:], counts, [8 * s for s in steps])
        if parallel and plan.procs > 1:
            workers = min(plan.procs, os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_slab, range(plan.procs)))  # re-raises a slab's error
        else:
            for k in range(plan.procs):
                run_slab(k)
    except MemoryError:
        raise PlanError(f"plan output of {size} elements does not fit in memory") from None
    if not np.isfinite(out).all():
        raise DomainError("array elements must be finite")
    out.setflags(write=False)
    result = DenseArray._from_buffer(plan.out_shape, out)
    counters.array_allocations += 1
    return result


# --- serialization -----------------------------------------------------------

def _affine_to_obj(affine: Affine) -> dict:
    return {
        "terms": [{"var": var, "coeff": coeff} for var, coeff in affine.terms],
        "const": affine.const,
    }


def _body_to_obj(body: ScalarReadPlan) -> dict:
    if isinstance(body, LeafRead):
        return {"buffer": body.name, "offset": _affine_to_obj(body.offset)}
    return {"op": body.op, "args": [_body_to_obj(body.left), _body_to_obj(body.right)]}


def plan_to_json(plan: LoopPlan) -> str:
    """Canonical JSON for a plan: sorted keys, two-space indent."""
    doc = {
        "procs": plan.procs,
        "out_shape": list(plan.out_shape),
        "loops": [
            {
                "var": loop.var,
                "start": loop.start,
                "stop": loop.stop,
                "stride": loop.stride,
                "count": loop.count,
            }
            for loop in plan.loops
        ],
        "body": {
            "write": {
                "buffer": plan.write.buffer,
                "offset": _affine_to_obj(plan.write.offset),
            },
            "expr": _body_to_obj(plan.body),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


# Loaded bodies are walked recursively (execute_plan, plan_to_json); a
# parsed expression nests at most parser.MAX_NESTING ops deep.
MAX_BODY_DEPTH = 400


def _json_int(value: Any, what: str) -> int:
    if type(value) is not int:  # rejects bool, float and numeric strings
        raise PlanError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise PlanError(f"{what} must be a JSON string, got {value!r}")
    return value


def _affine_from_obj(obj: dict) -> Affine:
    try:
        terms = tuple(
            (_json_str(t["var"], "term var"), _json_int(t["coeff"], "term coeff"))
            for t in obj["terms"]
        )
        return Affine(terms, _json_int(obj["const"], "affine const"))
    except (KeyError, TypeError) as exc:
        raise PlanError(f"bad affine offset object: {obj!r}") from exc


def _body_from_obj(obj: dict, depth: int = 0) -> ScalarReadPlan:
    if depth > MAX_BODY_DEPTH:
        raise PlanError(f"plan body nests deeper than {MAX_BODY_DEPTH} ops")
    if "buffer" in obj:
        return LeafRead(_json_str(obj["buffer"], "read buffer"), _affine_from_obj(obj["offset"]))
    if "op" in obj:
        if obj["op"] not in OPS:
            raise PlanError(f"body op must be one of {OPS}, got {obj['op']!r}")
        args = obj.get("args", [])
        if len(args) != 2:
            raise PlanError(f"body op node needs 2 args, got {len(args)}")
        return Combine(
            obj["op"], _body_from_obj(args[0], depth + 1), _body_from_obj(args[1], depth + 1)
        )
    raise PlanError(f"unrecognized body node: {obj!r}")


def plan_from_json(text: str) -> LoopPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid plan JSON: {exc}") from exc
    except RecursionError:
        raise PlanError(
            f"plan JSON nests too deep; a body may nest {MAX_BODY_DEPTH} ops"
        ) from None
    try:
        loops = tuple(
            LoopSpec(
                var=_json_str(l["var"], "loop var"),
                start=_json_int(l["start"], "loop start"),
                stop=_json_int(l["stop"], "loop stop"),
                stride=_json_int(l["stride"], "loop stride"),
                count=_json_int(l["count"], "loop count"),
            )
            for l in doc["loops"]
        )
        write_obj = doc["body"]["write"]
        plan = LoopPlan(
            procs=_json_int(doc["procs"], "procs"),
            out_shape=as_shape(_json_int(e, "out_shape extent") for e in doc["out_shape"]),
            loops=loops,
            write=FlatWrite(
                _json_str(write_obj["buffer"], "write buffer"),
                _affine_from_obj(write_obj["offset"]),
            ),
            body=_body_from_obj(doc["body"]["expr"]),
        )
    except (KeyError, TypeError) as exc:
        raise PlanError(f"plan JSON missing or malformed field: {exc}") from exc
    return plan
