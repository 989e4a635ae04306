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
execute_plan runs each read as one strided numpy view of its buffer, of
extent 1 on the loops it does not vary on, and the body as exprs.fold_plan
over those views.  A body nests at most MAX_BODY_DEPTH ops deep, checked
without recursion when the plan is built, and has at most MAX_LOOPS loops,
the axes a numpy view can have.
plan_to_json writes the plan through canonical.render_json, the writer the
CLI prints with, and plan_from_json reads it back strictly.

The algorithm walks the expression to one stream of "digits", the units of
iteration in row-major order, each an extent plus one (leaf occurrence,
coefficient) pair.  A leaf is one contiguous digit over its whole buffer and
outer concatenates its operands' streams.  A reshape only relabels the
row-major ravel, so it keeps its child's stream.  Only a transpose needs
axes: it re-slices the stream into its child's axis groups, splitting a
digit only when the split is exact, and concatenates the groups in
permuted order.  A transpose that splits a reshape's axes across digits is
not affine and raises LoweringError, whose message always says "not affine".

After the walk, adjacent digits of the same read whose coefficients chain
(outer coefficient equals inner coefficient times inner extent) coalesce
into a single longer loop.  The plan's virtual processor count must
divide the outermost coalesced loop extent; the outer loop is then split so
its leading dimension equals the processor count and each processor owns one
contiguous slab of the output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .arrays import DenseArray, counters
from .canonical import render_json
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
    apply_op,
    fold_plan,
    leaves,
    op_to_obj,
)
from .shapes import Shape, as_shape, pi, row_major_strides

_LOOP_NAMES = "pqrstuvw"

# Plan bodies are folded and serialized recursively (fold_plan,
# plan_to_json), so LoopPlan and plan_from_json bound their depth; an
# expression nests at most exprs.MAX_NESTING ops deep.
MAX_BODY_DEPTH = 400
# execute_plan views every read with one axis per loop, and a numpy array
# has at most 64 axes.  lower emits at most 62 loops: each counts 2 or more
# unless it is the only one, and an output has fewer than 2**63 elements.
MAX_LOOPS = 64


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
        # len(range(...)) would overflow a C ssize_t past 2**63 on plan JSON
        expected = (self.stop - self.start + self.stride - 1) // self.stride
        if self.count != expected:
            raise PlanError(
                f"loop {self.var}: count {self.count} does not match "
                f"range({self.start}, {self.stop}, {self.stride}) = {expected}"
            )


def _body_depth(body: ScalarReadPlan) -> int:
    """Most Combine nodes on one path from the root.  Iterative, so an
    API-built body of any depth costs no stack."""
    deepest = 0
    stack = [(body, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Combine):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        else:
            deepest = max(deepest, depth)
    return deepest


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
        if len(self.loops) > MAX_LOOPS:
            raise PlanError(f"a loop plan has at most {MAX_LOOPS} loops, got {len(self.loops)}")
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
        if _body_depth(self.body) > MAX_BODY_DEPTH:
            raise PlanError(f"plan body nests deeper than {MAX_BODY_DEPTH} ops")
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

class _Digit(NamedTuple):
    """One unit of iteration: an extent, the leaf occurrence it reads (-1
    for none) and its nonzero coefficient in that read's offset."""

    extent: int
    occ: int
    coeff: int


def _split_digit(digit: _Digit, head: int) -> tuple[_Digit, _Digit]:
    """Split extent e into (head, e // head); head must divide e.

    The original digit value v factors as v = hi * (e // head) + lo, so the
    high digit inherits the coefficient scaled by the low extent.
    """
    low = digit.extent // head
    return _Digit(head, digit.occ, digit.coeff * low), _Digit(low, digit.occ, digit.coeff)


def _regroup(stream: list[_Digit], transpose: TransposeG) -> list[list[_Digit]]:
    """Re-slice a digit stream into groups whose extents multiply to the axis
    extents of the transpose's child, splitting digits when the split is exact.

    The stream coalesces first: adjacent digits whose reads chain act as one
    contiguous run, so only axes that cut across a reshape's digits can fail.
    The extents hold the stream's element count and no digit has extent 1,
    so each group fills exactly."""
    queue = _coalesce(stream)[::-1]  # next digit last
    groups: list[list[_Digit]] = []
    perm = list(transpose.perm)  # names the transpose in errors
    for extent in transpose.child.shape:
        group: list[_Digit] = []
        acc = 1
        while acc < extent:
            digit = queue.pop()
            if acc * digit.extent <= extent:
                group.append(digit)
                acc *= digit.extent
            else:
                head, rem = divmod(extent, acc)
                if rem != 0:
                    raise LoweringError(
                        f"transpose {perm} cannot take an axis of extent {extent}: "
                        f"its leading digits span {acc}; access is not affine"
                    )
                if digit.extent % head != 0:
                    raise LoweringError(
                        f"transpose {perm} cannot take an axis of extent {extent}: a digit "
                        f"of extent {digit.extent} does not split by {head}; access is not affine"
                    )
                hi, lo = _split_digit(digit, head)
                group.append(hi)
                acc *= head
                queue.append(lo)
        groups.append(group)
    return groups


def _build(expr: ExprNode, counter: itertools.count) -> tuple[list[_Digit], ScalarReadPlan]:
    """Walk the expression; return its digit stream, outermost first, and a
    body whose reads carry their leaf occurrence as the offset until lower
    knows the digits."""
    if isinstance(expr, Leaf):
        occ = next(counter)
        size = pi(expr.shape)
        return ([_Digit(size, occ, 1)] if size > 1 else []), LeafRead(buffer_name(expr.name), occ)

    if isinstance(expr, Outer):
        left, left_body = _build(expr.left, counter)
        right, right_body = _build(expr.right, counter)
        return left + right, Combine(expr.op, left_body, right_body)

    if isinstance(expr, TransposeG):
        stream, body = _build(expr.child, counter)
        groups = _regroup(stream, expr)
        return [digit for k in expr.perm for digit in groups[k]], body

    if isinstance(expr, Reshape):
        return _build(expr.child, counter)

    if isinstance(expr, Kron):
        return _build(expr.desugared, counter)

    raise LoweringError(f"cannot lower node {type(expr).__name__}")


def _coalesce(digits: list[_Digit]) -> list[_Digit]:
    """Merge adjacent digits whose read coefficients chain.

    Digits u (outer) and v (inner) merge when they read the same leaf
    occurrence and coeff_u == coeff_v * extent_v; digits of two reads never
    chain, as neither coefficient is 0.  The write side always chains,
    because write coefficients are suffix products of the digit extents.
    """
    merged = list(digits)
    k = 0
    while k + 1 < len(merged):
        u, v = merged[k], merged[k + 1]
        if u.occ == v.occ and u.coeff == v.coeff * v.extent:
            merged[k : k + 2] = [_Digit(u.extent * v.extent, v.occ, v.coeff)]
            if k > 0:
                k -= 1  # the new digit may chain with its left neighbor
        else:
            k += 1
    return merged


def _nontrivial_divisors(n: int) -> tuple[int, ...]:
    """The divisors of n from 2 up, found in pairs (d, n // d) with d <= isqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(small[1:] + [n // d for d in reversed(small) if d * d != n])


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

    stream, body = _build(expr, itertools.count())
    digits = _coalesce(stream)

    outer_extent = digits[0].extent if digits else 1
    if procs != 1:
        if outer_extent % procs != 0:
            valid = _nontrivial_divisors(outer_extent)
            raise PartitionError(
                f"procs {procs} does not divide the outer loop extent "
                f"{outer_extent}; valid processor counts: "
                f"{', '.join(map(str, valid)) or '1'}",
                valid=valid,
            )
        if procs < outer_extent:
            hi, lo = _split_digit(digits[0], procs)
            digits[0:1] = [hi, lo]

    if not digits:
        digits = [_Digit(1, -1, 0)]

    names = [_loop_name(k) for k in range(len(digits))]
    loops = tuple(
        LoopSpec(var=name, start=0, stop=d.extent, stride=1, count=d.extent)
        for name, d in zip(names, digits)
    )

    strides = row_major_strides(tuple(d.extent for d in digits))
    write = FlatWrite("out", Affine(tuple(zip(names, strides)), 0))

    def realize(read: LeafRead) -> LeafRead:
        terms = tuple(
            (name, digit.coeff) for name, digit in zip(names, digits) if digit.occ == read.offset
        )
        return LeafRead(read.name, Affine(terms, 0))

    return LoopPlan(
        procs=procs,
        out_shape=out_shape,
        loops=loops,
        write=write,
        body=fold_plan(body, realize, Combine),
    )


# --- execution ---------------------------------------------------------------

def flatten_operands(env: dict[str, DenseArray]) -> dict[str, np.ndarray]:
    """Bind leaf arrays to the flat buffers a plan reads.

    Leaf A becomes buffer avec, A's own read-only row-major buffer: no copy
    and no reshape, so an operand of any rank binds.
    """
    buffers: dict[str, np.ndarray] = {}
    for name, array in env.items():
        bname = buffer_name(name)
        if bname in buffers:
            raise LoweringError(f"operand names {sorted(env)} collide under buffer naming")
        buffers[bname] = array._buffer
    return buffers


# Slabs go to threads only when each holds at least this many elements;
# below it a threaded run, which builds its pool, costs more than the ufunc
# work it overlaps.  Measured on kron(kron(A8, B), C4) chains on a shared
# 2-core Xeon, median ms in order / threaded over two to four runs:
#   slab 2**18: procs 2, 2**19 elements 2.84-3.05 / 4.17-4.23;
#               procs 4, 2**20 elements 4.93-7.46 / 7.12-8.47
#   slab 2**19: procs 2, 2**20 elements 5.10-5.41 / 6.27-7.07;
#               procs 4, 2**21 elements 11.3-14.6 / 11.0-13.7
#   slab 2**20: procs 2, 2**21 elements 11.0-15.4 / 10.1-12.7;
#               procs 4, 2**22 elements 24.0-27.0 / 19.3-22.2
#   slab 2**21: procs 2, 2**22 elements 23.9-31.8 / 20.0-20.3
PARALLEL_MIN_SLAB = 2**20


def execute_plan(
    plan: LoopPlan, buffers: dict[str, np.ndarray], parallel: bool = False
) -> DenseArray:
    """Run a plan over flat input buffers and return the output array.

    Each read is a read-only strided view, bounds-checked at its lowest and
    highest offset before any arithmetic, with extent 1 on every loop its
    offset does not vary on.  numpy broadcasting then folds each op over only
    the loops its operands span, and only the root op, written straight into
    a strided view of out, fills the whole loop box.  With ``parallel`` and
    slabs of at least PARALLEL_MIN_SLAB elements, processor k fills slab k,
    a slice of the outer loop, on a thread pool of min(procs, os.cpu_count())
    threads built for the run; otherwise the slabs run in order, as one fold
    over the whole box.  Each element sees the same ops in the same order
    either way, so results are identical bit for bit.  A non-finite result
    is a DomainError.
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
        extents = [count if step else 1 for count, step in zip(counts, steps)]
        views[read] = as_strided(buffer[base:], extents, [8 * s for s in steps], writeable=False)

    def fold(part: slice, into: np.ndarray) -> None:
        """Fold the body over loop-0 indices ``part`` into ``into``: the root
        op writes straight into it, and a read of extent 1 on loop 0 is not sliced."""

        def read(leaf: LeafRead) -> np.ndarray:
            view = views[leaf]
            return view[part] if len(view) > 1 else view

        # errstate is per thread; overflow shows up in the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(plan.body, Combine):
                left, right = fold_plan(plan.body.left, read), fold_plan(plan.body.right, read)
                apply_op(plan.body.op, left, right, out=into)
            else:
                into[...] = read(plan.body)

    size = pi(plan.out_shape)
    chunk = counts[0] // plan.procs
    base, steps, _, _ = _fold_offset(plan.write.offset, plan.loops)

    def run_slab(k: int) -> None:
        slab = slice(k * chunk, (k + 1) * chunk)
        fold(slab, target[slab])

    try:
        out = np.empty(size, dtype=np.float64)
        target = as_strided(out[base:], counts, [8 * s for s in steps])
        if parallel and plan.procs > 1 and size // plan.procs >= PARALLEL_MIN_SLAB:
            from concurrent.futures import ThreadPoolExecutor  # only a threaded run loads it

            with ThreadPoolExecutor(max_workers=min(plan.procs, os.cpu_count() or 1)) as pool:
                list(pool.map(run_slab, range(plan.procs)))  # re-raises a slab's error
        else:
            fold(slice(None), target)
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


def _read_to_obj(read: LeafRead) -> dict:
    return {"buffer": read.name, "offset": _affine_to_obj(read.offset)}


def plan_to_json(plan: LoopPlan) -> str:
    """Canonical JSON for a plan, from the one writer canonical.render_json:
    sorted keys, two-space indent, strings escaped to ASCII."""
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
            "expr": fold_plan(plan.body, _read_to_obj, op_to_obj),
        },
    }
    return render_json(doc)


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
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
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
