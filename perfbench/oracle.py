"""Expression trees on the benchmark side, their grammar text, and numpy oracles.

The program under test only ever sees the text that `show` prints and the
array JSON files the workloads write.  Everything here is independent of the
`moa` package: expected results come from numpy evaluating the same tree
stepwise (every intermediate materialized), from a numpy interpreter of the
documented plan JSON, and from plain Python floats for DNF read plans.

A tree is a tuple:

    ("leaf", name)
    ("outer", op, left, right)      op in mul, add, sub, div
    ("kron", left, right)
    ("transpose", perm, child)
    ("reshape", shape, child)
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

NP_OPS = {"mul": np.multiply, "add": np.add, "sub": np.subtract, "div": np.divide}
PY_OPS = {"mul": operator.mul, "add": operator.add, "sub": operator.sub, "div": operator.truediv}


def show(tree) -> str:
    """Grammar text of a tree, as `moa --expr` reads it."""
    tag = tree[0]
    if tag == "leaf":
        return tree[1]
    if tag == "outer":
        return f"outer({tree[1]}, {show(tree[2])}, {show(tree[3])})"
    if tag == "kron":
        return f"kron({show(tree[1])}, {show(tree[2])})"
    ints = ", ".join(str(v) for v in tree[1])
    return f"{tag}([{ints}], {show(tree[2])})"


def shape_of(tree, shapes: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    tag = tree[0]
    if tag == "leaf":
        return shapes[tree[1]]
    if tag == "outer":
        return shape_of(tree[2], shapes) + shape_of(tree[3], shapes)
    if tag == "kron":
        (m, n), (p, q) = shape_of(tree[1], shapes), shape_of(tree[2], shapes)
        return (m * p, n * q)
    child = shape_of(tree[2], shapes)
    if tag == "transpose":
        return tuple(child[k] for k in tree[1])
    return tuple(tree[1])


def nodes(tree):
    """Every node of a tree, root first."""
    yield tree
    tag = tree[0]
    if tag in ("outer", "kron"):
        yield from nodes(tree[-2])
        yield from nodes(tree[-1])
    elif tag != "leaf":
        yield from nodes(tree[2])


def leaf_names(tree) -> list[str]:
    """Leaf names in reading order, one per occurrence."""
    return [node[1] for node in nodes(tree) if node[0] == "leaf"]


def stepwise(tree, env: dict[str, np.ndarray]) -> tuple[np.ndarray, bool]:
    """Materialize every intermediate with numpy.

    Returns the value and whether any division met a zero denominator, in
    which case the program must refuse the whole-array evaluation (exit 3).
    """
    zero_den = False

    def walk(node):
        nonlocal zero_den
        tag = node[0]
        if tag == "leaf":
            return env[node[1]]
        if tag == "outer":
            left, right = walk(node[2]), walk(node[3])
            if node[1] == "div" and not np.all(right != 0.0):
                zero_den = True
            return NP_OPS[node[1]].outer(left, right)
        if tag == "kron":
            return np.kron(walk(node[1]), walk(node[2]))
        if tag == "transpose":
            return np.transpose(walk(node[2]), node[1])
        return walk(node[2]).reshape(node[1])

    with np.errstate(divide="ignore", invalid="ignore"):
        value = walk(tree)
    return value, zero_den


def kron_fold(factors: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def buffer_name(leaf: str) -> str:
    """Documented plan-JSON convention: leaf A reads the flat buffer avec."""
    return leaf.lower() + "vec"


def run_plan(doc: dict, env: dict[str, np.ndarray]) -> np.ndarray:
    """Interpret a plan JSON document with numpy gathers and one scatter.

    Raises ValueError when the plan reads outside a buffer or its writes do
    not cover every output element exactly once.
    """
    loops = doc["loops"]
    out_shape = tuple(doc["out_shape"])
    size = math.prod(out_shape)
    axes = [np.arange(l["start"], l["stop"], l["stride"]) for l in loops]
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    var = {l["var"]: g.reshape(-1) for l, g in zip(loops, grids)}
    count = math.prod(len(a) for a in axes)
    if count != size:
        raise ValueError(f"loops run {count} iterations for {size} elements")

    def offsets(affine) -> np.ndarray:
        total = np.full(count, affine["const"], dtype=np.int64)
        for term in affine["terms"]:
            total += term["coeff"] * var[term["var"]]
        return total

    buffers = {buffer_name(name): value.reshape(-1) for name, value in env.items()}

    def body(node) -> np.ndarray:
        if "buffer" in node:
            buf = buffers[node["buffer"]]
            off = offsets(node["offset"])
            if count and (off.min() < 0 or off.max() >= buf.size):
                raise ValueError(f"read of {node['buffer']} out of range")
            return buf[off]
        left, right = node["args"]
        return NP_OPS[node["op"]](body(left), body(right))

    write = offsets(doc["body"]["write"]["offset"])
    if not np.array_equal(np.sort(write), np.arange(size)):
        raise ValueError("plan writes do not cover the output exactly once")
    out = np.empty(size)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[write] = body(doc["body"]["expr"])
    return out.reshape(out_shape)


def eval_read_plan(node, env: dict[str, np.ndarray]) -> tuple[float, int]:
    """Value of a DNF read plan in Python floats, and how many reads it made."""
    if "array" in node:
        flat = env[node["array"]].reshape(-1)
        offset = node["offset"]
        if not 0 <= offset < flat.size:
            raise ValueError(f"read of {node['array']} at {offset} out of range")
        return float(flat[offset]), 1
    (left, lreads), (right, rreads) = (eval_read_plan(arg, env) for arg in node["args"])
    return PY_OPS[node["op"]](left, right), lreads + rreads
