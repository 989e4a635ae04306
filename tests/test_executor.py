"""The strided plan executor on hand-written plan JSON.

lower only emits loops with start 0 and stride 1 and offsets with const 0,
so these plans reach the rest of the plan-JSON contract: loop starts and
strides, constants, negative and repeated coefficients, broadcast reads,
count-1 loops, and writes that are not row-major.  Each is checked bit for
bit against a scalar interpreter that runs the loop nest one element at a
time.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import random
import warnings

import numpy as np
import pytest

from moa import (
    Affine,
    DenseArray,
    DomainError,
    EvaluationError,
    FlatRead,
    FlatWrite,
    LeafRead,
    LoopPlan,
    LoopSpec,
    PlanError,
    execute_plan,
    pi,
    plan_from_json,
    plan_to_json,
)
from moa import lowering
from moa.cli import main

SCALAR_OPS = dict(mul=operator.mul, add=operator.add, sub=operator.sub, div=operator.truediv)


def box(loops) -> list[dict[str, int]]:
    """Every binding of the loop variables, in loop order."""
    names = [loop.var for loop in loops]
    values = (range(loop.start, loop.stop, loop.stride) for loop in loops)
    return [dict(zip(names, point)) for point in itertools.product(*values)]


def at(affine: Affine, binding: dict[str, int]) -> int:
    return affine.const + sum(coeff * binding[var] for var, coeff in affine.terms)


def scalar_run(plan: LoopPlan, buffers: dict[str, np.ndarray]) -> np.ndarray:
    """Reference: evaluate the body one loop-box point at a time."""
    out = np.full(pi(plan.out_shape), np.nan)
    for binding in box(plan.loops):

        def body(node) -> float:
            if isinstance(node, LeafRead):
                offset = at(node.offset, binding)
                assert 0 <= offset < buffers[node.name].size
                return float(buffers[node.name][offset])
            return SCALAR_OPS[node.op](body(node.left), body(node.right))

        offset = at(plan.write.offset, binding)
        assert 0 <= offset < out.size and np.isnan(out[offset])
        out[offset] = body(plan.body)
    return out


def loop(var: str, start: int, stop: int, stride: int = 1) -> dict:
    count = len(range(start, stop, stride))
    return {"var": var, "start": start, "stop": stop, "stride": stride, "count": count}


def offset(*terms: tuple[str, int], const: int = 0) -> dict:
    return {"terms": [{"var": var, "coeff": coeff} for var, coeff in terms], "const": const}


def read(buffer: str, *terms: tuple[str, int], const: int = 0) -> dict:
    return {"buffer": buffer, "offset": offset(*terms, const=const)}


def op(name: str, left: dict, right: dict) -> dict:
    return {"op": name, "args": [left, right]}


def plan_text(loops: list[dict], write: dict, expr: dict) -> str:
    size = 1
    for spec in loops:
        size *= spec["count"]
    body = {"write": {"buffer": "out", "offset": write}, "expr": expr}
    return json.dumps({"procs": 1, "out_shape": [size], "loops": loops, "body": body})


BUFFERS = {
    "avec": np.array([0.1 * k + 1.0 for k in range(12)]),
    "bvec": np.array([1.0, -2.5, 3.25, 0.3, -7.0, 1e-3, 11.0]),
}

P3, Q4 = loop("p", 0, 3), loop("q", 0, 4)
ROW_MAJOR = offset(("p", 4), ("q", 1))

PLANS = {
    "start and stride": plan_text(
        [loop("p", 2, 8, 3), loop("q", 1, 4)],
        offset(("p", 1), ("q", 1), const=-3),
        op("mul", read("avec", ("p", 2), ("q", 1), const=-4), read("bvec", ("q", 2), const=-2)),
    ),
    "const offsets": plan_text(
        [P3, Q4],
        ROW_MAJOR,
        op("add", read("avec", ("p", 3), ("q", 1), const=2), read("bvec", ("q", 1), const=3)),
    ),
    "negative coefficients": plan_text(
        [P3, Q4],
        ROW_MAJOR,
        op("sub", read("avec", ("p", -4), ("q", -1), const=11), read("bvec", ("q", -1), const=6)),
    ),
    "reversed write": plan_text(
        [P3, Q4], offset(("p", -4), ("q", -1), const=11), read("avec", ("p", 4), ("q", 1))
    ),
    "column-major write": plan_text(
        [P3, Q4],
        offset(("p", 1), ("q", 3)),
        op("div", read("avec", ("p", 4), ("q", 1)), read("bvec", ("p", 1), ("q", 1))),
    ),
    "repeated var": plan_text(
        [P3, loop("q", 0, 2)],
        offset(("p", 2), ("q", 1)),
        op(
            "div",
            read("avec", ("p", 1), ("p", 2), ("q", 1)),
            read("bvec", ("q", 1), ("q", 1), const=1),
        ),
    ),
    "broadcast read": plan_text(
        [P3, Q4],
        ROW_MAJOR,
        op(
            "mul",
            read("avec", ("p", 0), ("q", 1)),
            op("add", read("bvec", const=2), read("avec", ("p", 4))),
        ),
    ),
    "count-1 loop with a huge coefficient": plan_text(
        [loop("p", 0, 4), loop("r", 0, 1), loop("q", 0, 3)],
        offset(("p", 3), ("r", 10**30), ("q", 1)),
        op(
            "mul",
            read("avec", ("r", 10**30), ("p", 3), ("q", 1)),
            read("bvec", ("r", -(10**30)), ("q", 2)),
        ),
    ),
}


def processor_counts(plan: LoopPlan) -> list[int]:
    outer = plan.loops[0].count
    return [procs for procs in range(1, outer + 1) if outer % procs == 0]


@pytest.mark.parametrize("text", PLANS.values(), ids=PLANS.keys())
@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_hand_written_plans_match_the_scalar_interpreter(text, parallel):
    plan = plan_from_json(text)
    expected = scalar_run(plan, BUFFERS).tobytes()
    counts = processor_counts(plan)
    assert len(counts) > 1
    for procs in counts:
        split = dataclasses.replace(plan, procs=procs)
        assert execute_plan(split, BUFFERS, parallel=parallel).to_numpy().tobytes() == expected


def test_reversed_write_reverses_the_output():
    plan = plan_from_json(PLANS["reversed write"])
    out = execute_plan(plan, BUFFERS)
    assert out.to_numpy().tolist() == BUFFERS["avec"][::-1].tolist()


P2_Q3 = (LoopSpec("p", 0, 2, 1, 2), LoopSpec("q", 0, 3, 1, 3))


def simple_plan(write: Affine, loops=P2_Q3) -> LoopPlan:
    size = pi(tuple(loop.count for loop in loops))
    body = FlatRead("avec", Affine(()))
    return LoopPlan(1, (size,), tuple(loops), FlatWrite("out", write), body)


@pytest.mark.parametrize(
    "write",
    [
        Affine((("p", 3),)),  # misses var q: each write lands three times
        Affine((("p", 6), ("q", 1))),  # doubled coefficient: gaps, then past the end
        Affine((("p", 3), ("q", 1)), 1),  # shifted past the end
        Affine((("p", 3), ("q", 1), ("q", 1))),  # q counted twice
        Affine((("p", 1), ("q", 1))),  # overlapping steps
    ],
    ids=["missing var", "doubled coeff", "shifted", "repeated var", "overlap"],
)
def test_write_must_cover_out_exactly_once(write):
    with pytest.raises(PlanError, match="exactly once"):
        simple_plan(write)


def brute_force_covers(loops: list[LoopSpec], write: Affine) -> bool:
    offsets = [at(write, binding) for binding in box(loops)]
    return np.array_equal(np.unique(offsets), np.arange(len(offsets)))


def random_write(rng: random.Random, loops: list[LoopSpec]) -> Affine:
    """A write that often covers out exactly once, and often nearly does."""
    radix, terms = 1, []
    for spec in rng.sample(loops, len(loops)):
        step = radix * rng.choice([1, -1])
        coeff = step // spec.stride if step % spec.stride == 0 else rng.randint(-3, 3)
        if spec.count == 1 and rng.random() < 0.3:
            coeff = rng.choice([10**30, -(10**30), 0])
        terms.append((spec.var, coeff + (rng.random() < 0.15) * rng.choice([-1, 1])))
        radix *= spec.count
    if rng.random() < 0.1:
        terms.append((rng.choice(loops).var, rng.randint(-2, 2)))
    low = min(at(Affine(tuple(terms)), binding) for binding in box(loops))
    return Affine(tuple(terms), -low + (rng.random() < 0.1) * rng.choice([-1, 1]))


def test_write_check_matches_brute_force_on_random_plans():
    rng = random.Random(20091)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        loops = []
        for var in "pqr"[: rng.randint(1, 3)]:
            start, stride, count = rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 4)
            loops.append(LoopSpec(var, start, start + stride * count, stride, count))
        write = random_write(rng, loops)
        covers = brute_force_covers(loops, write)
        outcomes[covers] += 1
        if covers:
            simple_plan(write, loops)
        else:
            with pytest.raises(PlanError, match="exactly once"):
                simple_plan(write, loops)
    assert min(outcomes.values()) >= 100, outcomes


def test_zero_element_plan_is_rejected():
    with pytest.raises(PlanError, match="zero-element"):
        simple_plan(Affine((("p", 1),)), (LoopSpec("p", 0, 0, 1, 0),))


def test_reads_are_checked_before_any_arithmetic():
    # element 0 divides by zero, but element 2 reads past the end of bvec
    quotient = op("div", read("avec"), read("bvec", ("p", 3), const=1))
    text = plan_text([P3], offset(("p", 1)), quotient)
    buffers = {"avec": np.ones(1), "bvec": np.array([1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0])}
    with pytest.raises(PlanError, match=r"read offset 7 out of range \[0, 7\)"):
        execute_plan(plan_from_json(text), buffers)
    below = plan_text([P3], offset(("p", 1)), read("avec", ("p", -1), const=1))
    with pytest.raises(PlanError, match=r"read offset -1 out of range \[0, 3\)"):
        execute_plan(plan_from_json(below), {"avec": np.ones(3)})
    with pytest.raises(EvaluationError, match="division by zero"):
        execute_plan(plan_from_json(text), {**buffers, "bvec": np.zeros(8)})


def test_non_finite_result_is_a_domain_error():
    square = op("mul", read("avec", ("p", 1)), read("avec"))
    text = plan_text([loop("p", 0, 2)], offset(("p", 1)), square)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parallel in (False, True):
            plan = dataclasses.replace(plan_from_json(text), procs=2)
            with pytest.raises(DomainError, match="must be finite"):
                execute_plan(plan, {"avec": np.array([1e308, 1e308])}, parallel=parallel)


@pytest.mark.parametrize(
    "command", [["eval"], ["onf", "--run"], ["onf", "--run", "--parallel", "--procs", "2"]]
)
def test_routes_agree_on_non_finite_results(command, tmp_path, capsys):
    path = tmp_path / "A.json"
    path.write_text(DenseArray((2,), [1e308, 1e308]).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--expr", "outer(mul, A, A)", "--array", f"A={path}"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: array elements must be finite\n")


def nested_add_plan(depth: int) -> str:
    leaf = '{"buffer": "avec", "offset": {"terms": [], "const": 0}}'
    body = '{"op": "add", "args": [' * depth + leaf + (", " + leaf + "]}") * depth
    head = plan_text([loop("p", 0, 1)], offset(("p", 1)), {})
    return head.replace('"expr": {}', '"expr": ' + body)


def test_deep_plan_bodies_are_plan_errors():
    depth = lowering.MAX_BODY_DEPTH
    plan = plan_from_json(nested_add_plan(depth))
    assert execute_plan(plan, {"avec": np.array([2.0])}).data == (2.0 * (depth + 1),)
    assert plan_from_json(plan_to_json(plan)).body.op == "add"
    for deeper in (depth + 1, 3000):
        with pytest.raises(PlanError, match="nest"):
            plan_from_json(nested_add_plan(deeper))


def test_output_that_cannot_be_allocated_is_a_plan_error(monkeypatch):
    size = 10**12
    text = plan_text([loop("p", 0, size)], offset(("p", 1)), read("avec"))

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lowering.np, "empty", refuse)
    with pytest.raises(PlanError, match=f"{size} elements"):
        execute_plan(plan_from_json(text), {"avec": np.ones(1)})
