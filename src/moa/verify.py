"""Self-checking: dual-route verification suites over a built-in grid.

Every suite pits two independent implementations against each other.  The
normalized route evaluates expressions by index rewriting (psi_reduce over
the expression, one read per leaf).  The stepwise route materializes every
intermediate with numpy's own outer/transpose/reshape/kron.  The loop-plan
route lowers to an affine loop nest and executes it.  Agreement across
routes is the evidence that the rewriting is sound; the routes are kept
separate on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import DenseArray
from .dyadics import dyad, projector_parallel, spectral_reconstruct
from .errors import PartitionError
from .exprs import (
    ExprNode,
    Kron,
    Leaf,
    Outer,
    Reshape,
    TransposeG,
    eval_element,
)
from .lowering import execute_plan, flatten_operands, lower, plan_from_json, plan_to_json
from .permute import transpose_general
from .shapes import gradeup, pi, select, unravel_rowmajor

_NP_OUTER = {
    "mul": np.multiply,
    "add": np.add,
    "sub": np.subtract,
    "div": np.divide,
}


def materialize_stepwise(expr: ExprNode, env: dict[str, DenseArray]) -> np.ndarray:
    """Oracle evaluator: materialize every intermediate with numpy."""
    if isinstance(expr, Leaf):
        return env[expr.name].to_numpy()
    if isinstance(expr, Outer):
        left = materialize_stepwise(expr.left, env)
        right = materialize_stepwise(expr.right, env)
        return _NP_OUTER[expr.op].outer(left, right).reshape(expr.shape)
    if isinstance(expr, TransposeG):
        return np.transpose(materialize_stepwise(expr.child, env), expr.perm)
    if isinstance(expr, Reshape):
        return materialize_stepwise(expr.child, env).reshape(expr.shape)
    if isinstance(expr, Kron):
        return np.kron(
            materialize_stepwise(expr.left, env), materialize_stepwise(expr.right, env)
        )
    raise TypeError(f"unknown node {type(expr).__name__}")


GRID_LEAF_SHAPES: dict[str, tuple[int, ...]] = {
    "A": (2, 2),
    "B": (3, 3),
    "C": (2, 3),
    "D": (6,),
    "E": (2, 2, 2),
}


def builtin_env(seed: int) -> dict[str, DenseArray]:
    """Deterministic leaf bindings: small positive integers, so every op
    (including div) is exact enough to compare across routes."""
    rng = np.random.default_rng(seed)
    env = {}
    for name, shape in GRID_LEAF_SHAPES.items():
        values = rng.integers(1, 10, size=pi(shape)).astype(np.float64)
        env[name] = DenseArray(shape, values)
    return env


def builtin_grid() -> list[ExprNode]:
    """Expressions covering every node type, each op, and their nestings."""
    a = Leaf("A", GRID_LEAF_SHAPES["A"])
    b = Leaf("B", GRID_LEAF_SHAPES["B"])
    c = Leaf("C", GRID_LEAF_SHAPES["C"])
    d = Leaf("D", GRID_LEAF_SHAPES["D"])
    e = Leaf("E", GRID_LEAF_SHAPES["E"])
    return [
        a,
        d,
        Outer("mul", a, b),
        Outer("add", c, d),
        Outer("sub", a, a),
        Outer("div", b, a),
        Outer("mul", d, d),
        TransposeG((1, 0), c),
        TransposeG((2, 0, 1), e),
        TransposeG((0, 2, 1, 3), Outer("mul", a, c)),
        Reshape((4,), a),
        Reshape((3, 2), c),
        Reshape((4, 9), Outer("mul", a, b)),
        Reshape((2, 3, 2, 3), TransposeG((0, 2, 1, 3), Outer("add", c, c))),
        Kron(a, b),
        Kron(a, c),
        Kron(c, a),
        Kron(Kron(a, a), a),
        Outer("mul", Outer("mul", a, b), a),
        Outer("div", Kron(a, a), a),
        TransposeG((3, 2, 1, 0), Outer("sub", a, b)),
        Reshape((6, 6), Outer("mul", Reshape((6,), c), d)),
    ]


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(message)


def suite_dnf(seed: int = 0) -> SuiteResult:
    """Index-rewriting evaluation equals stepwise materialization,
    element by element, over the whole grid."""
    result = SuiteResult("dnf")
    env = builtin_env(seed)
    for expr in builtin_grid():
        expected = materialize_stepwise(expr, env)
        for offset in range(pi(expr.shape)):
            index = unravel_rowmajor(offset, expr.shape)
            got = eval_element(expr, index, env)
            want = float(expected.reshape(-1)[offset])
            result.check(
                got == want,
                f"element mismatch at {index} of {expr!r}: {got} != {want}",
            )
    return result


def suite_permute(seed: int = 0) -> SuiteResult:
    """Transpose definition against numpy, plus gradeup inversion."""
    result = SuiteResult("permute")
    rng = np.random.default_rng(seed)
    for _ in range(40):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(x) for x in rng.integers(1, 5, size=rank))
        perm = tuple(int(x) for x in rng.permutation(rank))
        values = rng.standard_normal(pi(shape))
        array = DenseArray(shape, values)
        ours = transpose_general(perm, array).to_numpy()
        theirs = np.transpose(array.to_numpy(), perm)
        result.check(
            bool(np.array_equal(ours, theirs)),
            f"transpose mismatch for shape {shape}, perm {perm}",
        )
        inverse = gradeup(perm)
        result.check(
            select(perm, inverse) == tuple(range(rank)),
            f"gradeup failed to invert {perm}",
        )
    return result


def suite_onf(seed: int = 0) -> SuiteResult:
    """Loop plans reproduce stepwise results for every valid processor
    count, sequentially and in parallel, and survive a JSON round trip."""
    result = SuiteResult("onf")
    env = builtin_env(seed)
    for expr in builtin_grid():
        expected = materialize_stepwise(expr, env)
        buffers = flatten_operands(env)
        outer_extent = lower(expr, procs=1).loops[0].count
        valid = [1] + [d for d in range(2, outer_extent + 1) if outer_extent % d == 0]
        for procs in valid:
            plan = lower(expr, procs=procs)
            sequential = execute_plan(plan, buffers, parallel=False)
            result.check(
                bool(np.array_equal(sequential.to_numpy(), expected)),
                f"plan result mismatch for {expr!r} at procs={procs}",
            )
            threaded = execute_plan(plan, buffers, parallel=True)
            result.check(
                sequential.data == threaded.data,
                f"parallel execution diverged for {expr!r} at procs={procs}",
            )
            restored = plan_from_json(plan_to_json(plan))
            result.check(
                plan_to_json(restored) == plan_to_json(plan),
                f"plan JSON round trip changed for {expr!r} at procs={procs}",
            )
        bad = outer_extent + 7  # never divides: larger than the extent
        try:
            lower(expr, procs=bad)
            result.check(False, f"procs={bad} should not partition {expr!r}")
        except PartitionError:
            result.check(True, "")
    return result


def suite_dyadics(seed: int = 0) -> SuiteResult:
    """Projector identities and spectral reconstruction."""
    result = SuiteResult("dyadics")
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        raw = rng.standard_normal(n)
        unit = raw / np.linalg.norm(raw)
        p = projector_parallel(DenseArray((n,), unit)).to_numpy()
        result.check(
            float(np.max(np.abs(p @ p - p))) <= 1e-12,
            f"projector not idempotent at n={n}",
        )
        result.check(
            float(np.max(np.abs((np.eye(n) - p) @ p))) <= 1e-12,
            f"complement does not annihilate projector at n={n}",
        )
    for _ in range(40):
        n = int(rng.integers(2, 6))
        raw = rng.standard_normal((n, n))
        sym = (raw + raw.T) / 2.0
        values, vectors = np.linalg.eigh(sym)
        rebuilt = spectral_reconstruct(
            [float(v) for v in values], DenseArray.from_numpy(vectors)
        ).to_numpy()
        result.check(
            float(np.max(np.abs(rebuilt - sym))) <= 1e-10,
            f"spectral reconstruction error too large at n={n}",
        )
    return result


SUITES = {
    "dnf": suite_dnf,
    "permute": suite_permute,
    "onf": suite_onf,
    "dyadics": suite_dyadics,
}


def run_suites(names: list[str], seed: int = 0) -> list[SuiteResult]:
    return [SUITES[name](seed) for name in names]
