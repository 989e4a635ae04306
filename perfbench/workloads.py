"""Seeded inputs and request schedules for the benchmark's workloads.

Each workload writes its array JSON files once, then yields cycles of
requests forever.  A request is one `moa` command line; its check compares
what the command printed with a numpy oracle and says how many output
elements the request delivered.  The number and size of requests in a cycle
is fixed, and the seed only chooses values, factor orders, indices and
random trees, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# One CLI call: exit code (or "traceback" / "exit:<code>"), stdout, stderr.
Call = tuple[object, str, str]
# A check returns a failure message (None when correct) and the number of
# output elements the request delivered.
Check = Callable[[list[Call]], tuple[str | None, int]]

DATA_ERROR = 3  # documented exit code for shape, index and evaluation errors
PROCS = 2  # --procs for parallel requests: the nproc of the reference box
# What `moa` prints for the two data errors the workloads provoke on
# purpose; every message of a reshape LoweringError has one of the first two.
NOT_AFFINE = ("not affine", "reshape regrouping")
ZERO_DENOMINATOR = ("division by zero",)


class Expected:
    """A request's expected value, made by a numpy oracle on first use and
    timed as the median of 3 makes."""

    def __init__(self, make: Callable[[], object], leaves: int) -> None:
        self.make = make
        self.leaves = leaves  # leaf occurrences of the request's expression
        self.seconds = 0.0
        self.made = False
        self._value = None

    @property
    def value(self):
        if not self.made:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                self._value = self.make()
                times.append(time.perf_counter() - start)
            self.seconds = statistics.median(times)
            self.made = True
        return self._value


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Check
    expected: Expected
    fallback: list[str] | None = None  # sent when argv exits DATA_ERROR
    # digest of the calls that passed the check, and the elements they
    # delivered: a repeat send whose output is byte-identical passes too
    verified: bytes | None = None
    delivered: int = 0


def _failure(call: Call) -> str:
    code, _, err = call
    return f"exit {code}: {err.strip()[-300:]}"


def _refused(call: Call, reasons: tuple[str, ...]) -> bool:
    """Whether a call exited DATA_ERROR for one of the given reasons."""
    code, _, err = call
    return code == DATA_ERROR and err.startswith("error: ") and any(r in err for r in reasons)


def _parse_array(text: str) -> np.ndarray:
    doc = json.loads(text)
    return np.array(doc["data"], dtype=np.float64).reshape(tuple(doc["shape"]))


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def check_array(expected: Expected) -> Check:
    def check(calls: list[Call]):
        call = calls[-1]
        if call[0] != 0:
            return _failure(call), 0
        got = _parse_array(call[1])
        if not _same(got, expected.value):
            return "result differs from numpy", 0
        return None, got.size

    return check


class Workload:
    name = ""
    TRACE_CYCLES = 1  # cycles in the fixed request set of a traced run

    def __init__(self, seed: int, work_dir: Path, tiny: bool) -> None:
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.arrays: dict[str, np.ndarray] = {}

    def add_array(self, stem: str, value: np.ndarray) -> str:
        """Register an input array; returns the path the CLI reads."""
        self.arrays[stem] = value
        return str(self.work_dir / f"{stem}.json")

    def write_files(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for stem, value in self.arrays.items():
            doc = {"shape": list(value.shape), "data": value.reshape(-1).tolist()}
            (self.work_dir / f"{stem}.json").write_text(json.dumps(doc))

    def cycles(self) -> Iterator[list[Request]]:
        raise NotImplementedError


class KronOnf(Workload):
    """Kronecker chains through `moa onf --run`, alternating sequential and
    `--procs 2 --parallel` requests."""

    name = "kron_onf"
    # Factor extents, the first even so that --procs 2 divides the outer
    # loop; the seed chooses the factors' values.  The 256 x 256
    # kron(kron(A8, B8), C4) appears twice beside one chain of each length
    # 2 to 6: an odd number of types whose output sizes are well apart puts
    # the median request in the middle of one type, and enough 256 x 256
    # requests put the tail inside theirs.
    BIG = (8, 8, 4)
    CHAINS = (BIG, BIG, (2, 4), (2, 3, 4), (2, 2, 3, 4), (2, 2, 2, 3, 4), (2, 2, 2, 2, 2, 2))

    def __init__(self, seed: int, work_dir: Path, tiny: bool) -> None:
        super().__init__(seed, work_dir, tiny)
        chains = self.CHAINS
        if tiny:
            chains = [(2, 2), (2, 3, 2), (2, 3)]
        self.types = []
        for t, extents in enumerate(chains):
            factors = [self.rng.standard_normal((e, e)) for e in extents]
            names = "ABCDEF"[: len(extents)]
            expr = names[0]
            for name in names[1:]:
                expr = f"kron({expr}, {name})"
            argv = ["onf", "--expr", expr, "--run"]
            for k, (name, value) in enumerate(zip(names, factors)):
                argv += ["--array", f"{name}={self.add_array(f'k{t}_{k}', value)}"]
            expected = Expected(lambda fs=factors: oracle.kron_fold(fs), len(factors))
            self.types.append((argv, expected))

    def cycles(self):
        # Two passes over an odd number of types, strictly alternating
        # sequential and parallel, run every type once each way per cycle.
        cycle = []
        for k in range(2 * len(self.types)):
            argv, expected = self.types[k % len(self.types)]
            parallel = k % 2 == 1
            if parallel:
                argv = argv + ["--procs", str(PROCS), "--parallel"]
            kind = "onf-run-par" if parallel else "onf-run"
            cycle.append(Request(kind, argv, check_array(expected), expected))
        while True:
            yield cycle


class DnfEval(Workload):
    """DNF-route requests: whole-array `moa eval`, plus single-element
    `moa eval --index` and `moa dnf --index` point queries."""

    name = "dnf_eval"
    POINTS_PER_KIND = 6  # per expression and per subcommand, in each cycle
    TRACE_CYCLES = 10

    def __init__(self, seed: int, work_dir: Path, tiny: bool) -> None:
        super().__init__(seed, work_dir, tiny)
        a_n, b_n, c_shape = (2, 3, (2, 3)) if tiny else (4, 6, (6, 10))
        env = {
            "A": self.rng.standard_normal((a_n, a_n)),
            "B": self.rng.standard_normal((b_n, b_n)),
            "C": self.rng.standard_normal(c_shape),
        }
        paths = {name: self.add_array(name, value) for name, value in env.items()}
        self.env = env
        rows, cols = c_shape
        # the README double outer product, and the grid's mixed-radix reshape
        # scaled up (lower rejects it: the split is not affine)
        exprs = {
            "bulk": ("outer", "mul", ("outer", "mul", ("leaf", "A"), ("leaf", "B")), ("leaf", "A")),
            "nonaffine": (
                "reshape",
                (rows, cols, rows, cols),
                ("transpose", (0, 2, 1, 3), ("outer", "add", ("leaf", "C"), ("leaf", "C"))),
            ),
        }
        self.exprs = {}
        for key, tree in exprs.items():
            argv = ["--expr", oracle.show(tree)]
            for name in sorted(set(oracle.leaf_names(tree))):
                argv += ["--array", f"{name}={paths[name]}"]
            shape = oracle.shape_of(tree, {n: v.shape for n, v in env.items()})
            expected = Expected(lambda t=tree: oracle.stepwise(t, env)[0], len(oracle.leaf_names(tree)))
            self.exprs[key] = (argv, shape, expected)

    def _point(self, key, command: str) -> Request:
        argv, shape, expected = self.exprs[key]
        index = tuple(int(self.rng.integers(0, e)) for e in shape)
        text = ",".join(map(str, index))

        def check(calls: list[Call]):
            code, out, _ = calls[-1]
            if code != 0:
                return _failure(calls[-1]), 0
            want = float(expected.value[index])
            if command == "eval":
                got = float(out)
            else:
                got, made = oracle.eval_read_plan(json.loads(out), self.env)
                if made != expected.leaves:
                    return f"dnf plan at {index} makes {made} reads, want {expected.leaves}", 0
            if got != want:
                return f"{command} {key}{index}: {got!r} != {want!r}", 0
            return None, 1

        return Request(f"{command}-index", [command] + argv + ["--index", text], check, expected)

    def cycles(self):
        while True:
            cycle = []
            for key in ("bulk", "nonaffine"):
                argv, _, expected = self.exprs[key]
                cycle.append(Request("eval", ["eval"] + argv, check_array(expected), expected))
                for _ in range(self.POINTS_PER_KIND):
                    cycle.append(self._point(key, "eval"))
                    cycle.append(self._point(key, "dnf"))
            yield cycle


# --- compile_mix -------------------------------------------------------------

LEAF_SHAPES = [(n,) for n in (1, 2, 3)] + [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
LEAF_EXTENTS = (1, 2, 2, 3, 3)  # extent 1 adds no loop, so draw it less often
VARIANTS = 2  # value sets per leaf shape in the shared library
MAX_ELEMENTS = 256
MAX_DEPTH = 4


def _factorization(n: int, parts: int, pick: random.Random) -> tuple[int, ...]:
    """A random shape of `parts` extents (1 allowed) whose product is n."""
    primes, p = [], 2
    while n > 1:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1
    extents = [1] * parts
    for prime in primes:
        extents[pick.randrange(parts)] *= prime
    return tuple(extents)


class TreeMaker:
    """Random well-shaped trees: depth <= 4, leaf extents 1 to 3."""

    def __init__(self, pick: random.Random) -> None:
        self.pick = pick

    def tree(self):
        while True:
            self.shapes: dict[str, tuple[int, ...]] = {}
            root = self.node(MAX_DEPTH, force=True)
            if math.prod(self.shape(root)) <= MAX_ELEMENTS:
                return root, {n: self.shapes[n] for n in set(oracle.leaf_names(root))}

    def shape(self, tree) -> tuple[int, ...]:
        return oracle.shape_of(tree, self.shapes)

    def leaf(self, shape=None):
        pick = self.pick
        reusable = [n for n, s in self.shapes.items() if shape is None or s == shape]
        if reusable and pick.random() < 0.35:
            return ("leaf", pick.choice(reusable))
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[len(self.shapes)]
        rank = pick.randint(1, 2)
        self.shapes[name] = shape or tuple(pick.choice(LEAF_EXTENTS) for _ in range(rank))
        return ("leaf", name)

    def node(self, depth: int, force: bool = False):
        pick = self.pick
        if depth == 0 or (not force and pick.random() < 0.3) or len(self.shapes) > 20:
            return self.leaf()
        kind = pick.choice(("outer", "outer", "outer", "transpose", "reshape", "reshape", "reshape", "kron"))
        if kind == "outer":
            op = pick.choice(("mul", "add", "sub", "div"))
            return ("outer", op, self.node(depth - 1), self.node(depth - 1))
        if kind == "kron":
            sides = []
            for _ in range(2):
                side = self.node(depth - 1)
                if len(self.shape(side)) != 2:
                    side = self.leaf(pick.choice(LEAF_SHAPES[3:]))
                sides.append(side)
            return ("kron", sides[0], sides[1])
        # a reshape of a bare leaf is always affine; reshape a product instead
        child = self.node(depth - 1, force=kind == "reshape")
        shape = self.shape(child)
        if kind == "transpose":
            if len(shape) < 2:
                return child
            perm = list(range(len(shape)))
            pick.shuffle(perm)
            return ("transpose", tuple(perm), child)
        return ("reshape", _factorization(math.prod(shape), pick.randint(2, 3), pick), child)


class CompileMix(Workload):
    """Random trees as grammar text, each sent as `moa onf` (plan out) and as
    `moa onf --run`, falling back to `moa eval` when onf exits 3."""

    name = "compile_mix"
    TREES_PER_CYCLE = 40
    TRACE_CYCLES = 10

    def __init__(self, seed: int, work_dir: Path, tiny: bool) -> None:
        super().__init__(seed, work_dir, tiny)
        self.tiny = tiny
        self.pick = random.Random(seed)
        self.library = {}
        for shape in LEAF_SHAPES:
            for v in range(VARIANTS):
                stem = "L" + "x".join(map(str, shape)) + f"_{v}"
                # small positive integers: sub gives exact zeros, so some
                # trees divide by zero and must be refused on every route
                value = self.rng.integers(1, 10, size=shape).astype(np.float64)
                self.library[(shape, v)] = (self.add_array(stem, value), value)

    def _requests(self, tree, shapes) -> list[Request]:
        argv = ["--expr", oracle.show(tree)]
        env = {}
        for name, shape in sorted(shapes.items()):
            path, env[name] = self.library[(shape, self.pick.randrange(VARIANTS))]
            argv += ["--array", f"{name}={path}"]
        expected = Expected(lambda: oracle.stepwise(tree, env), len(oracle.leaf_names(tree)))
        # only a reshape can make access non-affine
        may_refuse = any(n[0] == "reshape" for n in oracle.nodes(tree))
        affine = [True]  # did `moa onf` return a plan

        def check_plan(calls: list[Call]):
            code, out, _ = calls[-1]
            if may_refuse and _refused(calls[-1], NOT_AFFINE):
                affine[0] = False
                return None, 0
            if code != 0:
                return _failure(calls[-1]), 0
            affine[0] = True
            want, _ = expected.value
            doc = json.loads(out)
            if doc["procs"] != 1:
                return f"plan has procs {doc['procs']}", 0
            try:
                got = oracle.run_plan(doc, env)
            except ValueError as exc:
                return f"bad plan: {exc}", 0
            if not _same(got, want):
                return "plan computes another result than numpy", 0
            return None, 0

        def check_run(calls: list[Call]):
            want, zero_den = expected.value
            if not affine[0]:
                if not _refused(calls[0], NOT_AFFINE):
                    return f"onf --run {_failure(calls[0])}, want a LoweringError", 0
                calls = calls[1:]  # what the eval fallback printed
            # an affine tree that divides by zero is refused by onf --run and
            # then by the eval fallback
            routes = 2 if zero_den and affine[0] else 1
            if len(calls) != routes:
                return f"exits {[c[0] for c in calls]}, want {routes} call(s): {_failure(calls[-1])}", 0
            if zero_den:
                if all(_refused(call, ZERO_DENOMINATOR) for call in calls):
                    return None, 0
                return f"{_failure(calls[-1])}, want exit 3 for a zero denominator", 0
            if calls[0][0] != 0:
                return _failure(calls[0]), 0
            got = _parse_array(calls[0][1])
            if not _same(got, want):
                return "result differs from numpy", 0
            return None, got.size

        return [
            Request("onf", ["onf"] + argv, check_plan, expected),
            Request("onf-run", ["onf"] + argv + ["--run"], check_run, expected, fallback=["eval"] + argv),
        ]

    def cycles(self):
        # Trees are made as the run goes, so no tree is sent twice however
        # many requests a run gets through.
        maker = TreeMaker(self.pick)
        while True:
            count = 10 if self.tiny else self.TREES_PER_CYCLE
            yield [r for _ in range(count) for r in self._requests(*maker.tree())]


WORKLOADS = {cls.name: cls for cls in (KronOnf, DnfEval, CompileMix)}
