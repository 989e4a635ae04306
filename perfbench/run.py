"""End-to-end benchmark of the `moa` command line, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `moa` from `src/`.  One
client sends requests in a closed loop: each request is one in-process
`moa.cli.main(argv)` call, from array JSON files in to result JSON captured
from stdout, and the next is sent only after it returns.  Every response is
checked against a numpy oracle after the latency clock stops.

With `--trace 0` the run measures the end-to-end metrics.  With `--trace 1`
it sends a fixed set of requests, each once with the layer entry points
wrapped (see spans.py) and once without, to measure the tracing overhead,
and reports per-layer metrics.  Either way the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SETUP_REPS = 31
COLD_STARTS = 3

# --- sending requests --------------------------------------------------------

def call(main, argv: list[str]) -> workloads.Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def send(main, request: workloads.Request) -> tuple[float, list[workloads.Call]]:
    """One request, with its eval fallback when onf refuses the tree."""
    start = time.perf_counter()
    calls = [call(main, request.argv)]
    if request.fallback and calls[0][0] == workloads.DATA_ERROR:
        calls.append(call(main, request.fallback))
    return time.perf_counter() - start, calls


class Drive:
    """Latencies, output and check results of a series of sends."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.out_bytes: list[int] = []
        self.elements = 0
        self.failures: list[str] = []

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def send(self, main, request: workloads.Request) -> None:
        latency, calls = send(main, request)
        self.latencies.append(latency)
        self.out_bytes.append(sum(len(c[1]) for c in calls))
        error, delivered = verify(request, calls)
        if error is None:
            self.elements += delivered
        else:
            self.failures.append(f"{request.kind} {request.argv[2]!r}: {error}")


def verify(request: workloads.Request, calls: list[workloads.Call]) -> tuple[str | None, int]:
    hasher = hashlib.blake2b()
    for code, out, _ in calls:
        hasher.update(f"{code}\0{out}\0".encode())
    digest = hasher.digest()
    if digest == request.verified:
        return None, request.delivered
    try:
        error, delivered = request.check(calls)
    except Exception as exc:  # malformed output is a failure too
        return f"check raised {exc!r}", 0
    if error is None:
        request.verified, request.delivered = digest, delivered
    return error, delivered


# --- end-to-end --------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(drive: Drive, setups: list[float]) -> tuple[dict, dict]:
    busy = drive.busy
    tail_s, percentile, n = tail(drive.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_eps": drive.elements / busy,
        "requests_per_s": n / busy,
        "latency_p50_ms": statistics.median(drive.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = f"over the {busy:.3f} s of wall time spent in moa calls; the checks between them are not timed"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (fresh import of moa, inputs, JSON files)",
        "throughput_eps": f"{drive.elements} output elements {wall}",
        "requests_per_s": f"{n} requests from one closed-loop client {wall}",
        "latency_p50_ms": f"median of {n} requests",
        "latency_tail_ms": (
            f"p{percentile:.2f} of {n} requests, 10 beyond it" if n > 10 else f"max of {n} requests"
        ),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return values, notes


# --- per-layer ---------------------------------------------------------------

def _peak_alloc_ratio(fn, args, elements: int) -> float:
    """tracemalloc peak of one untimed call over its output bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * elements)


def _plan_shape(cli, plan) -> tuple[int, int]:
    """Loops and reads per iteration, from the documented plan JSON."""
    doc = json.loads(cli.plan_to_json(plan))

    def reads(node) -> int:
        return 1 if "buffer" in node else sum(reads(arg) for arg in node["args"])

    return len(doc["loops"]), reads(doc["body"]["expr"])


def cold_start(workload: workloads.Workload) -> tuple[float, list[str]]:
    """Median wall time of `python -m moa.cli shape` in a fresh interpreter."""
    stem, value = next(iter(workload.arrays.items()))
    argv = [sys.executable, "-m", "moa.cli", "shape", "--expr", "A"]
    argv += ["--array", f"A={workload.work_dir / (stem + '.json')}"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    want = "<" + " ".join(map(str, value.shape)) + ">"
    times, failures = [], []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or done.stdout.strip() != want:
            failures.append(f"cold start: exit {done.returncode}, {done.stdout.strip()!r} != {want!r}")
    return statistics.median(times), failures


def per_layer(cli, tracer: Tracer, sent, traced: Drive, plain: Drive, workload) -> tuple[dict, dict, list[str]]:
    n = len(sent)
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, list] = {}
    for span, self_s in zip(tracer.spans, own):
        name = span[0]
        total[name] = total.get(name, 0.0) + (span[2] - span[1])
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls.setdefault(name, []).append(span)

    def per_req(name: str) -> float:
        return total.get(name, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    failures: list[str] = []
    oracle_s = [request.expected.seconds for request in sent]

    # lowering: execution
    executes = [s for s in calls.get("lowering.execute_plan", []) if s[5] is not None]
    seq = math.fsum(s[2] - s[1] for s in executes if not s[5][2])
    par = math.fsum(s[2] - s[1] for s in executes if s[5][2])
    exec_elems = sum(s[5][3] for s in executes)
    shapes = {}
    for s in executes:
        shapes.setdefault(id(s[5][0]), _plan_shape(cli, s[5][0]))
    moved = sum((shapes[id(s[5][0])][1] + 1) * 8 * s[5][3] for s in executes)
    exec_oracle = math.fsum(oracle_s[r] for r in {s[4] for s in executes})
    exec_alloc = 0.0
    if executes:
        big = max(executes, key=lambda s: s[5][3])
        exec_alloc = _peak_alloc_ratio(cli.execute_plan, big[5][:2], big[5][3])

    # lowering: compile
    lowers = calls.get("lowering.lower", [])
    plans = [s[5] for s in lowers if s[5] is not None]
    plan_shapes = [_plan_shape(cli, plan) for plan in plans]
    json_bytes = [s[5] for s in calls.get("lowering.plan_to_json", [])]

    # exprs
    dnf = [s for name in ("exprs.materialize", "exprs.eval_element") for s in calls.get(name, [])]
    dnf = [s for s in dnf if s[5] is not None]
    reads = sum(s[5][0] for s in dnf)
    dnf_elems = sum(s[5][2] for s in dnf)
    for s in dnf:
        leaves = sent[s[4]].expected.leaves
        if s[5][0] != leaves * s[5][2]:
            failures.append(f"{s[0]} read {s[5][0]} scalars for {s[5][2]} elements of {leaves} leaves")
    materials = [s for s in dnf if s[0] == "exprs.materialize"]
    mat_s = math.fsum(s[2] - s[1] for s in materials)
    mat_elems = sum(s[5][2] for s in materials)
    mat_oracle = math.fsum(oracle_s[r] for r in {s[4] for s in materials})
    mat_alloc = 0.0
    if materials:
        big = max(materials, key=lambda s: s[5][2])
        mat_alloc = _peak_alloc_ratio(cli.materialize, big[5][1], big[5][2])

    parses = [s for s in calls.get("parser.parse", []) if s[5] is not None]
    parse_s = math.fsum(s[2] - s[1] for s in parses)
    cold_s, cold_failures = cold_start(workload)
    failures += cold_failures

    values = {
        "lowering.execute_s": seq / n,
        "lowering.execute_par_s": par / n,
        "lowering.execute_us_per_elem": ratio(seq + par, exec_elems) * 1e6,
        "lowering.parallel_speedup": ratio(seq, par),
        "lowering.execute_vs_numpy": ratio(seq + par, exec_oracle),
        "lowering.bytes_moved_computed": moved / n,
        "lowering.execute_peak_alloc_ratio": exec_alloc,
        "lowering.lower_s": per_req("lowering.lower"),
        "lowering.plan_to_json_s": per_req("lowering.plan_to_json"),
        "lowering.plan_json_bytes": ratio(sum(json_bytes), len(json_bytes)),
        "lowering.loops_per_plan": ratio(sum(p[0] for p in plan_shapes), len(plan_shapes)),
        "lowering.reads_per_iter": ratio(sum(p[1] for p in plan_shapes), len(plan_shapes)),
        "lowering.affine_ratio": ratio(len(plans), len(lowers)),
        "lowering.flatten_operands_s": per_req("lowering.flatten_operands"),
        "exprs.materialize_s": per_req("exprs.materialize"),
        "exprs.materialize_us_per_elem": ratio(mat_s, mat_elems) * 1e6,
        "exprs.eval_element_s": per_req("exprs.eval_element"),
        "exprs.psi_reduce_s": per_req("exprs.psi_reduce"),
        "exprs.materialize_vs_numpy": ratio(mat_s, mat_oracle),
        "exprs.materialize_peak_alloc_ratio": mat_alloc,
        "exprs.scalar_reads_per_elem": ratio(reads, dnf_elems),
        "parser.parse_s": per_req("parser.parse"),
        "parser.chars_per_s": ratio(sum(s[5] for s in parses), parse_s),
        "arrays.from_json_s": per_req("arrays.from_json"),
        "arrays.from_json_calls": len(calls.get("arrays.from_json", [])) / n,
        "cli.render_json_s": per_req("cli.render_json"),
        "cli.output_bytes": sum(traced.out_bytes) / n,
        "cli.self_s": self_total.get("cli.main", 0.0) / n,
        "cli.cold_start_s": cold_s,
        "numpy.oracle_s": math.fsum(oracle_s) / n,
        "trace.overhead_ratio": traced.busy / plain.busy,
    }
    notes = {
        "lowering.parallel_speedup": (
            f"sequential {seq:.4f} s over parallel {par:.4f} s on the same plans, procs {workloads.PROCS}"
        ),
        "lowering.execute_vs_numpy": f"numpy oracle {exec_oracle:.4f} s for the same outputs",
        "lowering.bytes_moved_computed": "computed: (reads per iteration + 1) x 8 B per element",
        "lowering.execute_peak_alloc_ratio": "tracemalloc peak of the largest plan over its output bytes",
        "lowering.affine_ratio": f"{len(plans)} plans from {len(lowers)} lower calls",
        "exprs.materialize_vs_numpy": f"numpy oracle {mat_oracle:.4f} s for the same outputs",
        "exprs.materialize_peak_alloc_ratio": "tracemalloc peak of the largest result over its bytes",
        "exprs.scalar_reads_per_elem": (
            f"moa.counters: {reads} reads for {dnf_elems} elements, each equal to its leaf occurrences"
        ),
        "cli.self_s": "cli.main minus its child spans",
        "cli.cold_start_s": f"median of {COLD_STARTS} `python -m moa.cli shape` processes",
        "trace.overhead_ratio": (
            f"traced {traced.busy:.3f} s over untraced {plain.busy:.3f} s, each request sent both ways in turn"
        ),
    }
    for name, value in values.items():
        if value == 0.0:
            notes[name] = "not called on this workload"
    ranked = sorted(self_total.items(), key=lambda item: -item[1])
    print("# self time per request: " + ", ".join(f"{k} {v / n * 1e3:.3f} ms" for k, v in ranked))
    return values, notes, failures


# --- the run -----------------------------------------------------------------

def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "moa").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def set_up(name: str, seed: int, work: Path, tiny: bool):
    """Fresh import of moa, then the workload's inputs and JSON files."""
    start = time.perf_counter()
    for module in [m for m in sys.modules if m == "moa" or m.startswith("moa.")]:
        del sys.modules[module]
    cli = importlib.import_module("moa.cli")
    workload = workloads.WORKLOADS[name](seed, work, tiny)
    workload.write_files()
    return time.perf_counter() - start, cli, workload


def untraced(cli, workload, seconds: float, setups: list[float]):
    drive = Drive()
    for cycle in workload.cycles():
        if drive.busy >= seconds:
            break
        for request in cycle:
            drive.send(cli.main, request)
    values, notes = end_to_end(drive, setups)
    attempted = len(drive.latencies)
    print(f"failed_ratio {len(drive.failures) / attempted:.6g} ratio  {len(drive.failures)} of {attempted} requests")
    return values, notes, attempted, drive.failures


def traced(cli, workload, seconds: float, seed: int):
    """A fixed set of requests, chosen by the seed alone, sent in whole rounds
    until `seconds` are spent; within a round each request is sent traced and
    untraced, in alternating order."""
    tracer = Tracer(cli, getattr(sys.modules["moa"], "counters", None))
    requests = [r for cycle in itertools.islice(workload.cycles(), workload.TRACE_CYCLES) for r in cycle]
    sent: list[workloads.Request] = []  # one per traced send; its index is the span's request id
    spans, plain = Drive(), Drive()
    for rounds in itertools.count():
        if rounds and spans.busy + plain.busy >= seconds:
            break
        for k, request in enumerate(requests):
            traced_first = (k + rounds) % 2 == 1
            for traced_send in (traced_first, not traced_first):
                if traced_send:
                    tracer.request = len(sent)
                    sent.append(request)
                    tracer.install()
                    try:
                        spans.send(tracer.main, request)
                    finally:
                        tracer.uninstall()
                else:
                    plain.send(cli.main, request)
    values, notes, failures = per_layer(cli, tracer, sent, spans, plain, workload)
    attempted = len(spans.latencies) + len(plain.latencies)
    failures = spans.failures + plain.failures + failures
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload.name, "seed": seed, "spans": tracer.dump()}
    (out / f"spans-{workload.name}.json").write_text(json.dumps(doc))
    return values, notes, attempted, failures


def run(args, work: Path) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        seconds, cli, workload = set_up(args.workload, args.seed, work, args.tiny)
        setups.append(seconds)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    # A `moa` process holds little more than moa and numpy: keep the
    # benchmark's own objects out of the collector's way.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            values, notes, attempted, failures = traced(cli, workload, args.seconds, args.seed)
        else:
            values, notes, attempted, failures = untraced(cli, workload, args.seconds, setups)
    finally:
        gc.unfreeze()
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "moa" / "cli.py").is_file():
        print(f"error: no moa sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    work = BENCH_DIR / "_work" / str(os.getpid())
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
