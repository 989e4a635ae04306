"""Run the benchmark on several seeds and record each metric's median and spread.

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

Each run is one `perfbench/run.py` process with its own seed, from 301 up.  For every
metric the output keeps all values, their median and quartiles, and the
spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 301
RUNS = 10  # untraced runs per workload
TRACE_RUNS = 2  # traced runs per workload


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    machine = next(json.loads(l[len("# machine "):]) for l in lines if l.startswith("# machine "))
    return json.loads(lines[-1]), machine


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
        entry = {}
        for trace, count in ((0, RUNS), (1, TRACE_RUNS)):
            results = []
            for seed in seeds[:count]:
                result, doc["machine"] = bench(workload, seed, spec["run_seconds"], trace)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed requests")
                results.append(result)
            entry["per_layer" if trace else "end_to_end"] = summarize(results)
            entry["trace_seeds" if trace else "seeds"] = list(seeds[:count])
        doc["workloads"][workload] = entry
        for name, row in entry["end_to_end"].items():
            print(f"{workload:12s} {name:20s} median {row['median']:.6g} {row['unit']}  spread {row['spread']:.3f}")
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
