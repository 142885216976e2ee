"""Measure every workload on several seeds and append the result to the
benchmark trajectory.

    python3 perfbench/record.py --label "<what this commit is>" --seeds 1-10

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed with tracing
off, then once per workload with tracing on (first seed), and appends one JSON line to
``perfbench/trajectory.jsonl``: for every end-to-end metric its median,
quartiles and quartile spread (Q3 - Q1) / median over the seeds, and the
per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in args.seeds:
            start = time.perf_counter()
            results.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s "
                  f"{json.dumps(results[-1])}", flush=True)
        end_to_end = {}
        for metric in results[0]["metrics"]:
            end_to_end[metric] = summary([r["metrics"][metric]["value"] for r in results])
            print(f"{workload} {metric}: median {end_to_end[metric]['median']:.6g} "
                  f"spread {end_to_end[metric]['spread']:.4f}", flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": end_to_end,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    with (HERE / "trajectory.jsonl").open("a") as out:
        out.write(json.dumps(entry) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
