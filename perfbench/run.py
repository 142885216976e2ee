"""Benchmark entry point.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0

Prints one line per metric (name, value, unit) and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from the traced run.  ``--workload all`` runs the
three workloads in turn and prefixes each metric with its workload.
Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, here and in every child: the matrices are small, and a
# second thread would make the timings depend on what else runs on the other
# core.  Set before numpy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402
from perfbench.inputs import WORKLOADS  # noqa: E402


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    measure = workloads.measure_traced if trace else workloads.measure
    metrics, tally, passes = measure(name, seed, seconds)
    what = "traced pass pairs" if trace else f"passes, {workloads.ROUNDS[name]} rounds"
    print(f"{name}: seed {seed}, {passes} {what}, {tally.attempted} requests made "
          f"({tally.samples} latency samples), {tally.failed} failed, "
          f"failed_ratio {tally.failed / tally.attempted:.6f}")
    for example in tally.examples:
        print(f"{name}: failed request: {example}")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value!r} {workloads.unit(metric)}")
    return {
        "correct": tally.wrong_valid == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": workloads.unit(m)} for m, v in metrics.items()},
    }


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=nonnegative, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "liefoliate" / "__init__.py").is_file():
        print(f"error: package sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
