"""Running the three workloads: set-up, the measured passes, the checks and
the traced pass.

Every workload is a closed loop with one client.  ``cli_cold`` starts one
``python -m liefoliate.cli`` process per request, one at a time; the other
two call the library in this process.  Each request is timed alone and its
answer is checked against ``oracles`` outside the timed region.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import inputs, oracles, reference
from .inputs import Request
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_REQUESTS = 100  # successful ones, so that p90 has at least ten samples beyond it
CHILD_TIMEOUT_S = 60.0
SETUP_PROBES = 3  # fresh interpreters timed for setup_s, spread over the run
# The shared host slows down in bursts of a few seconds.  A run therefore
# makes its whole request list ROUNDS times and keeps each request's fastest
# time: its samples lie seconds apart, so one burst rarely spoils all of them.
# Within a round, an in-process request is also made up to REPEATS times in a
# row while its calls take less than REPEAT_BUDGET_S in all, which steadies
# sub-millisecond calls.  A round is round(--seconds * PASSES_PER_SECOND)
# passes of the workload's mix, and at least MIN_REQUESTS requests: one pass
# for cli_cold and structure_warm, whose runs then take about 60-80 s and 35 s on
# a 2-vCPU x86_64 VM, set-up included.  cli_cold's 105 fresh processes take
# about 35 s there, so its later rounds repeat only the slowest
# COLD_REPEAT_SHARE of them, which hold p90: a full second round would not
# fit the time the runs of all workloads may take.
ROUNDS = {"cli_cold": 3, "structure_warm": 6, "matrix_model": 5}
PASSES_PER_SECOND = {"cli_cold": 0.0, "structure_warm": 0.0, "matrix_model": 0.33}
COLD_REPEAT_SHARE = 0.15
REPEATS = 5
REPEAT_BUDGET_S = 0.02
REFERENCE_EVERY = 8  # requests between two timings of the host-speed reference
REFERENCE_WINDOW_S = 3.0
WARM_UP_PASS = 10**6  # index of the untimed pass a traced run makes first
# Traced runs measure a fixed number of (untraced, traced) pass pairs per
# second of --seconds, so the per-layer counts repeat exactly for a seed.
TRACE_PAIRS_PER_SECOND = {"cli_cold": 1 / 30, "structure_warm": 1 / 8, "matrix_model": 3.0}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return perf_counter() - start, proc


def setup_probe(argv: list[str]) -> float:
    """Wall time of one fresh interpreter that must exit 0."""
    seconds, proc = timed_child(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return seconds


def import_package():
    """Import liefoliate from this checkout's src, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import liefoliate
    if Path(liefoliate.__file__).resolve().parent != SRC / "liefoliate":
        raise RuntimeError(f"liefoliate imported from {liefoliate.__file__}, not from {SRC}")
    return liefoliate


@dataclass
class Tally:
    """Per-request outcomes of one run."""

    attempted: int = 0
    failed: int = 0
    wrong_valid: int = 0  # valid requests that failed: the run is not correct
    examples: list[str] = field(default_factory=list)
    samples: int = 0  # latency samples behind the end-to-end metrics

    def add(self, errors: list[str], req: Request, where: str) -> None:
        self.attempted += 1
        if not errors:
            return
        self.failed += 1
        self.wrong_valid += req.kind != "malformed"
        if len(self.examples) < 5:
            self.examples.append(f"{where} {req.kind} {str(req.args)[:200]}: {'; '.join(errors)[:300]}")


def end_to_end(best: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles from each request's fastest time."""
    lat = sorted(best)
    if not lat:
        raise RuntimeError("no request succeeded")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * lat[math.ceil(0.9 * len(lat)) - 1],
    }


# --- checking answers --------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def check_cli(req: Request, code, stdout: bytes) -> list[str]:
    """Exit status, JSON validity and the oracle for one CLI request."""
    if req.kind == "malformed":
        if code == 1 and not stdout:
            return []
        return [f"{req.expect[0]}: exit {code}, {len(stdout)} bytes on stdout; want exit 1, none"]
    if code != 0:
        return [f"exit {code}"]
    try:
        out = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"stdout is not valid JSON: {exc}"]
    if req.kind == "parabolic":
        return oracles.check_parabolic(*req.expect, out)
    if req.kind == "horospherical":
        return oracles.check_horospherical(*req.expect, out)
    if req.kind == "foliations":
        records = [(tuple(d["phi"]), d["dim_v"], d["codim"], d["leaf_dim"], d["dim_n_phi"],
                    len(d["orbit"])) for d in out]
        return oracles.check_foliations(req.expect[0], records)
    if req.kind == "rootsys_show":
        return oracles.check_rootsys(*req.expect, out)
    if req.kind == "rootsys_dynkin":
        return oracles.check_dynkin(*req.expect, out)
    if req.kind == "catalog":
        return oracles.check_catalog([e["key"] for e in out], inputs.ENTRY)
    return oracles.check_iwasawa(req.expect[0], out["k"], out["a"], out["n"])


def check_structure(req: Request, result) -> list[str]:
    space = req.expect[0]
    phi = req.args[1]
    if req.kind == "parabolic":
        return oracles.check_parabolic(space, phi, result.to_dict())
    if req.kind == "horospherical":
        return oracles.check_horospherical(space, phi, result.to_dict())
    if req.kind == "dimension":
        return oracles.check_dimension(space, result)
    records = [(c.phi, c.dim_v, c.codim, c.leaf_dim, c.dim_n_phi, len(c.orbit)) for c in result]
    return oracles.check_foliations(space, records)


def check_matrix(req: Request, result) -> list[str]:
    if req.kind == "iwasawa":
        return oracles.check_iwasawa(req.args[0], result.k, result.a, result.n)
    if req.kind == "killing":
        return oracles.check_killing(*req.args, result)
    if req.kind == "halfplane":
        return oracles.check_halfplane(*req.args, result)
    if req.kind == "lie_triple":
        return oracles.check_lie_triple(req.expect[0], result.holds, result.residual)
    return oracles.check_closure(req.expect[0], *result)


# --- calling the program -----------------------------------------------------


def cli_subprocess(req: Request) -> tuple[float, list[str]]:
    seconds, proc = timed_child(python("-m", "liefoliate.cli", *req.args))
    return seconds, check_cli(req, proc.returncode, proc.stdout)


class InProcessCli:
    """``cli.main(argv)`` in this process with empty caches, as a fresh process has."""

    def __init__(self) -> None:
        from liefoliate import catalog, cli, roots
        self.cli = cli
        self.build = roots.build_root_system  # the lru_cache object, before any tracing
        self.entries = catalog.catalog_entries
        self.stdout_bytes = 0
        self.hits = 0
        self.misses = 0

    def __call__(self, req: Request) -> tuple[float, list[str]]:
        self.build.cache_clear()
        self.entries.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(req.args))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, as in a child process
                code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        info = self.build.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        stdout = out.getvalue().encode()
        self.stdout_bytes += len(stdout)
        return seconds, check_cli(req, code, stdout)


def call_structure(req: Request):
    from liefoliate import catalog, foliations, parabolic
    name, phi = req.args
    space = catalog.catalog_lookup(name)
    if req.kind == "foliations":
        return foliations.enumerate_foliations(space)
    if req.kind == "dimension":
        return space.dimension
    subset = parabolic.phi_subset(space, phi)
    if req.kind == "parabolic":
        return parabolic.parabolic_data(space, subset)
    return parabolic.horospherical(space, subset)


def call_matrix(req: Request, sl_spaces: dict):
    from liefoliate import slmodel
    if req.kind == "iwasawa":
        return slmodel.iwasawa_group(*req.args)
    if req.kind == "killing":
        return slmodel.killing_form(*req.args)
    if req.kind == "halfplane":
        return slmodel.halfplane_orbit(*req.args)
    if req.kind == "lie_triple":
        return slmodel.is_lie_triple(req.args[0])
    n, phi, dim_v = req.args
    s = slmodel.build_s_phi_v(sl_spaces[n], phi, dim_v)
    return s.dim, slmodel.bracket_closure_residual(s)


def in_process(call, check, *extra, repeats: int = 1):
    """Time one library request in this process and check its answer; with
    repeats > 1 the request is repeated as REPEATS describes."""
    def run(req: Request) -> tuple[float, list[str]]:
        best, spent, calls = math.inf, 0.0, 0
        while calls < repeats and (calls == 0 or spent < REPEAT_BUDGET_S):
            start = perf_counter()
            try:
                result = call(req, *extra)
            except Exception as exc:  # a request that raises is a failed request
                return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
            taken = perf_counter() - start
            best, spent, calls = min(best, taken), spent + taken, calls + 1
        return best, check(req, result)
    return run


# --- workloads ---------------------------------------------------------------


@dataclass
class Workload:
    """Set-up and request stream of one workload."""

    name: str
    setup_argv: list[str]
    passes: object  # pass index -> list[Request]
    execute: object  # Request -> (seconds, errors)


def matrix_setup():
    """SL_n descriptors and their foliation classes, for the s_{Phi,V} requests."""
    from liefoliate import catalog, foliations
    spaces = {n: catalog.catalog_lookup(f"SL{n}") for n in inputs.S_PHI_V_SIZES}
    classes = {n: [(c.phi, c.dim_v) for c in foliations.enumerate_foliations(s)]
               for n, s in spaces.items()}
    return spaces, classes


def prepare_matrix(requests: list[Request]) -> list[Request]:
    """Wrap the Lie-triple bases as package subspaces (input generation, untimed)."""
    from liefoliate import slmodel
    return [Request(r.kind, (slmodel.subspace(r.args[0], tag="p"),), r.expect)
            if r.kind == "lie_triple" else r for r in requests]


def build_workload(name: str, seed: int, traced: bool = False) -> Workload:
    """The workload's set-up probe and request stream.  Traced runs make each
    request once, and make the CLI requests in this process."""
    repeats = 1 if traced else REPEATS
    if name == "cli_cold":
        execute = InProcessCli() if traced else cli_subprocess
        return Workload(name, python("-m", "liefoliate.cli", "--version"),
                        lambda p: inputs.cli_requests(seed, p), execute)
    if name == "structure_warm":
        names = inputs.structure_spaces()
        code = ("from liefoliate import catalog_lookup\n"
                f"for name in {names!r}:\n    catalog_lookup(name).dimension\n")
        exec(code, {})
        return Workload(name, python("-c", code), lambda p: inputs.structure_requests(seed, p),
                        in_process(call_structure, check_structure, repeats=repeats))
    spaces, classes = matrix_setup()
    return Workload(name, python("-c", "import liefoliate"),
                    lambda p: prepare_matrix(inputs.matrix_requests(seed, p, classes)),
                    in_process(call_matrix, check_matrix, spaces, repeats=repeats))


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_pass(workload: Workload, requests: list[Request], tally: Tally, where: str,
             tracer: Tracer | None = None) -> float:
    """Make every request of one pass; return the seconds spent inside the program."""
    busy = 0.0
    for req in requests:
        if tracer is None:
            taken, errors = workload.execute(req)
        else:
            tracer.request += 1
            taken, errors = tracer.span("request", workload.execute, req)
        busy += taken
        tally.add(errors, req, where)
    return busy


def measure(name: str, seed: int, seconds: float) -> tuple[dict, Tally, int]:
    """Untraced run: ROUNDS rounds over one request list, keeping each
    request's fastest time, with the set-up probes and the host-speed
    reference timed among them.  Returns the scaled metrics; the measured
    ones and the speed of the host are printed."""
    import_package()
    # One untimed import first, so that compiling the sources is not timed.
    timed_child(python("-c", "import liefoliate.cli"))
    workload = build_workload(name, seed)
    first = workload.passes(0)
    count = max(math.ceil(MIN_REQUESTS / len(first)), round(seconds * PASSES_PER_SECOND[name]))
    requests = [req for p in range(count) for req in (first if p == 0 else workload.passes(p))]
    cold = name == "cli_cold"
    # No untimed pass first: lazily built state costs only the first round,
    # and every request keeps its fastest round.
    planned = len(requests) * (1 if cold else ROUNDS[name])
    probe_at = {k * planned // SETUP_PROBES for k in range(SETUP_PROBES)}
    setup_times: list[float] = []
    setup_ratios: list[float] = []  # set-up probe over the reference children around it
    # The host-speed reference before every REFERENCE_EVERY-th request: for
    # cli_cold a fresh interpreter, with the time it was made; otherwise the
    # in-process kernel, the fastest of the rounds at each place in the list.
    ref_at: list[float] = []
    refs: list[float] = []
    kernel: dict[int, float] = {}
    times: list[tuple[int, float, float]] = []  # (request, when made, seconds)
    ok = [True] * len(requests)
    tally = Tally()
    order = list(range(len(requests)))
    for r in range(ROUNDS[name]):
        for i in order:
            step = len(times)
            if step in probe_at:
                before = setup_probe(reference.CHILD_ARGV)
                setup_times.append(setup_probe(workload.setup_argv))
                after = setup_probe(reference.CHILD_ARGV)
                setup_ratios.append(setup_times[-1] / (before + after) * 2)
            if cold and step % REFERENCE_EVERY == 0:
                ref_at.append(perf_counter())
                refs.append(setup_probe(reference.CHILD_ARGV))
            if not cold and i % REFERENCE_EVERY == 0:
                kernel[i] = min(kernel.get(i, math.inf), reference.kernel_seconds())
            when = perf_counter()
            taken, errors = workload.execute(requests[i])
            tally.add(errors, requests[i], f"round {r}")
            ok[i] = ok[i] and not errors
            times.append((i, when, taken))
        if cold and r == 0:
            slowest = sorted(order, key=lambda i: times[i][2], reverse=True)
            order = sorted(slowest[:round(COLD_REPEAT_SHARE * len(requests))])
    # A fresh process is scaled by the reference children made within
    # REFERENCE_WINDOW_S of it, as the host's speed changes within a run.  The
    # in-process rounds already keep the fastest of their samples, spread over
    # the whole run, and are scaled by the fastest kernels in the same way.
    windows: dict[tuple[int, int], float] = {}
    run_speed = reference.KERNEL_S / statistics.fmean(kernel.values()) if kernel else 0.0

    def speed(when: float) -> float:
        if not cold:
            return run_speed
        # At least the last reference before the request.
        lo = min(bisect.bisect_left(ref_at, when - REFERENCE_WINDOW_S), bisect.bisect_right(ref_at, when) - 1)
        hi = bisect.bisect_right(ref_at, when + REFERENCE_WINDOW_S)
        if (lo, hi) not in windows:
            windows[lo, hi] = reference.CHILD_S / statistics.median(refs[lo:hi])
        return windows[lo, hi]

    best_measured = [math.inf] * len(requests)
    best_scaled = [math.inf] * len(requests)
    for i, when, taken in times:
        best_measured[i] = min(best_measured[i], taken)
        best_scaled[i] = min(best_scaled[i], taken * speed(when))
    measured = end_to_end([t for t, good in zip(best_measured, ok) if good])
    scaled = [t for t, good in zip(best_scaled, ok) if good]
    tally.samples = len(scaled)
    print(f"{name}: host speed {statistics.median(speed(t[1]) for t in times):.4f} of the "
          f"reference host (median); measured setup_s {statistics.median(setup_times):.6g}, "
          f"{', '.join(f'{m} {v:.6g}' for m, v in measured.items())}")
    metrics = {"setup_s": reference.CHILD_S * statistics.median(setup_ratios),
               **end_to_end(scaled), "peak_rss_mb": peak_rss_mb(name)}
    return metrics, tally, count


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, Tally, int]:
    """Traced run: a fixed number of passes, each made once untraced and once
    traced; the overhead ratio compares the two on the same requests."""
    import_package()
    timed_child(python("-c", "import liefoliate.cli"))
    probe = "import time\nt = time.perf_counter()\nimport liefoliate.cli\nprint(time.perf_counter() - t)"
    import_times = [float(timed_child(python("-c", probe))[1].stdout) for _ in range(3)]
    workload = build_workload(name, seed, traced=True)
    cli_runner = workload.execute if name == "cli_cold" else None
    if not cli_runner:
        run_pass(workload, workload.passes(WARM_UP_PASS), Tally(), "warm-up")
    from liefoliate import roots
    build = roots.build_root_system

    def counters() -> tuple[int, int, int]:
        """Cache hits, misses and CLI stdout bytes so far.  cli_cold empties
        the cache before every command, so its runner counts per command."""
        if cli_runner:
            return cli_runner.hits, cli_runner.misses, cli_runner.stdout_bytes
        info = build.cache_info()
        return info.hits, info.misses, 0

    tracer = Tracer()
    tally = Tally()
    untraced_s = traced_s = 0.0
    hits = misses = stdout_bytes = 0
    pairs = max(1, round(seconds * TRACE_PAIRS_PER_SECOND[name]))
    for p in range(pairs):
        requests = workload.passes(p)
        untraced_s += run_pass(workload, requests, tally, f"pass {p}")
        before = counters()
        with tracer.installed():
            traced_s += run_pass(workload, requests, tally, f"traced pass {p}", tracer)
        after = counters()
        hits += after[0] - before[0]
        misses += after[1] - before[1]
        stdout_bytes += after[2] - before[2]
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer)
    metrics.update({
        "roots.build_root_system.misses": float(misses),
        "roots.build_root_system.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.import_s": statistics.median(import_times),
        "cli.stdout_bytes": float(stdout_bytes),
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return {m: metrics[m] for m in PER_LAYER}, tally, pairs


PER_LAYER = (
    "roots.build_root_system.calls", "roots.build_root_system.self_s",
    "roots.build_root_system.misses", "roots.build_root_system.hit_ratio",
    "roots.dynkin_diagram.calls", "roots.dynkin_diagram.self_s",
    "roots.diagram_automorphisms.self_s",
    "catalog.catalog_lookup.calls", "catalog.catalog_lookup.self_s",
    "catalog.space_dimension.self_s",
    "catalog.MultiplicityFunction.calls", "catalog.MultiplicityFunction.self_s",
    "parabolic.parabolic_data.calls", "parabolic.parabolic_data.self_s",
    "parabolic.root_subsystem.calls", "parabolic.root_subsystem.self_s",
    "parabolic.horospherical.calls", "parabolic.horospherical.self_s",
    "parabolic.boundary_components.calls", "parabolic.boundary_components.self_s",
    "foliations.enumerate_foliations.calls", "foliations.enumerate_foliations.self_s",
    "foliations.orthogonal_subsets.self_s", "foliations.records",
    "slmodel.iwasawa_group.calls", "slmodel.iwasawa_group.self_s",
    "slmodel.killing_form.calls", "slmodel.killing_form.self_s",
    "slmodel.is_lie_triple.calls", "slmodel.is_lie_triple.self_s",
    "slmodel.build_s_phi_v.calls", "slmodel.build_s_phi_v.self_s",
    "slmodel.bracket_closure_residual.calls", "slmodel.bracket_closure_residual.self_s",
    "slmodel.halfplane_orbit.calls", "slmodel.halfplane_orbit.self_s",
    "cli.import_s", "cli.main.self_s", "cli.stdout_bytes",
    "trace.overhead_ratio",
)
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    return {"ratio": "ratio", "bytes": "bytes"}.get(metric.rpartition("_")[2], "count")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self seconds of every traced function, and the record count."""
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(tracer.calls.get(span, 0))
        elif kind == "self_s":
            out[metric] = tracer.self_s.get(span, 0.0)
    out["foliations.records"] = float(tracer.records)
    return out
