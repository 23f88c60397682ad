#!/usr/bin/env python3
"""hologate benchmark: one client calling hologate in a closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, one client: each call starts when the previous one has
returned.  Calls go through the public entry point ``hologate.cli.main``
on generated JSON configs (plus library-level certification of the
ion-register schedules on ``certify``), and every call's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
calls untraced, then traced with a span around every public function of
every layer module, byte-compares the two runs' outputs and reports the
per-layer metrics.  The last line of standard output is the result JSON;
the line before it is the run's environment.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
# p90 needs at least ten samples beyond it
MIN_CALLS = 100
# share of --seconds the untraced pass of a traced run measures; the traced
# pass then repeats the same cycles, which takes somewhat longer
UNTRACED_SHARE = 0.25

END_TO_END = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def prepare() -> bool:
    """Pin BLAS to one thread and put ``src/`` first on the import path."""
    if not (SRC / "hologate" / "cli.py").is_file():
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hologate closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "dfs", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, make the warm-up call, print 'ready' and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


class Loop:
    """Latencies, evaluation counts and failures of a closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.evals = 0
        self.failures: list[str] = []
        self.cycles = 0
        self.points = [0, 0]  # sweep points kept by the fit, sweep points computed
        self.fingerprints: dict[int, bytes] = {}

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def describe(index: int, call) -> str:
    return f"call {index} ({call.entry['op']} {json.dumps(call.entry['config'], sort_keys=True)})"


def run_call(index, call, loop: Loop, expected: dict, tracer=None) -> None:
    perf = time.perf_counter
    if tracer is not None:
        tracer.current_call = len(loop.latencies)
    t0 = perf()
    try:
        raw = call.invoke()
    except Exception as exc:  # a raising call is a failed call; keep measuring
        loop.latencies.append(perf() - t0)
        loop.failures.append(f"{describe(index, call)}: raised {exc!r}")
        return
    loop.latencies.append(perf() - t0)
    try:
        outcome = call.inspect(raw)
    except Exception as exc:
        loop.failures.append(f"{describe(index, call)}: unreadable output: {exc!r}")
        return
    # every repeat of a call gives the same bytes, traced or not
    reference = expected.get(index, loop.fingerprints.get(index))
    if outcome.error is None and reference is not None and outcome.fingerprint != reference:
        outcome.error = "output bytes differ from an earlier run of the same call"
    if outcome.error is not None:
        loop.failures.append(f"{describe(index, call)}: {outcome.error}")
        return
    loop.fingerprints.setdefault(index, outcome.fingerprint)
    loop.evals += call.entry["evals"]
    if "n_samples_total" in outcome.outputs:
        loop.points[0] += outcome.outputs["n_samples_fit"]
        loop.points[1] += outcome.outputs["n_samples_total"]


def run_loop(calls, *, seconds=None, cycles=None, expected=None, tracer=None) -> Loop:
    """Whole cycles over ``calls``: ``cycles`` of them, or until ``seconds`` have
    passed and at least MIN_CALLS calls were made."""
    loop = Loop()
    expected = {} if expected is None else expected
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        for index, call in enumerate(calls):
            run_call(index, call, loop, expected, tracer)
        loop.cycles += 1
        if cycles is not None:
            if loop.cycles >= cycles:
                return loop
        elif time.perf_counter() >= deadline and len(loop.latencies) >= MIN_CALLS:
            return loop


def measure_setup(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to being ready for the first timed call."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def set_up(workload: str, seed: int):
    """Config generation and one warm-up call; returns the calls."""
    import workloads  # imports hologate, so only after prepare()

    calls = workloads.build_calls(workload, seed, WORK / workload)
    warm = Loop()
    run_call(0, calls[0], warm, {})
    if warm.failures:
        raise RuntimeError(f"warm-up call failed: {warm.failures[0]}")
    return calls


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s = measure_setup(workload, seed)
    calls = set_up(workload, seed)
    loop = run_loop(calls, seconds=seconds)
    lat = loop.latencies
    metrics = {
        "setup_s": setup_s,
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "evals_per_s": loop.evals / loop.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return loop.failures, len(lat), metrics, END_TO_END


def per_layer(workload: str, seed: int, seconds: float):
    import numpy as np
    import tracing

    calls = set_up(workload, seed)
    untraced = run_loop(calls, seconds=seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    outside, inside = tracer.calibrate()
    tracer.install()
    try:
        traced = run_loop(
            calls, cycles=untraced.cycles, expected=untraced.fingerprints, tracer=tracer
        )
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    np.savez(WORK / workload / "spans.npz", **spans)
    summary = tracing.SpanSummary(spans, outside, inside)
    counts = {tracing.EVAL_COUNTS[workload]: traced.evals}
    metrics = tracing.layer_metrics(summary, counts, traced.points)
    metrics["trace.overhead_ratio"] = traced.busy_s / untraced.busy_s
    metrics["trace.span_overhead_us"] = (outside + inside) * 1e6
    attempted = len(untraced.latencies) + len(traced.latencies)
    failures = untraced.failures + traced.failures
    return failures, attempted, metrics, tracing.PER_LAYER


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        print(f"hologate sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    failures, attempted, metrics, units = measure(args.workload, args.seed, args.seconds)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    env = environment(args.workload, args.seed)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / args.workload / f"result_trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=2) + "\n"
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
