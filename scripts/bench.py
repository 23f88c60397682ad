#!/usr/bin/env python3
"""End-to-end benchmark metrics and a few kernel timings, in one JSON file.

    python3 scripts/bench.py --out BENCH_17.json [--seconds 10]

Runs ``perfbench/run.py --trace 0`` once per workload at seed SEED, then
times kernels of this checkout's ``src/`` directly, with BLAS pinned to one
thread as the benchmark does:

- ``six_ion_evolve``, ``six_ion_schedule``: one ``evolve`` and one
  ``Schedule`` construction of the six-ion register's two-logical-qubit
  schedule;
- ``composite4_sweep_evolve``: one ``evolve`` of a composite4 sweep (12
  error points and the ideal gate, every distinct loop in one batch);
- ``composite4_shaped_build``: one ``GATES["composite4"].build`` of the
  ideal gate and one error point at ``sine_squared``, 32 steps, the
  ``holgate gate`` path on a shaped pulse;
- ``kicked_sample``, ``idle_sample``: one sample of the two runs of a
  default ``holgate dfs`` run at ``n_samples`` KICK_SAMPLES, the kicked run
  of the encoded plus-state (the commutation check and no draw: the state
  sits on one collective level) and the idle run of the bare contrast state
  (the time of a call divided by KICK_SAMPLES);
- ``dfs_call``: one ``cli.cmd_dfs`` at gaussian kappa 0.5 and ``n_samples``
  KICK_SAMPLES, the shape of the ``dfs`` workload's slowest calls;
- ``certify_composite4``: one ``trace_evolution`` and ``check_holonomy`` of
  the composite4 schedule;
- ``write_files``: ``cli.write_files`` of a ``holgate dfs`` record and CSV
  file over the same two files in a temporary directory.

A kernel time is the best of 7 repeats of the mean over many calls, in
microseconds.

The file holds ``env`` (the benchmark's environment line without the
workload, plus the seed and seconds), ``workloads`` (each workload's result
line: ``correct``, ``attempted``, ``failed`` and its end-to-end metrics) and
``kernels_us``.
By convention the file of a change is ``BENCH_<number>.json`` at the root.
Exits 1, writing nothing, if a workload run prints no result, fails a call
or reads ``correct`` other than true.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "dfs", "certify")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 7
SEED = 1
KICK_SAMPLES = 4000


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write, BENCH_<number>.json by convention")
    parser.add_argument("--seconds", type=positive_float, default=10.0, help="measured seconds per workload")
    return parser


def run_workload(workload: str, seconds: float):
    """The benchmark's (environment, result) lines for one workload, or None."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def kernel_timings() -> dict:
    """Best-of-REPEATS mean time per call of each kernel, in microseconds."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from hologate import cli, dfs, holonomy, linalg, pulses, scaling

    six_ion = dfs.two_logical_composite_schedule(0.9, 0.3)
    generators, areas = np.array(six_ion.generators), np.array(six_ion.areas)
    gate = scaling.GATES["composite4"]
    errors = np.outer((0.0,) + scaling.default_epsilon_grid(12), gate.error_modes["common"])
    sweep = pulses.loop_schedule(gate.fields(0.9, 0.3, "11", errors)[..., None, :], "square", 1)
    register = dfs.logical_composite_schedule(math.pi / 4, 0.0)
    encoding = dfs.three_ion_encoding()
    encoded = (encoding.logical_ket("0") + encoding.logical_ket("1")) / math.sqrt(2)
    bare = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    channel = dfs.DephasingChannel(0.5, "uniform", KICK_SAMPLES)
    certified, basis = gate.schedule(0.9, 0.3, "11", (0.0, 0.0)), gate.subspace_basis()
    outputs, texts = cli.cmd_dfs({"n_samples": 100})
    texts["dfs_result.json"] = json.dumps(cli.make_record("dfs", {"n_samples": 100}, outputs), sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as out:
        cli.write_files(Path(out), texts)  # every timed write replaces an existing file
        kernels = {
            "six_ion_evolve": (lambda: linalg.evolve(six_ion), 1),
            "six_ion_schedule": (lambda: linalg.Schedule(generators, areas), 1),
            "composite4_sweep_evolve": (lambda: linalg.evolve(sweep), 1),
            "composite4_shaped_build": (lambda: gate.build(0.9, 0.3, "11", errors[:2], "sine_squared", 32), 1),
            "kicked_sample": (lambda: dfs.kicked_schedule_fidelities(register, encoded, channel, SEED), KICK_SAMPLES),
            "idle_sample": (lambda: dfs.idle_contrast_run(bare, channel, register.n_segments, SEED + 1), KICK_SAMPLES),
            "dfs_call": (lambda: cli.cmd_dfs({"distribution": "gaussian", "n_samples": KICK_SAMPLES}), 1),
            "certify_composite4": (lambda: holonomy.check_holonomy(holonomy.trace_evolution(certified, basis)), 1),
            "write_files": (lambda: cli.write_files(Path(out), texts), 1),
        }
        timings = {}
        for name, (call, per_call) in kernels.items():
            number, _ = timeit.Timer(call).autorange()
            best = min(timeit.repeat(call, number=number, repeat=REPEATS))
            timings[name] = best / number / per_call * 1e6
    return timings


def main() -> int:
    args = build_parser().parse_args()
    env, results = None, {}
    for workload in WORKLOADS:
        run = run_workload(workload, args.seconds)
        if run is None:
            print(f"{workload}: the benchmark printed no result", file=sys.stderr)
            return 1
        env = {k: v for k, v in run[0].items() if k not in ("workload", "seed")}
        results[workload] = run[1]
        print(workload, "correct:", run[1]["correct"], "failed:", run[1]["failed"])
        if run[1]["correct"] is not True or run[1]["failed"] != 0:
            print(f"{workload}: a call failed or an output check did not pass; nothing is written", file=sys.stderr)
            return 1
    record = {
        "env": {**env, "seed": SEED, "seconds": args.seconds},
        "workloads": results,
        "kernels_us": kernel_timings(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
