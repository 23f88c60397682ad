#!/usr/bin/env python3
"""Every output of the benchmark's calls, as files that two checkouts can diff.

    python3 scripts/outputs.py --out DIR

Runs every entry of ``perfbench/workloads.py`` for seeds 1 to 3 on this
checkout's ``src/``, with BLAS pinned to one thread as the benchmark does,
and writes under ``DIR/<workload>/seed<seed>/<entry>/``:

- a ``holgate`` call's exit code (``exit_code``), standard output
  (``stdout``), JSON record without its ``timestamp`` and CSV files;
- a register certification's ``repr((cond1, cond2, passed))``
  (``certificate``);
- the six-ion gate's bytes (``gate.bin``).

Two checkouts give the same outputs when ``diff -r`` of their directories
is empty.  Nothing is written outside ``DIR``; the calls' scratch
directory ``DIR/.work`` is removed at the end.  Exits 1 if any ``holgate``
call exits nonzero.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_outputs(workloads, workload: str, seed: int, work: Path, dest: Path) -> bool:
    """Run one seed of a workload; False if a ``holgate`` call exited nonzero."""
    ok = True
    for i, call in enumerate(workloads.build_calls(workload, seed, work)):
        entry = dest / f"{i:02d}_{call.entry['op']}"
        entry.mkdir(parents=True)
        result = call.invoke()
        if isinstance(call, workloads.CliCall):
            ok &= result == 0
            (entry / "exit_code").write_text(f"{result}\n")
            (entry / "stdout").write_text(call.sink.getvalue())
            for path in sorted(call.out_dir.glob("*")):  # a failed call writes none
                if path.suffix == ".json":
                    record = json.loads(path.read_text())
                    record.pop("timestamp")
                    (entry / path.name).write_text(json.dumps(record, sort_keys=True) + "\n")
                else:
                    shutil.copyfile(path, entry / path.name)
        elif isinstance(call, workloads.RegisterCall):
            (entry / "certificate").write_text(repr((result.cond1_residual, result.cond2_max, result.passed)) + "\n")
        else:
            (entry / "gate.bin").write_bytes(result.tobytes())
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory to write; it must not exist yet")
    out = Path(parser.parse_args().out)
    if out.exists():
        parser.error(f"{out} exists already")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # imports hologate, so only after the path is set

    ok = True
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            ok &= write_outputs(workloads, workload, seed, out / ".work", out / workload / f"seed{seed}")
            shutil.rmtree(out / ".work")
    if not ok:
        print("a holgate call exited nonzero; see the exit_code files", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
