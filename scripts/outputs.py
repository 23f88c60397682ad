#!/usr/bin/env python3
"""Every output of the benchmark's calls, as files that two checkouts can diff.

    python3 scripts/outputs.py --out DIR
    python3 scripts/outputs.py --compare A B

Runs every entry of ``perfbench/workloads.py`` for seeds 1 to 3 on this
checkout's ``src/``, with BLAS pinned to one thread as the benchmark does,
and writes under ``DIR/<workload>/seed<seed>/<entry>/``:

- a ``holgate`` call's exit code (``exit_code``), standard output
  (``stdout``), JSON record without its ``timestamp`` and CSV files;
- a register certification's ``repr((cond1, cond2, passed))``
  (``certificate``);
- the six-ion gate's bytes (``gate.bin``).

It also runs each study script of ``SCRIPTS`` at its defaults and writes
its exit code, standard output and CSV files under
``DIR/scripts/<script>/``.  A script runs from a fixed working directory
with a relative ``--out``, so no absolute path gets into its output.

Two checkouts give the same outputs when ``diff -r`` of their directories
is empty.  Nothing is written outside ``DIR``; the calls' scratch
directory ``DIR/.work`` is removed at the end.  Exits 1 if any ``holgate``
call or study script exits nonzero.

``--compare A B`` checks that two such trees differ at most in the
rounding of floats.  Byte-identical files pass.  A differing record,
``stdout``, CSV file or certificate is parsed, and ``gate.bin`` is read
as complex128: strings, booleans, integers, keys and shapes must match,
and for floats it prints the largest relative difference
``|a - b| / max(|a|, |b|)`` and the largest absolute difference ``|a - b|``
per workload, file and key.  A study script's ``stdout`` is a text table,
not JSON lines, so any difference in it is one that does not parse.
Exits 1 on any other difference, or on a file that only one tree has.
"""

import argparse
import ast
import csv
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCRIPTS = ("scaling_study.py", "dfs_protection_demo.py")


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


def write_script_outputs(name: str, work: Path, dest: Path) -> bool:
    """Run one study script at its defaults; False if it exited nonzero."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", "out"],
        cwd=work, env=env, capture_output=True, text=True,
    )
    dest.mkdir(parents=True)
    (dest / "exit_code").write_text(f"{result.returncode}\n")
    (dest / "stdout").write_text(result.stdout)
    for path in sorted((work / "out").glob("*")):  # a failed run writes none
        shutil.copyfile(path, dest / path.name)
    return result.returncode == 0


def cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(path: Path):
    """The values a file of an output tree holds."""
    if path.name == "gate.bin":  # complex128 entries, as numpy writes them
        return [complex(*pair) for pair in struct.iter_unpack("dd", path.read_bytes())]
    text = path.read_text()
    if path.suffix == ".csv":
        return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]
    if path.name == "certificate":
        return ast.literal_eval(text)
    # JSON records, stdout lines and exit codes
    return [json.loads(line) for line in text.splitlines()]


def differences(a, b) -> tuple[float, float]:
    """The relative and the absolute difference of two floats or complex numbers."""
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0, 0.0
    if not (math.isfinite(abs(a)) and math.isfinite(abs(b))):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def widest(floats: dict, key: str, pair: tuple[float, float]) -> None:
    """Keep under ``key`` the largest relative and absolute differences seen."""
    floats[key] = tuple(map(max, floats.get(key, (0.0, 0.0)), pair))


def diff_values(a, b, key: str, floats: dict, problems: list) -> None:
    """Walk two parsed values together.

    The largest relative and absolute differences of the floats under each
    key go into ``floats``, and any other difference into ``problems``.
    """
    where = f"{key}: " if key else ""
    if type(a) is not type(b):
        problems.append(f"{where}{a!r} != {b!r}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            problems.append(f"{where}keys {sorted(map(str, a))} != {sorted(map(str, b))}")
            return
        for k in a:
            diff_values(a[k], b[k], f"{key}.{k}" if key else str(k), floats, problems)
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            problems.append(f"{where}length {len(a)} != {len(b)}")
            return
        for x, y in zip(a, b):
            diff_values(x, y, key, floats, problems)
    elif isinstance(a, (float, complex)):
        widest(floats, key, differences(a, b))
    elif a != b:
        problems.append(f"{where}{a!r} != {b!r}")


def compare(a: Path, b: Path) -> int:
    """Report how output tree ``b`` differs from ``a``; 1 unless only floats differ."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"{rel}: only in {a}" for rel in sorted(files_a - files_b)]
    problems += [f"{rel}: only in {b}" for rel in sorted(files_b - files_a)]
    floats, identical, parsed = {}, 0, 0
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            identical += 1
            continue
        parsed += 1
        try:
            old, new = parse(a / rel), parse(b / rel)
        except (ValueError, SyntaxError) as exc:
            problems.append(f"{rel} differs and does not parse: {exc}")
            continue
        file_floats, file_problems = {}, []
        diff_values(old, new, "", file_floats, file_problems)
        problems += [f"{rel} {problem}" for problem in file_problems]
        for key, pair in file_floats.items():
            # per workload, file name and key, over every seed and entry
            widest(floats, f"{rel.parts[0]} {rel.name} {key}".rstrip(), pair)
    print(f"{identical} files identical, {parsed} differ")
    for name, (relative, absolute) in sorted(floats.items()):
        print(f"{name}  max relative difference {relative:.3g}, absolute {absolute:.3g}")
    for problem in problems:
        print("DIFFERS", problem)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="directory to write; it must not exist yet")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two output trees to compare")
    args = parser.parse_args()
    if args.compare:
        return compare(*map(Path, args.compare))
    out = Path(args.out)
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
    scripts_ok = True
    for name in SCRIPTS:
        scripts_ok &= write_script_outputs(name, out / ".work", out / "scripts" / name.removesuffix(".py"))
        shutil.rmtree(out / ".work")
    if not scripts_ok:
        print("a study script exited nonzero; see the exit_code files under scripts/", file=sys.stderr)
    return 0 if ok and scripts_ok else 1


if __name__ == "__main__":
    sys.exit(main())
