"""Command-line front end.

Subcommands build gates, run error sweeps, certify holonomy conditions,
and run the dephasing-protection demonstration, all driven by a JSON
config file, which is the whole run.  Primary outputs are CSV files
(plot-ready, byte-stable for a fixed config) plus a JSON result record
per run that repeats its config.

Exit codes: 0 success, 2 config or validation problem, 3 numerical
failure during an otherwise valid run, including any non-finite output;
2 also for an output file that cannot be written.  A run that fails
writes no file: every output is written in full before any is renamed
into place.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dfs, holonomy, linalg, pulses, qutrit, scaling, two_qubit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Every failure exit 3 reports, caught before ValueError (LinAlgError is one).
NUMERICAL_FAILURES = (scaling.DegenerateFitError, FloatingPointError, OverflowError, np.linalg.LinAlgError)

# Largest working set, in bytes, that a run may ask for.  Each size a config
# sets is turned into a byte estimate (the memory formulas in the README),
# and one over this exits 2 before anything is allocated.
MAX_RUN_BYTES = 2**30


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("config nests too deeply to parse") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def check_keys(cfg: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")


def get_number(cfg: dict, key: str, default=None) -> float:
    value = cfg.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinite, or an integer no float holds
        raise ValueError(f"config key {key!r} must be a finite float, got {value!r}")
    return float(value)


def finite_float(text: str) -> float:
    """argparse type of a number option: like get_number, a non-finite value is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def strict_numerics() -> np.errstate:
    """A context in which an overflow or NaN raises FloatingPointError, not a warning."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def get_int(cfg: dict, key: str, default=None) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def check_run_size(key: str, n_bytes: int) -> None:
    if n_bytes > MAX_RUN_BYTES:
        raise ValueError(
            f"{key!r} asks for about {n_bytes // 2**20} MB, over the {MAX_RUN_BYTES // 2**20} MB limit"
        )


# The sweep and protection-run estimates; key names the config key or script option.
def check_sweep_size(key: str, points: int) -> None:
    check_run_size(key, 4096 * points)


def check_dfs_size(key: str, n_kicks: int, n_samples: int) -> None:
    # per sample: each kick's angle and finiteness flag, and a few float vectors
    check_run_size(key, n_samples * (9 * n_kicks + 64))


def get_choice(cfg: dict, key: str, choices, default=None) -> str:
    value = cfg.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"config key {key!r} must be one of {sorted(choices)}, got {value!r}")
    return value


def matrix_payload(m: np.ndarray) -> list:
    """Nested [re, im] pairs, lossless under float repr round-trip."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def make_record(command: str, config: dict, outputs: dict) -> dict:
    if not all(math.isfinite(v) for v in outputs.values() if isinstance(v, float)):
        raise FloatingPointError(f"{command} produced a non-finite output")
    return {
        "command": command,
        "config": config,
        "outputs": outputs,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def csv_text(rows, header) -> str:
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # repr of a builtin float is the shortest lossless form
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return fh.getvalue()


def write_files(out_dir: Path, texts: dict[str, str]) -> None:
    """Write every named text into ``out_dir``: all of them, or none.

    Each text goes to a temporary file next to its target first; they are
    renamed onto their names only once every write has succeeded, and a
    failure removes the temporary files before the ``OSError`` propagates.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in texts:
        if os.path.isdir(os.path.join(out_dir, name)):
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", name)
    temps = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in texts}
    try:
        for name, text in texts.items():
            with open(temps[name], "w", newline="") as fh:
                fh.write(text)
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out_dir, name))
    finally:
        for temp in temps.values():
            if os.path.lexists(temp):
                os.remove(temp)


def parse_error_model(cfg: dict, gate: scaling.Gate) -> tuple[float, ...]:
    """The gate's error row, one number per key of ``gate.error_keys``; zeros without one."""
    spec = cfg.get("error")
    if spec is None:
        return (0.0,) * len(gate.error_keys)
    if not isinstance(spec, dict):
        raise ValueError("config key 'error' must be an object or null")
    check_keys(spec, set(gate.error_keys), set(gate.error_keys))
    return tuple(get_number(spec, key) for key in gate.error_keys)


def parse_gate(cfg: dict, key: str, theta=math.pi / 2):
    """The gate named by ``cfg[key]`` and its (theta, phi, jk) parameters; ``theta`` is the default."""
    gate = scaling.GATES[get_choice(cfg, key, scaling.GATES)]
    theta = get_number(cfg, "theta", theta)
    phi = get_number(cfg, "phi", 0.0)
    jk = get_choice(cfg, "jk", two_qubit.COMPUTATIONAL_LABELS, "11")
    return gate, theta, phi, jk


def parse_segments(cfg: dict, dim: int) -> tuple[str, int]:
    """The pulse shape (envelope, steps) of each area-pi/2 segment."""
    envelope = get_choice(cfg, "envelope", pulses.ENVELOPES, "square")
    steps = get_int(cfg, "steps", 1 if envelope == "square" else 32)
    # two error rows times up to two distinct loops (composite4) times two
    # segments of `steps` slices each, all evolved in one batch
    check_run_size("steps", 16 * 8 * steps * (3 * dim * dim + 32))
    return envelope, steps


def get_tolerance(cfg: dict) -> float:
    tolerance = get_number(cfg, "tolerance", 1e-8)
    if tolerance <= 0:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    return tolerance


def cmd_gate(cfg: dict) -> tuple[dict, dict]:
    check_keys(cfg, {"gate", "theta", "phi", "jk", "error", "envelope", "steps", "tolerance"}, {"gate"})
    tolerance = get_tolerance(cfg)
    gate, theta, phi, jk = parse_gate(cfg, "gate")
    error = parse_error_model(cfg, gate)
    envelope, steps = parse_segments(cfg, len(gate.labels))
    ideal, actual = gate.build(theta, phi, jk, [(0.0,) * len(error), error], envelope, steps)

    fidelity = scaling.gate_fidelity(ideal, actual)
    distance = float(np.linalg.norm(actual - ideal))
    outputs = {
        "basis": list(gate.labels),
        "matrix": matrix_payload(actual),
        "ideal_matrix": matrix_payload(ideal),
        "fidelity_to_ideal": fidelity,
        "infidelity": 1.0 - fidelity,
        "distance_to_ideal": distance,
        "within_tolerance": distance <= tolerance,
    }
    if gate.labels == qutrit.BASIS_LABELS:
        # same gate viewed in the rotated (excited, bright, dark) basis,
        # where the ideal forms are diagonal
        change = qutrit.frame(theta, phi)
        outputs["frame_basis"] = ["e", "b", "d"]
        outputs["matrix_frame_basis"] = matrix_payload(change.conj().T @ actual @ change)
    return outputs, {}


def parse_epsilons(cfg: dict) -> tuple[float, ...]:
    raw = cfg.get("epsilons", {"points": 12})
    if isinstance(raw, dict):
        check_keys(raw, {"points"}, set())
        points = get_int(raw, "points", 12)
    elif isinstance(raw, list):
        points = len(raw)
    else:
        raise ValueError("config key 'epsilons' must be a list or a {points: N} object")
    # a grid and a list are held to the same count and size
    if points < 2:
        raise ValueError("epsilon grid needs at least 2 points")
    check_sweep_size("epsilons", points)
    if isinstance(raw, dict):
        return scaling.default_epsilon_grid(points)
    # every entry passes the check of a number-valued key
    return tuple(get_number({"epsilons": v}, "epsilons") for v in raw)


def cmd_sweep(cfg: dict) -> tuple[dict, dict]:
    check_keys(cfg, {"gate_kind", "theta", "phi", "jk", "error_mode", "epsilons"}, {"gate_kind", "error_mode"})
    gate, theta, phi, jk = parse_gate(cfg, "gate_kind", theta=math.pi / 4)
    error_mode = get_choice(cfg, "error_mode", gate.error_modes)
    samples = scaling.sweep_samples(gate, error_mode, parse_epsilons(cfg), theta, phi, jk)
    fit = scaling.fit_power_law(samples)
    outputs = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_samples_fit": len(fit.samples),
        "n_samples_total": len(samples),
    }
    return outputs, {"sweep.csv": csv_text(samples, ("epsilon", "infidelity"))}


def cmd_check_holonomy(cfg: dict) -> tuple[dict, dict]:
    check_keys(cfg, {"schedule", "theta", "phi", "jk", "samples_per_segment", "tolerance", "truncate_segments"}, {"schedule"})
    samples = get_int(cfg, "samples_per_segment", 128)
    tolerance = get_tolerance(cfg)
    gate, theta, phi, jk = parse_gate(cfg, "schedule")
    schedule = gate.schedule(theta, phi, jk, (0.0,) * len(gate.error_keys))
    if cfg.get("truncate_segments") is not None:
        truncate = get_int(cfg, "truncate_segments")
        if not 1 <= truncate <= schedule.n_segments:
            raise ValueError("truncate_segments out of range for this schedule")
        schedule = linalg.Schedule(schedule.generators[:truncate], schedule.areas[:truncate])
    # samples_per_segment is checked but changes nothing: the certificate is exact
    trace = holonomy.trace_evolution(schedule, gate.subspace_basis(), samples)
    report = holonomy.check_holonomy(trace, tolerance)
    # cond1_residual, cond2_max, passed and tolerance
    outputs = dict(dataclasses.asdict(report), n_segments=trace.n_segments)
    if trace.n_segments == 2:
        outputs["midpoint_displacement"] = holonomy.grassmannian_midpoint_check(trace)
    return outputs, {}


def cmd_dfs(cfg: dict) -> tuple[dict, dict]:
    check_keys(cfg, {"kappa", "distribution", "n_samples", "seed", "theta", "phi"}, set())
    kappa = get_number(cfg, "kappa", 0.5)
    distribution = get_choice(cfg, "distribution", dfs.DISTRIBUTIONS, "uniform")
    n_samples = get_int(cfg, "n_samples", 1000)
    seed = get_int(cfg, "seed", 0)
    theta = get_number(cfg, "theta", math.pi / 4)
    phi = get_number(cfg, "phi", 0.0)

    channel = dfs.DephasingChannel(kappa=kappa, distribution=distribution, n_samples=n_samples)
    schedule = dfs.logical_composite_schedule(theta, phi)
    check_dfs_size("n_samples", schedule.n_segments, n_samples)

    encoded, unencoded, closed_form = dfs.protection_run(schedule, channel, seed)
    encoded_mean, unencoded_mean = float(np.mean(encoded)), float(np.mean(unencoded))
    std_error = float(np.std(unencoded, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    outputs = {
        "encoded_mean_fidelity": encoded_mean,
        "encoded_min_fidelity": float(np.min(encoded)),
        "unencoded_mean_fidelity": unencoded_mean,
        "unencoded_std_error": std_error,
        "unencoded_closed_form": closed_form,
        "n_kicks": schedule.n_segments,
        "seed": seed,
    }
    rows = [(kappa, encoded_mean, unencoded_mean)]
    return outputs, {"dfs.csv": csv_text(rows, ("kappa", "encoded_fidelity", "unencoded_fidelity"))}


# Each subcommand's function, record name and help.  The function returns
# its outputs and the CSV texts it writes beside its record.
COMMANDS = {
    "gate": (cmd_gate, "gate_result.json", "build a gate and compare it to its ideal form"),
    "sweep": (cmd_sweep, "sweep_result.json", "sweep a systematic error and fit the infidelity scaling order"),
    "check-holonomy": (cmd_check_holonomy, "holonomy_result.json", "certify loop closure and vanishing dynamical phase"),
    "dfs": (cmd_dfs, "dfs_result.json", "run the collective-dephasing protection demonstration"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holgate",
        description="Simulate and verify composite holonomic gates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, info) in COMMANDS.items():
        p = sub.add_parser(name, help=info)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
    return parser


# parse_args leaves the parser unchanged, so one instance serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        command, record_name, _ = COMMANDS[args.command]
        with strict_numerics():
            outputs, files = command(cfg)
        record = make_record(args.command, cfg, outputs)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # a config check or a library check rejecting a config value;
        # LinAlgError is a ValueError too, so it is caught first
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # one line: without indent, json runs its C encoder
    files[record_name] = json.dumps(record, sort_keys=True) + "\n"
    try:
        write_files(Path(args.out), files)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = {k: v for k, v in record["outputs"].items() if not isinstance(v, list)}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def run_script(parser: argparse.ArgumentParser, work) -> None:
    """Run a study script under ``holgate``'s exit contract.

    ``work(args)`` returns ``(texts, lines)``: the files to write into
    ``--out``, by name, and the lines to print.  A numerical failure exits 3
    with one line; any other ``ValueError``, and an ``--out`` that cannot be
    written, is an argparse error naming the problem (exit 2).  Every file is
    written before any line is printed, and a failed run writes none.
    """
    args = parser.parse_args()
    try:
        with strict_numerics():
            texts, lines = work(args)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = Path(args.out)
    try:
        write_files(out_dir, texts)
    except OSError as exc:
        parser.error(f"argument --out: cannot write {out_dir}: {exc}")
    for line in lines:
        print(line)


if __name__ == "__main__":
    sys.exit(main())
