"""Command-line front end.

Subcommands build gates, run error sweeps, certify holonomy conditions,
and run the dephasing-protection demonstration, all driven by a JSON
config file.  Primary outputs are CSV files (plot-ready, byte-stable for
a fixed config and seed) plus a JSON result record per run.

Exit codes: 0 success, 2 config or validation problem, 3 numerical
failure during an otherwise valid run, including any non-finite output;
a run that fails writes no file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dfs, holonomy, linalg, pulses, qutrit, scaling, two_qubit
from .scaling import DegenerateFitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Anything wrong with the run configuration."""


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def check_keys(cfg: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")


def get_number(cfg: dict, key: str, default=None) -> float:
    value = cfg.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return float(value)


def get_int(cfg: dict, key: str, default=None) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def get_choice(cfg: dict, key: str, choices, default=None) -> str:
    value = cfg.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"config key {key!r} must be one of {sorted(choices)}, got {value!r}")
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


def write_record(record: dict, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(rows, header, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            # repr of a builtin float is the shortest lossless form
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return path


def parse_error_model(cfg: dict, gate: scaling.Gate):
    spec = cfg.get("error")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("config key 'error' must be an object or null")
    keys = [f.name for f in dataclasses.fields(gate.error_model)]
    check_keys(spec, set(keys), set(keys))
    try:
        return gate.error_model(*(get_number(spec, key) for key in keys))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_segments(cfg: dict):
    envelope = get_choice(cfg, "envelope", ("square", "sine_squared"), "square")
    steps = get_int(cfg, "steps", 1 if envelope == "square" else 32)
    if steps < 1:
        raise ConfigError("config key 'steps' must be >= 1")
    return pulses.default_segments(envelope, steps)


def check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance!r}")


def cmd_gate(cfg: dict, out_dir: Path, tolerance: float) -> dict:
    check_keys(
        cfg,
        {"gate", "theta", "phi", "jk", "error", "envelope", "steps"},
        {"gate"},
    )
    check_tolerance(tolerance)
    gate = scaling.GATES[get_choice(cfg, "gate", scaling.GATES)]
    theta = get_number(cfg, "theta", math.pi / 2)
    phi = get_number(cfg, "phi", 0.0)
    jk = get_choice(cfg, "jk", two_qubit.COMPUTATIONAL_LABELS, "11")
    model = parse_error_model(cfg, gate)
    segments = parse_segments(cfg)
    ideal, actual = gate.build(theta, phi, jk, [None, model], segments)

    fid = scaling.gate_fidelity(ideal, actual)
    distance = float(np.linalg.norm(actual - ideal))
    outputs = {
        "basis": list(gate.labels),
        "matrix": matrix_payload(actual),
        "ideal_matrix": matrix_payload(ideal),
        "fidelity_to_ideal": fid.value,
        "infidelity": fid.infidelity,
        "distance_to_ideal": distance,
        "within_tolerance": distance <= tolerance,
    }
    if gate.rotated_frame:
        # same gate viewed in the rotated (excited, bright, dark) basis,
        # where the ideal forms are diagonal
        frame = qutrit.BrightDarkFrame(theta, phi)
        change = np.column_stack([qutrit.ket(qutrit.IDX_E), frame.bright, frame.dark])
        outputs["frame_basis"] = ["e", "b", "d"]
        outputs["matrix_frame_basis"] = matrix_payload(
            change.conj().T @ actual @ change
        )
    record = make_record("gate", cfg, outputs)
    write_record(record, out_dir, "gate_result.json")
    return record


def parse_epsilons(cfg: dict) -> tuple[float, ...]:
    raw = cfg.get("epsilons", {"points": 12})
    if isinstance(raw, dict):
        check_keys(raw, {"points"}, set())
        points = get_int(raw, "points", 12)
        if points < 2:
            raise ConfigError("epsilon grid needs at least 2 points")
        return scaling.default_epsilon_grid(points)
    if isinstance(raw, list):
        if not raw:
            raise ConfigError("epsilons list must not be empty")
        values = []
        for v in raw:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ConfigError(f"epsilon entries must be finite numbers, got {v!r}")
            values.append(float(v))
        return tuple(values)
    raise ConfigError("config key 'epsilons' must be a list or a {points: N} object")


def cmd_sweep(cfg: dict, out_dir: Path, tolerance: float) -> dict:
    check_keys(cfg, {"gate_kind", "theta", "phi", "jk", "error_mode", "epsilons"}, {"gate_kind", "error_mode"})
    gate_kind = get_choice(cfg, "gate_kind", scaling.GATES)
    try:
        spec = scaling.SweepSpec(
            gate_kind=gate_kind,
            theta=get_number(cfg, "theta", math.pi / 4),
            phi=get_number(cfg, "phi", 0.0),
            error_mode=get_choice(cfg, "error_mode", scaling.GATES[gate_kind].error_modes),
            epsilons=parse_epsilons(cfg),
            jk=get_choice(cfg, "jk", two_qubit.COMPUTATIONAL_LABELS, "11"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    samples = scaling.sweep_samples(spec)
    fit = scaling.fit_power_law(samples)
    outputs = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_samples_fit": len(fit.samples),
        "n_samples_total": len(samples),
    }
    record = make_record("sweep", cfg, outputs)
    write_csv(samples, ("epsilon", "infidelity"), out_dir, "sweep.csv")
    write_record(record, out_dir, "sweep_result.json")
    return record


def holonomy_schedule(cfg: dict):
    gate = scaling.GATES[get_choice(cfg, "schedule", scaling.GATES)]
    theta = get_number(cfg, "theta", math.pi / 2)
    phi = get_number(cfg, "phi", 0.0)
    jk = get_choice(cfg, "jk", two_qubit.COMPUTATIONAL_LABELS, "11")
    schedule = gate.schedule(theta, phi, jk)

    truncate = cfg.get("truncate_segments")
    if truncate is not None:
        truncate = get_int(cfg, "truncate_segments")
        if not 1 <= truncate <= schedule.n_segments:
            raise ConfigError("truncate_segments out of range for this schedule")
        schedule = linalg.Schedule(schedule.generators[:truncate], schedule.areas[:truncate])
    return schedule, gate.subspace_basis()


def cmd_check_holonomy(cfg: dict, out_dir: Path, tolerance: float) -> dict:
    check_keys(
        cfg,
        {"schedule", "theta", "phi", "jk", "samples_per_segment", "tolerance", "truncate_segments"},
        {"schedule"},
    )
    samples = get_int(cfg, "samples_per_segment", 128)
    if samples < 1:
        raise ConfigError("samples_per_segment must be >= 1")
    if "tolerance" in cfg:
        tolerance = get_number(cfg, "tolerance")
    check_tolerance(tolerance)
    schedule, basis = holonomy_schedule(cfg)

    trace = holonomy.trace_evolution(schedule, basis, samples)
    report = holonomy.check_holonomy(trace, tolerance)
    outputs = {
        "cond1_residual": report.cond1_residual,
        "cond2_max": report.cond2_max,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "n_segments": trace.n_segments,
    }
    if trace.n_segments == 2:
        outputs["midpoint_displacement"] = holonomy.grassmannian_midpoint_check(trace)
    record = make_record("check-holonomy", cfg, outputs)
    write_record(record, out_dir, "holonomy_result.json")
    return record


def cmd_dfs(cfg: dict, out_dir: Path, tolerance: float, seed_override=None) -> dict:
    check_keys(
        cfg,
        {"kappa", "distribution", "n_samples", "seed", "theta", "phi", "coupling_prefactor"},
        set(),
    )
    kappa = get_number(cfg, "kappa", 0.5)
    distribution = get_choice(cfg, "distribution", ("uniform", "gaussian"), "uniform")
    n_samples = get_int(cfg, "n_samples", 1000)
    seed = seed_override if seed_override is not None else get_int(cfg, "seed", 0)
    theta = get_number(cfg, "theta", math.pi / 4)
    phi = get_number(cfg, "phi", 0.0)
    prefactor = get_number(cfg, "coupling_prefactor", 1.0)
    if kappa < 0:
        raise ConfigError("kappa must be nonnegative")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if prefactor <= 0:
        raise ConfigError("coupling_prefactor must be positive")

    channel = dfs.DephasingChannel(kappa=kappa, distribution=distribution, n_samples=n_samples)
    encoding = dfs.three_ion_encoding()
    schedule = dfs.logical_composite_schedule(theta, phi, None, prefactor)

    psi_enc = (encoding.logical_ket("0") + encoding.logical_ket("1")) / math.sqrt(2)
    encoded = dfs.apply_collective_dephasing(schedule, psi_enc, channel, encoding, seed)

    psi_raw = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    n_kicks = schedule.n_segments
    unencoded = dfs.idle_contrast_run(psi_raw, channel, n_kicks, 3, seed + 1)
    closed_form = dfs.idle_contrast_closed_form(psi_raw, channel, n_kicks, 3)

    outputs = {
        "encoded_mean_fidelity": encoded.mean,
        "encoded_min_fidelity": float(np.min(encoded.fidelities)),
        "unencoded_mean_fidelity": unencoded.mean,
        "unencoded_std_error": unencoded.std_error,
        "unencoded_closed_form": closed_form,
        "n_kicks": n_kicks,
        "seed": seed,
    }
    record = make_record("dfs", cfg, outputs)
    write_csv(
        [(kappa, encoded.mean, unencoded.mean)],
        ("kappa", "encoded_fidelity", "unencoded_fidelity"),
        out_dir,
        "dfs.csv",
    )
    write_record(record, out_dir, "dfs_result.json")
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holgate",
        description="Simulate and verify composite holonomic gates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, info in (
        ("gate", "build a gate and compare it to its ideal form"),
        ("sweep", "sweep a systematic error and fit the infidelity scaling order"),
        ("check-holonomy", "certify loop closure and vanishing dynamical phase"),
        ("dfs", "run the collective-dephasing protection demonstration"),
    ):
        p = sub.add_parser(name, help=info)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--tolerance", type=float, default=1e-8, help="default comparison tolerance"
        )
    return parser


COMMANDS = {
    "gate": lambda cfg, out, tol, seed: cmd_gate(cfg, out, tol),
    "sweep": lambda cfg, out, tol, seed: cmd_sweep(cfg, out, tol),
    "check-holonomy": lambda cfg, out, tol, seed: cmd_check_holonomy(cfg, out, tol),
    "dfs": cmd_dfs,
}


# parse_args leaves the parser unchanged, so one instance serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        record = COMMANDS[args.command](cfg, out_dir, args.tolerance, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFitError, FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    summary = {k: v for k, v in record["outputs"].items() if not isinstance(v, list)}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
