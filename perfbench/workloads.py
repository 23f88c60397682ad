"""Seeded inputs, calls and output checks for the three benchmark workloads.

A workload is a fixed list of entries generated from the seed.  Each entry
becomes one call: a ``holgate`` subcommand run in process through
``hologate.cli.main`` on a generated JSON config, or a library-level
certification of an ion-register schedule.  The seed changes angles, error
sizes and kick strengths, never the number or size of the calls, so every
seed asks for the same amount of work.

Checks use numpy only, never hologate, so that a traced run records no
spans for them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hologate import cli, dfs, holonomy

WORKLOADS = ("sweep", "dfs", "certify")

# (gate_kind, error_mode) cases of scripts/scaling_study.py with the order
# the paper predicts.  The check takes it as a lower bound: at special
# angles the leading term vanishes and the fitted slope comes out higher.
SWEEP_CASES = (
    ("single", "common", 2),
    ("single", "differential", 2),
    ("single", "single_field", 2),
    ("composite2", "common", 4),
    ("composite2", "differential", 2),
    ("composite4", "common", 4),
    ("composite4", "differential", 4),
    ("composite4", "single_field", 4),
    ("twoqubit_single", "two_qubit", 2),
    ("twoqubit_composite", "two_qubit", 4),
)
SLOPE_MARGIN = 0.1
SWEEP_POINTS = 12

GATE_NAMES = ("elementary", "composite2", "composite4", "twoqubit_elementary", "twoqubit_composite")
GATE_SEGMENTS = {
    "elementary": 2,
    "composite2": 4,
    "composite4": 8,
    "twoqubit_elementary": 2,
    "twoqubit_composite": 4,
}
JK_LABELS = ("00", "01", "10", "11")
MAX_EPS = 0.1
UNITARY_TOL = 1e-9
ENVELOPE_TOL = 1e-9

# n_samples from the CLI default upward; one kappa per slot, both
# distributions per kappa.
DFS_SAMPLES = (1000, 2000, 4000, 1000, 2000, 4000)
DFS_Z = 5.0
# Absolute slack for kappa near 0, where the sample spread is rounding noise.
DFS_ABS_TOL = 1e-12
ENCODED_TOL = 1e-9

SAMPLES_PER_SEGMENT = 512
# dfs function names, looked up at call time so that a traced run sees them
REGISTERS = {
    "three_ion": ("logical_composite_schedule", "three_ion_encoding", ("0", "1")),
    "six_ion": ("two_logical_composite_schedule", "six_ion_encoding", ("00", "01", "10", "11")),
}
REGISTER_SEGMENTS = {"three_ion": 8, "six_ion": 4}


def _angles(rng: random.Random) -> dict:
    return {"theta": rng.uniform(0.0, math.pi), "phi": rng.uniform(0.0, 2.0 * math.pi)}


def sweep_entries(rng: random.Random) -> list[dict]:
    """Ten sweeps, each followed by one gate call; square before sine_squared."""
    sweeps = []
    for kind, mode, order in SWEEP_CASES:
        cfg = {"gate_kind": kind, "error_mode": mode, "epsilons": {"points": SWEEP_POINTS}}
        cfg.update(_angles(rng))
        if kind.startswith("twoqubit"):
            cfg["jk"] = rng.choice(JK_LABELS)
        sweeps.append({"op": "sweep", "config": cfg, "order": order, "evals": SWEEP_POINTS})
    gates = []
    for pair, name in enumerate(GATE_NAMES):
        cfg = {"gate": name}
        if name.startswith("twoqubit"):
            cfg["jk"] = rng.choice(JK_LABELS)
            cfg["error"] = {"eps_jk": rng.uniform(-MAX_EPS, MAX_EPS)}
        else:
            cfg.update(_angles(rng))
            cfg["error"] = {
                "eps0": rng.uniform(-MAX_EPS, MAX_EPS),
                "eps1": rng.uniform(-MAX_EPS, MAX_EPS),
            }
        for envelope in ("square", "sine_squared"):
            gates.append(
                {"op": "gate", "config": dict(cfg, envelope=envelope), "pair": pair, "evals": 1}
            )
    entries = []
    for sweep, gate in zip(sweeps, gates):
        entries += [sweep, gate]
    return entries


def dfs_entries(rng: random.Random) -> list[dict]:
    kappas = sorted(rng.uniform(0.0, 1.0) for _ in DFS_SAMPLES)
    entries = []
    for kappa, n_samples in zip(kappas, DFS_SAMPLES):
        for distribution in ("uniform", "gaussian"):
            cfg = {
                "kappa": kappa,
                "distribution": distribution,
                "n_samples": n_samples,
                "seed": rng.randrange(2**31),
            }
            # encoded and bare runs each draw n_samples kick sequences
            entries.append({"op": "dfs", "config": cfg, "evals": 2 * n_samples})
    return entries


def certify_entries(rng: random.Random) -> list[dict]:
    """Every schedule whole and truncated, then the two register schedules."""
    entries = []
    for name in GATE_NAMES:
        cfg = {"schedule": name, "samples_per_segment": SAMPLES_PER_SEGMENT}
        if name.startswith("twoqubit"):
            cfg["jk"] = rng.choice(JK_LABELS)
        else:
            cfg.update(_angles(rng))
        full = GATE_SEGMENTS[name]
        # drop the last segment: every schedule has an even count, and an
        # odd cut never lands on a closed sub-loop
        cut = full - 1
        entries.append(
            {"op": "check-holonomy", "config": cfg, "expect": True,
             "evals": full * SAMPLES_PER_SEGMENT + 1}
        )
        entries.append(
            {"op": "check-holonomy", "config": dict(cfg, truncate_segments=cut), "expect": False,
             "evals": cut * SAMPLES_PER_SEGMENT + 1}
        )
    for register, segments in REGISTER_SEGMENTS.items():
        cfg = {"register": register, "samples_per_segment": SAMPLES_PER_SEGMENT}
        cfg.update(_angles(rng))
        entries.append(
            {"op": "register", "config": cfg, "expect": True,
             "evals": segments * SAMPLES_PER_SEGMENT + 1}
        )
    entries.append({"op": "six_ion_gate", "config": _angles(rng), "evals": 0})
    return entries


GENERATORS = {"sweep": sweep_entries, "dfs": dfs_entries, "certify": certify_entries}


def entries(workload: str, seed: int) -> list[dict]:
    """The workload's entries for one seed; identical seeds give identical lists."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---- output checks: each returns None or a reason for failure ----


def check_sweep(outputs: dict, order: int) -> str | None:
    slope = outputs.get("slope")
    if not isinstance(slope, float) or not math.isfinite(slope):
        return f"slope is not a finite number: {slope!r}"
    if slope < order - SLOPE_MARGIN:
        return f"slope {slope:.4f} below predicted order {order} - {SLOPE_MARGIN}"
    return None


def check_gate(matrix: np.ndarray, reference: np.ndarray | None) -> str | None:
    """Unitary, and for sine_squared equal to the square-envelope matrix."""
    if not np.all(np.isfinite(matrix)):
        return "gate matrix has non-finite entries"
    residual = np.linalg.norm(matrix.conj().T @ matrix - np.eye(len(matrix)))
    if residual > UNITARY_TOL:
        return f"gate is not unitary: ||U^dag U - I|| = {residual:.3e}"
    if reference is not None:
        gap = np.linalg.norm(matrix - reference)
        if not gap <= ENVELOPE_TOL:
            return f"envelope changed the gate by {gap:.3e}"
    return None


def check_dfs(outputs: dict) -> str | None:
    """Encoded state untouched; bare Monte-Carlo mean agrees with the closed form."""
    encoded = outputs["encoded_min_fidelity"]
    if not abs(encoded - 1.0) <= ENCODED_TOL:
        return f"encoded minimum fidelity {encoded!r} is not 1"
    gap = abs(outputs["unencoded_mean_fidelity"] - outputs["unencoded_closed_form"])
    allowed = DFS_Z * outputs["unencoded_std_error"] + DFS_ABS_TOL
    if not gap <= allowed:
        return f"bare mean off the closed form by {gap:.3e} > {allowed:.3e}"
    return None


def check_verdict(passed, expect: bool) -> str | None:
    if passed is not expect:
        return f"holonomy verdict {passed!r}, expected {expect!r}"
    return None


def check_logical_block(gate: np.ndarray, indices) -> str | None:
    """The gate maps the encoded span onto itself: its logical block is unitary."""
    block = gate[np.ix_(indices, indices)]
    return check_gate(block, None)


# ---- calls ----


def payload_matrix(payload) -> np.ndarray:
    return np.array([[re + 1j * im for re, im in row] for row in payload])


RESULT_FILES = {
    "gate": ("gate_result.json", None),
    "sweep": ("sweep_result.json", "sweep.csv"),
    "check-holonomy": ("holonomy_result.json", None),
    "dfs": ("dfs_result.json", "dfs.csv"),
}


@dataclass
class Outcome:
    error: str | None
    fingerprint: bytes
    outputs: dict


class CliCall:
    """One ``holgate`` subcommand on a config file written at set-up."""

    def __init__(self, entry: dict, config_path: Path, out_dir: Path, references: dict):
        self.entry = entry
        self.argv = [entry["op"], "--config", str(config_path), "--out", str(out_dir)]
        self.out_dir = out_dir
        self.references = references
        self.sink = io.StringIO()

    def invoke(self):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            return cli.main(self.argv)

    def inspect(self, code) -> Outcome:
        if code != 0:
            return Outcome(f"exit code {code}", b"", {})
        record_name, csv_name = RESULT_FILES[self.entry["op"]]
        outputs = json.loads((self.out_dir / record_name).read_text())["outputs"]
        # the record's timestamp differs run to run; CSVs and outputs must not
        if csv_name:
            fingerprint = (self.out_dir / csv_name).read_bytes()
        else:
            fingerprint = json.dumps(outputs, sort_keys=True).encode()
        return Outcome(self.check(outputs), fingerprint, outputs)

    def check(self, outputs: dict) -> str | None:
        op = self.entry["op"]
        if op == "sweep":
            return check_sweep(outputs, self.entry["order"])
        if op == "dfs":
            return check_dfs(outputs)
        if op == "check-holonomy":
            return check_verdict(outputs.get("passed"), self.entry["expect"])
        matrix = payload_matrix(outputs["matrix"])
        pair = self.entry["pair"]
        if self.entry["config"]["envelope"] == "square":
            self.references[pair] = matrix
            return check_gate(matrix, None)
        if pair not in self.references:
            return "no square-envelope gate to compare against"
        return check_gate(matrix, self.references.pop(pair))


class RegisterCall:
    """Library-level certification of an ion-register schedule on its encoding."""

    def __init__(self, entry: dict):
        self.entry = entry
        self.schedule_name, encoding, labels = REGISTERS[entry["config"]["register"]]
        self.basis = [getattr(dfs, encoding)().logical_ket(label) for label in labels]

    def invoke(self):
        cfg = self.entry["config"]
        schedule = getattr(dfs, self.schedule_name)(cfg["theta"], cfg["phi"])
        trace = holonomy.trace_evolution(schedule, self.basis, cfg["samples_per_segment"])
        return holonomy.check_holonomy(trace)

    def inspect(self, report) -> Outcome:
        fingerprint = repr((report.cond1_residual, report.cond2_max, report.passed)).encode()
        return Outcome(check_verdict(report.passed, self.entry["expect"]), fingerprint, {})


class SixIonGateCall:
    """The 64-dimensional two-logical-qubit composite gate."""

    def __init__(self, entry: dict):
        self.entry = entry
        enc = dfs.six_ion_encoding()
        self.indices = [enc.index(label) for label in ("00", "01", "10", "11")]

    def invoke(self):
        cfg = self.entry["config"]
        return dfs.two_logical_composite_gate(cfg["theta"], cfg["phi"])

    def inspect(self, gate) -> Outcome:
        return Outcome(check_logical_block(gate, self.indices), gate.tobytes(), {})


def build_calls(workload: str, seed: int, work_dir: Path) -> list:
    """Write the seed's configs under ``work_dir`` and return one call per entry."""
    config_dir = work_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    references: dict = {}
    calls = []
    for i, entry in enumerate(entries(workload, seed)):
        if entry["op"] == "register":
            calls.append(RegisterCall(entry))
        elif entry["op"] == "six_ion_gate":
            calls.append(SixIonGateCall(entry))
        else:
            path = config_dir / f"{i:02d}.json"
            path.write_text(json.dumps(entry["config"], sort_keys=True))
            calls.append(CliCall(entry, path, work_dir / "out" / f"{i:02d}", references))
    return calls
