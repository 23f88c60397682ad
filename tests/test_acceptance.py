"""Acceptance gate: every headline claim at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one verdict line
per criterion.
"""

import contextlib
import io
import json
import math

import numpy as np

from hologate import cli, dfs, holonomy, linalg, qutrit, scaling
from hologate.qutrit import BrightDarkFrame, ErrorModel

from oracles import (
    bch_residual,
    frobenius_distance,
    logical_rotation_target,
    residual_norm_ratio,
    stretched_tilted_pairs,
    two_field_pairs,
)

THETA_GRID = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
PHI_GRID = (0.0, math.pi / 4, math.pi / 2)


def report(ok: bool, label: str, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def gate(name, frame, model=None, envelope="square", steps=1):
    return scaling.GATES[name].build(frame.theta, frame.phi, "11", [model], envelope, steps)[0]


def frame_basis_matrix(u, frame):
    change = np.column_stack([qutrit.ket(qutrit.IDX_E), frame.bright, frame.dark])
    return change.conj().T @ u @ change


def test_criterion_1_ideal_gate_exactness():
    worst = 0.0
    for theta in THETA_GRID:
        for phi in PHI_GRID:
            frame = BrightDarkFrame(theta, phi)
            worst = max(worst, frobenius_distance(
                frame_basis_matrix(gate("elementary", frame), frame),
                np.diag([-1j, 1j, 1.0]),
            ))
            worst = max(worst, frobenius_distance(
                frame_basis_matrix(gate("composite2", frame), frame),
                np.diag([-1.0, -1.0, 1.0]).astype(complex),
            ))
            worst = max(worst, frobenius_distance(
                gate("composite4", frame),
                logical_rotation_target(theta, phi),
            ))
    worst = max(worst, frobenius_distance(
        gate("twoqubit_composite", frame), np.diag([1, 1, 1, -1, -1]).astype(complex)
    ))
    ok = worst <= 1e-10
    assert report(ok, "criterion 1: ideal gates exact", f"worst distance {worst:.2e}")


def test_criterion_2_holonomy_certification():
    one, two = scaling.GATES["elementary"], scaling.GATES["twoqubit_elementary"]
    trace1 = holonomy.trace_evolution(
        one.schedule(math.pi / 4, 0.3, "11"), one.subspace_basis(), samples_per_segment=128
    )
    rep1 = holonomy.check_holonomy(trace1, tolerance=1e-8)

    trace2 = holonomy.trace_evolution(
        two.schedule(0.0, 0.0, "11"), two.subspace_basis(), samples_per_segment=128
    )
    rep2 = holonomy.check_holonomy(trace2, tolerance=1e-8)

    ok = rep1.passed and rep2.passed
    assert report(
        ok,
        "criterion 2: holonomy conditions certified",
        f"one-qubit cond1 {rep1.cond1_residual:.2e} cond2 {rep1.cond2_max:.2e}; "
        f"two-qubit cond1 {rep2.cond1_residual:.2e} cond2 {rep2.cond2_max:.2e}",
    )


SLOPE_CASES = (
    ("single", "common", 2.0, 0.1),
    ("composite2", "common", 4.0, 0.2),
    ("composite2", "differential", 2.0, 0.2),
    ("composite4", "common", 4.0, 0.2),
    ("composite4", "differential", 4.0, 0.2),
    ("composite4", "single_field", 4.0, 0.2),
    ("twoqubit_composite", "two_qubit", 4.0, 0.2),
)


def test_criterion_3_scaling_orders():
    ok = True
    details = []
    for kind, mode, target, width in SLOPE_CASES:
        samples = scaling.sweep_samples(scaling.GATES[kind], mode, scaling.default_epsilon_grid(), math.pi / 4, 0.0)
        fit = scaling.fit_power_law(samples)
        case_ok = abs(fit.slope - target) <= width and fit.r_squared >= 0.999
        ok = ok and case_ok
        details.append(f"{kind}/{mode} {fit.slope:.3f}")
    assert report(ok, "criterion 3: infidelity scaling orders", "; ".join(details))


def test_criterion_4_commutator_residual_ratio():
    frame = BrightDarkFrame(math.pi / 3, 0.0)
    ratio = residual_norm_ratio(lambda eps: bch_residual(frame.theta, frame.phi, eps), 0.02)
    ok = abs(ratio - 4.0) <= 0.3
    assert report(ok, "criterion 4: second-order commutator residual", f"ratio {ratio:.3f}")


def test_criterion_5_error_route_equivalence():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(100):
        frame = BrightDarkFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        model = ErrorModel(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        built = gate("elementary", frame, model)
        # the raw two-field route and the stretched-and-tilted route, each
        # against the package's drive-field route
        for route in (two_field_pairs, stretched_tilted_pairs):
            pairs = route(frame.theta, frame.phi, model.eps0, model.eps1)
            d = frobenius_distance(linalg.evolve(linalg.Schedule(*zip(*pairs))), built)
            worst = max(worst, d)
    ok = worst <= 1e-9
    assert report(ok, "criterion 5: raw and reparametrized error routes", f"worst {worst:.2e}")


def test_criterion_6_pulse_shape_independence():
    worst = 0.0
    frame = BrightDarkFrame(0.8, 1.1)
    names = ("elementary", "composite2", "composite4", "twoqubit_elementary", "twoqubit_composite")
    for name in names:
        worst = max(worst, frobenius_distance(
            gate(name, frame), gate(name, frame, envelope="sine_squared", steps=32)
        ))
    ok = worst <= 1e-9
    assert report(ok, "criterion 6: envelope independence", f"worst {worst:.2e}")


def test_criterion_7_dfs_protection():
    channel = dfs.DephasingChannel(0.5, "uniform", n_samples=1000)
    encoding = dfs.three_ion_encoding()
    psi = (encoding.logical_ket("0") + encoding.logical_ket("1")) / math.sqrt(2)
    encoded = dfs.kicked_schedule_fidelities(
        dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, seed=11
    )
    per_realization = float(np.max(np.abs(encoded.fidelities - 1.0)))

    psi_raw = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    contrast = dfs.idle_contrast_run(psi_raw, channel, n_kicks=8, seed=12)
    exact = dfs.idle_contrast_closed_form(psi_raw, channel, n_kicks=8)
    gap = abs(contrast.mean - exact)

    ok = per_realization <= 1e-12 and gap <= 3 * contrast.std_error
    assert report(
        ok,
        "criterion 7: collective-dephasing protection",
        f"encoded deviation {per_realization:.2e}; contrast gap {gap:.2e} "
        f"vs 3se {3 * contrast.std_error:.2e}",
    )


def test_criterion_8_register_vs_bare_composite():
    rng = np.random.default_rng(20240819)
    encoding = dfs.three_ion_encoding()
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        model = ErrorModel(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        register = linalg.evolve(dfs.logical_composite_schedule(theta, phi, model))
        idx = [encoding.index(name) for name in ("0", "1", "a")]
        block = register[np.ix_(idx, idx)]
        bare = gate("composite4", BrightDarkFrame(theta, phi), model)
        worst = max(worst, frobenius_distance(block, bare))
    ok = worst <= 1e-9
    assert report(ok, "criterion 8: register gate matches bare composite", f"worst {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(
        {"gate_kind": "composite4", "error_mode": "common", "epsilons": {"points": 6}}
    ))
    dfs_cfg = tmp_path / "dfs.json"
    dfs_cfg.write_text(json.dumps({"kappa": 0.5, "n_samples": 200, "seed": 5}))

    pairs = []
    for cfg, csv_name in ((sweep_cfg, "sweep.csv"), (dfs_cfg, "dfs.csv")):
        command = "sweep" if csv_name == "sweep.csv" else "dfs"
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / f"{command}_{run_dir}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            blobs.append((out / csv_name).read_bytes())
        pairs.append(blobs[0] == blobs[1])

    ok = all(pairs)
    assert report(ok, "criterion 9: CLI byte determinism", f"sweep {pairs[0]}, dfs {pairs[1]}")
