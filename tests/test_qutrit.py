import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import linalg, qutrit
from hologate.qutrit import BrightDarkFrame, ErrorModel
from hologate.scaling import GATES

from oracles import (
    bch_residual,
    logical_rotation_target,
    projector,
    rk4_propagator,
    two_field_composite_pairs,
    two_field_pairs,
)

angles = st.floats(0.0, math.pi)
phases = st.floats(0.0, 2 * math.pi)
small_eps = st.floats(-0.2, 0.2)


def gate(name, frame, model=None, envelope="square", steps=1):
    return GATES[name].build(frame.theta, frame.phi, "11", [model], envelope, steps)[0]


def hamiltonian(frame, omega, phi0):
    return omega * qutrit.drive_generators(frame.theta, frame.phi, phi0)


def analytic_elementary(frame):
    e = qutrit.ket(qutrit.IDX_E)
    return (
        -1j * projector(e) + 1j * projector(frame.bright) + projector(frame.dark)
    )


@given(theta=angles, phi=phases)
def test_frame_vectors_are_orthonormal(theta, phi):
    f = BrightDarkFrame(theta, phi)
    assert abs(np.vdot(f.bright, f.bright) - 1) < 1e-12
    assert abs(np.vdot(f.dark, f.dark) - 1) < 1e-12
    assert abs(np.vdot(f.bright, f.dark)) < 1e-12
    assert f.bright[qutrit.IDX_E] == 0 and f.dark[qutrit.IDX_E] == 0


def test_error_model_bounds():
    ErrorModel(0.99, -0.99)
    with pytest.raises(ValueError):
        ErrorModel(1.0, 0.0)
    with pytest.raises(ValueError):
        ErrorModel(0.0, -1.0)


def test_hamiltonian_zero_envelope():
    h = hamiltonian(BrightDarkFrame(0.3, 0.4), 0.0, 0.1)
    assert np.all(h == 0)


def test_hamiltonian_theta_zero_couples_ground_zero():
    h = hamiltonian(BrightDarkFrame(0.0, 0.0), 1.0, 0.0)
    expected = np.zeros((3, 3), dtype=complex)
    expected[qutrit.IDX_0, qutrit.IDX_E] = 1.0
    expected[qutrit.IDX_E, qutrit.IDX_0] = 1.0
    assert linalg.frobenius_distance(h, expected) < 1e-15


@given(theta=angles, phi=phases, phi0=phases, omega=st.floats(0.0, 5.0))
def test_hamiltonian_annihilates_dark_state(theta, phi, phi0, omega):
    f = BrightDarkFrame(theta, phi)
    h = hamiltonian(f, omega, phi0)
    assert linalg.norm(h @ f.dark) < 1e-12 * max(omega, 1.0)


@given(theta=angles, delta=st.floats(-0.5, 0.5))
def test_common_mode_error_is_pure_stretch(theta, delta):
    eps, theta_prime = qutrit.effective_error_params(theta, ErrorModel(delta, delta))
    assert abs(eps - delta) < 1e-12
    assert abs(theta_prime - theta) < 1e-9


def test_zero_error_is_identity_map():
    eps, theta_prime = qutrit.effective_error_params(1.1, ErrorModel(0.0, 0.0))
    assert eps == 0.0
    assert abs(theta_prime - 1.1) < 1e-15


def test_effective_error_params_high_precision_value():
    # independent 50-digit evaluation of the closed forms
    with mpmath.workdps(50):
        t = mpmath.pi / 3
        a0, a1 = mpmath.mpf("1.1"), mpmath.mpf(1)
        eps_ref = mpmath.sqrt(
            (a0 * mpmath.cos(t / 2)) ** 2 + (a1 * mpmath.sin(t / 2)) ** 2
        ) - 1
        tp_ref = 2 * mpmath.atan2(a1 * mpmath.sin(t / 2), a0 * mpmath.cos(t / 2))
        eps_ref, tp_ref = float(eps_ref), float(tp_ref)
    eps, tp = qutrit.effective_error_params(math.pi / 3, ErrorModel(0.1, 0.0))
    assert abs(eps - eps_ref) < 1e-15
    assert abs(tp - tp_ref) < 1e-15


@given(theta=angles, e0=small_eps, e1=small_eps)
def test_effective_params_match_spectrum_of_raw_hamiltonian(theta, e0, e1):
    # cross-check: the raw two-field generator has singular values
    # {1+eps, 0} and its null ground-space vector is the tilted dark state
    model = ErrorModel(e0, e1)
    eps, theta_prime = qutrit.effective_error_params(theta, model)
    h = two_field_pairs(theta, 0.0, e0, e1)[1][0]
    evals = np.sort(np.abs(np.linalg.eigvalsh(h)))
    assert abs(evals[-1] - (1 + eps)) < 1e-10
    tilted_dark = BrightDarkFrame(theta_prime, 0.0).dark
    assert linalg.norm(h @ tilted_dark) < 1e-10


@given(theta=angles, e0=small_eps, e1=small_eps)
def test_tilted_angle_stays_in_principal_branch(theta, e0, e1):
    _, theta_prime = qutrit.effective_error_params(theta, ErrorModel(e0, e1))
    assert -1e-12 <= theta_prime <= math.pi + 1e-12


def test_elementary_gate_closed_form(rng):
    for _ in range(10):
        f = BrightDarkFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert linalg.frobenius_distance(gate("elementary", f), analytic_elementary(f)) < 1e-10


def test_elementary_gate_is_fourth_root_of_identity():
    u = gate("elementary", BrightDarkFrame(0.8, 1.3))
    assert linalg.frobenius_distance(np.linalg.matrix_power(u, 4), np.eye(3)) < 1e-12


def test_elementary_gate_against_integrator():
    f = BrightDarkFrame(math.pi / 2, 0.0)
    ref = rk4_propagator(two_field_pairs(f.theta, f.phi))
    assert linalg.frobenius_distance(gate("elementary", f), ref) < 1e-10


@given(theta=angles, phi=phases)
def test_elementary_gate_fixes_dark_state(theta, phi):
    f = BrightDarkFrame(theta, phi)
    assert linalg.norm(gate("elementary", f) @ f.dark - f.dark) < 1e-10


def test_error_gate_without_model_is_ideal():
    f = BrightDarkFrame(1.0, 0.2)
    # the ideal gate of a batch does not depend on the other models in it
    batch = GATES["elementary"].build(f.theta, f.phi, "11", [None, ErrorModel(0.1, -0.1)])
    assert np.array_equal(batch[0], gate("elementary", f))
    assert (
        linalg.frobenius_distance(
            gate("elementary", f, ErrorModel(0.0, 0.0)),
            gate("elementary", f),
        )
        < 1e-14
    )


def test_common_mode_gate_is_area_stretched_ideal():
    f = BrightDarkFrame(0.9, 0.4)
    eps = 0.07
    direct = gate("elementary", f, ErrorModel(eps, eps))
    stretched = linalg.evolve(
        linalg.Schedule(
            [hamiltonian(f, 1.0, math.pi / 2), hamiltonian(f, 1.0, 0.0)],
            [(1 + eps) * math.pi / 2] * 2,
        )
    )
    assert linalg.frobenius_distance(direct, stretched) < 1e-12


def test_error_gate_matches_raw_two_field_evolution():
    f = BrightDarkFrame(math.pi / 4, math.pi / 3)
    model = ErrorModel(0.02, -0.01)
    reparam = gate("elementary", f, model)
    pairs = two_field_pairs(f.theta, f.phi, model.eps0, model.eps1)
    raw = linalg.evolve(linalg.Schedule(*zip(*pairs)))
    assert linalg.frobenius_distance(reparam, raw) < 1e-9
    assert linalg.frobenius_distance(reparam, rk4_propagator(pairs)) < 1e-9


@given(theta=angles, phi=phases, e0=small_eps, e1=small_eps)
def test_reparametrized_route_equals_raw_route(theta, phi, e0, e1):
    f = BrightDarkFrame(theta, phi)
    model = ErrorModel(e0, e1)
    raw = linalg.evolve(linalg.Schedule(*zip(*two_field_pairs(theta, phi, e0, e1))))
    d = linalg.frobenius_distance(gate("elementary", f, model), raw)
    assert d < 1e-9


def test_composite_two_is_elementary_squared():
    f = BrightDarkFrame(0.7, 1.9)
    u = gate("elementary", f, None)
    assert np.array_equal(gate("composite2", f), u @ u)


def test_composite_two_ideal_value():
    f = BrightDarkFrame(1.2, 0.3)
    e = qutrit.ket(qutrit.IDX_E)
    target = -projector(e) - projector(f.bright) + projector(f.dark)
    assert linalg.frobenius_distance(gate("composite2", f), target) < 1e-10


def test_composite_two_common_mode_residual_is_second_order():
    f = BrightDarkFrame(0.9, 0.0)
    ideal = gate("composite2", f)
    d1 = linalg.frobenius_distance(gate("composite2", f, ErrorModel(0.02, 0.02)), ideal)
    d2 = linalg.frobenius_distance(gate("composite2", f, ErrorModel(0.01, 0.01)), ideal)
    assert 3.5 < d1 / d2 < 4.5


def test_composite_two_differential_mode_residual_is_first_order():
    # the tilted bright angle survives repetition, so the distance is
    # linear in the differential error
    f = BrightDarkFrame(0.9, 0.0)
    ideal = gate("composite2", f)
    d1 = linalg.frobenius_distance(gate("composite2", f, ErrorModel(0.01, -0.01)), ideal)
    d2 = linalg.frobenius_distance(gate("composite2", f, ErrorModel(0.005, -0.005)), ideal)
    assert 1.8 < d1 / d2 < 2.2


def test_composite_two_error_factorizes_into_tilted_loop_times_commutators():
    # U' U' splits exactly into the tilted mirror-symmetric gate times the
    # four-factor commutator product built in the tilted frame
    f = BrightDarkFrame(1.1, 0.6)
    model = ErrorModel(0.08, -0.03)
    eps, theta_prime = qutrit.effective_error_params(f.theta, model)
    tilted = BrightDarkFrame(theta_prime, f.phi)
    e = qutrit.ket(qutrit.IDX_E)
    u_theta = -projector(e) - projector(tilted.bright) + projector(tilted.dark)
    u_omega = bch_residual(tilted.theta, tilted.phi, eps) + np.eye(3)
    actual = gate("composite2", f, model)
    assert linalg.frobenius_distance(actual, u_theta @ u_omega) < 1e-12
    assert linalg.frobenius_distance(actual, u_omega @ u_theta) < 1e-12


@pytest.mark.parametrize(
    "name,n_pulses", [("composite2", 2), ("composite4", 4)], ids=["composite2", "composite4"]
)
def test_composites_follow_raw_two_field_order(name, n_pulses):
    # The pulse order of the raw two-field route is written out in the
    # oracle, independently of the recipe's loops and order.
    f = BrightDarkFrame(0.7, 0.3)
    models = (None, ErrorModel(0.03, -0.02), ErrorModel(0.01, 0.01))
    gates = GATES[name].build(f.theta, f.phi, "11", models)
    assert gates.shape == (len(models), 3, 3)
    for model, built in zip(models, gates):
        eps = (model.eps0, model.eps1) if model else ()
        pairs = two_field_composite_pairs(f.theta, f.phi, n_pulses, *eps)
        assert linalg.frobenius_distance(built, linalg.evolve(linalg.Schedule(*zip(*pairs)))) < 1e-12
        assert linalg.frobenius_distance(built, rk4_propagator(pairs)) < 1e-10


def test_composite_four_trivial_angle_is_logical_identity():
    f = BrightDarkFrame(math.pi / 2, 0.7)
    u = gate("composite4", f)
    assert linalg.frobenius_distance(u, np.eye(3)) < 1e-10


def test_composite_four_quarter_angle_gives_sigma_y_rotation():
    u = gate("composite4", BrightDarkFrame(math.pi / 4, 0.0))
    sy = np.array([[0, -1j], [1j, 0]])
    target = np.zeros((3, 3), dtype=complex)
    target[:2, :2] = 1j * sy
    target[2, 2] = 1.0
    assert linalg.frobenius_distance(u, target) < 1e-10


def test_composite_four_halving_error_cuts_infidelity_sixteenfold():
    f = BrightDarkFrame(math.pi / 4, 0.0)
    ideal = gate("composite4", f)

    def infid(model):
        u = gate("composite4", f, model)
        d = linalg.as_complex_matrix(ideal)
        val = abs(np.trace(d.conj().T @ u)) / 3.0
        return 1.0 - val

    r = infid(ErrorModel(0.03, 0.01)) / infid(ErrorModel(0.015, 0.005))
    assert 13.0 < r < 19.0


def test_logical_rotation_target_trivial_cases():
    assert linalg.frobenius_distance(
        logical_rotation_target(math.pi / 2, 0.9), np.eye(3)
    ) < 1e-15
    t = logical_rotation_target(0.0, 0.0)
    expected = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert linalg.frobenius_distance(t, expected) < 1e-12


def test_logical_rotation_target_explicit_angle():
    theta, phi = math.pi / 3, math.pi / 4
    t = logical_rotation_target(theta, phi)
    alpha = phi + math.pi / 2
    sigma = np.array(
        [[0, math.cos(alpha) - 1j * math.sin(alpha)], [math.cos(alpha) + 1j * math.sin(alpha), 0]]
    )
    w, v = np.linalg.eigh(sigma)
    block = (v * np.exp(1j * (math.pi - 2 * theta) * w)) @ v.conj().T
    assert linalg.frobenius_distance(t[:2, :2], block) < 1e-12
    assert t[2, 2] == 1.0


@given(theta=angles, phi=phases)
def test_composite_four_reaches_its_target(theta, phi):
    f = BrightDarkFrame(theta, phi)
    d = linalg.frobenius_distance(
        gate("composite4", f), logical_rotation_target(theta, phi)
    )
    assert d < 1e-10


@given(theta=st.floats(0.1, math.pi - 0.1), e0=small_eps, e1=small_eps)
def test_mirrored_tilt_cancels_to_first_order(theta, e0, e1):
    # (pi - theta)' - theta' - (pi - 2 theta) vanishes to first order in
    # the asymmetry x; allow a generous quadratic envelope
    model = ErrorModel(e0, e1)
    _, tp = qutrit.effective_error_params(theta, model)
    _, tp_mirror = qutrit.effective_error_params(math.pi - theta, model)
    x = (e1 - e0) / (1 + e0)
    assert abs(tp_mirror - tp - (math.pi - 2 * theta)) <= 2.0 * x**2 + 1e-12


def test_composite_four_has_no_first_order_error_term():
    # fit distance(eps) = c1 eps + c2 eps^2 over a small grid; the linear
    # coefficient must be noise next to the quadratic one
    f = BrightDarkFrame(math.pi / 3, 0.2)
    ideal = gate("composite4", f)
    eps_grid = np.linspace(2e-4, 1e-3, 6)
    dists = [
        linalg.frobenius_distance(gate("composite4", f, ErrorModel(e, -e)), ideal)
        for e in eps_grid
    ]
    design = np.column_stack([eps_grid, eps_grid**2])
    (c1, c2), *_ = np.linalg.lstsq(design, np.array(dists), rcond=None)
    assert abs(c1) < 1e-3 * abs(c2)


def test_bch_residual_zero_error_vanishes():
    r = bch_residual(0.9, 0.1, 0.0)
    assert linalg.frobenius_norm(r) < 1e-13


def test_bch_residual_quadratic_shrinkage():
    f = BrightDarkFrame(math.pi / 3, 0.0)
    r1 = linalg.frobenius_norm(bch_residual(f.theta, f.phi, 0.01))
    r2 = linalg.frobenius_norm(bch_residual(f.theta, f.phi, 0.005))
    assert 3.8 < r1 / r2 < 4.2


def test_bch_residual_matches_direct_factor_product():
    f = BrightDarkFrame(math.pi / 3, 0.0)
    eps = 0.05
    delta = eps * math.pi / 2
    gen_a = hamiltonian(f, 1.0, math.pi / 2)
    gen_b = hamiltonian(f, 1.0, 0.0)
    # time order: rightmost factor first
    ref = rk4_propagator(
        [(gen_a, delta), (gen_b, -delta), (gen_a, -delta), (gen_b, delta)],
        steps_per_segment=512,
    )
    assert linalg.frobenius_distance(bch_residual(f.theta, f.phi, eps) + np.eye(3), ref) < 1e-10


def test_bch_residual_rejects_large_eps():
    with pytest.raises(ValueError):
        bch_residual(0.5, 0.0, 1.0)


@given(theta=angles, phi=phases, envelope_steps=st.integers(4, 40))
def test_gates_do_not_depend_on_envelope(theta, phi, envelope_steps):
    f = BrightDarkFrame(theta, phi)
    square = gate("composite4", f)
    shaped = gate("composite4", f, None, "sine_squared", envelope_steps)
    assert linalg.frobenius_distance(square, shaped) < 1e-9
