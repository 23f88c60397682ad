import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import linalg, qutrit
from hologate.scaling import GATES

from oracles import (
    EXCITED,
    bch_residual,
    bright_dark,
    effective_error_params,
    frobenius_distance,
    is_unitary,
    logical_rotation_target,
    projector,
    rk4_propagator,
    stretched_tilted_pairs,
    two_field_composite_pairs,
    two_field_pairs,
)

angles = st.floats(0.0, math.pi)
phases = st.floats(0.0, 2 * math.pi)
small_eps = st.floats(-0.2, 0.2)


def gate(name, theta, phi, error=(0.0, 0.0), envelope="square", steps=1):
    return GATES[name].build(theta, phi, "11", [error], envelope, steps)[0]


def drive_pair(theta, phi):
    """The elementary loop's two unit-envelope generators, first in time first."""
    return [h for h, _ in two_field_pairs(theta, phi)]


def analytic_elementary(theta, phi):
    bright, dark = bright_dark(theta, phi)
    return -1j * projector(EXCITED) + 1j * projector(bright) + projector(dark)


@given(theta=angles, phi=phases)
def test_frame_vectors_are_orthonormal(theta, phi):
    # the frame is the unitary whose columns are |e>, |b> and |d>
    f = qutrit.frame(theta, phi)
    assert f.shape == (3, 3) and is_unitary(f, 1e-12)
    bright, dark = bright_dark(theta, phi)
    assert np.array_equal(f[:, 0], EXCITED)
    assert np.max(np.abs(f[:, 1] - bright)) <= 1e-15
    assert np.max(np.abs(f[:, 2] - dark)) <= 1e-15


def test_frame_is_batched_over_theta_and_loops_are_its_bright_column():
    thetas = np.array([[0.0, 0.4], [1.3, math.pi]])
    f = qutrit.frame(thetas, 0.7)
    assert f.shape == (2, 2, 3, 3)
    for index in np.ndindex(thetas.shape):
        assert np.array_equal(f[index], qutrit.frame(thetas[index], 0.7))
    angles = (math.pi - 0.8, 0.8)
    assert np.array_equal(qutrit.loops(angles, 0.7), qutrit.frame(angles, 0.7)[..., 1])
    assert qutrit.loops(angles, 0.7).shape == (2, 3)


def test_error_model_bounds():
    theta, phi = 0.9, 0.3
    for entry in (GATES["elementary"], GATES["composite2"], GATES["composite4"]):
        fields = entry.fields(theta, phi, "11", [(0.99, -0.99)])
        assert np.array_equal(fields, entry.loops(theta, phi, "11")[None] * [1 + 0.99, 1 - 0.99, 1.0])
        for error in [(1.0, 0.0), (0.0, -1.0), (math.nan, 0.0), (0.0, math.inf)]:
            with pytest.raises(ValueError, match=r"\|eps\| < 1"):
                entry.fields(theta, phi, "11", [(0.0, 0.0), error])
        # a wrong-length row is named by the gate's keys, not by numpy
        for errors in [[(0.1,)], [(0.1, 0.2, 0.3)], (0.1, 0.2)]:
            with pytest.raises(ValueError, match=r"\('eps0', 'eps1'\)"):
                entry.fields(theta, phi, "11", errors)


@given(theta=angles, delta=st.floats(-0.5, 0.5))
def test_common_mode_error_is_pure_stretch(theta, delta):
    eps, theta_prime = effective_error_params(theta, delta, delta)
    assert abs(eps - delta) < 1e-12
    assert abs(theta_prime - theta) < 1e-9


def test_zero_error_is_identity_map():
    eps, theta_prime = effective_error_params(1.1, 0.0, 0.0)
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
    eps, tp = effective_error_params(math.pi / 3, 0.1, 0.0)
    assert abs(eps - eps_ref) < 1e-15
    assert abs(tp - tp_ref) < 1e-15


@given(theta=angles, e0=small_eps, e1=small_eps)
def test_effective_params_match_spectrum_of_raw_hamiltonian(theta, e0, e1):
    # cross-check: the raw two-field generator has singular values
    # {1+eps, 0} and its null ground-space vector is the tilted dark state
    eps, theta_prime = effective_error_params(theta, e0, e1)
    h = two_field_pairs(theta, 0.0, e0, e1)[1][0]
    evals = np.sort(np.abs(np.linalg.eigvalsh(h)))
    assert abs(evals[-1] - (1 + eps)) < 1e-10
    _, tilted_dark = bright_dark(theta_prime, 0.0)
    assert np.linalg.norm(h @ tilted_dark) < 1e-10


@given(theta=angles, e0=small_eps, e1=small_eps)
def test_tilted_angle_stays_in_principal_branch(theta, e0, e1):
    _, theta_prime = effective_error_params(theta, e0, e1)
    assert -1e-12 <= theta_prime <= math.pi + 1e-12


def test_elementary_gate_closed_form(rng):
    for _ in range(10):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        assert frobenius_distance(gate("elementary", theta, phi), analytic_elementary(theta, phi)) < 1e-10


def test_elementary_gate_is_fourth_root_of_identity():
    u = gate("elementary", 0.8, 1.3)
    assert frobenius_distance(np.linalg.matrix_power(u, 4), np.eye(3)) < 1e-12


def test_elementary_gate_against_integrator():
    ref = rk4_propagator(two_field_pairs(math.pi / 2, 0.0))
    assert frobenius_distance(gate("elementary", math.pi / 2, 0.0), ref) < 1e-10


@given(theta=angles, phi=phases)
def test_elementary_gate_fixes_dark_state(theta, phi):
    _, dark = bright_dark(theta, phi)
    assert np.linalg.norm(gate("elementary", theta, phi) @ dark - dark) < 1e-10


def test_error_gate_without_model_is_ideal():
    # the ideal gate of a batch does not depend on the other rows in it
    batch = GATES["elementary"].build(1.0, 0.2, "11", [(0.0, 0.0), (0.1, -0.1)])
    assert np.array_equal(batch[0], gate("elementary", 1.0, 0.2))
    assert frobenius_distance(gate("elementary", 1.0, 0.2, (-0.0, 0.0)), gate("elementary", 1.0, 0.2)) < 1e-14


def test_common_mode_gate_is_area_stretched_ideal():
    eps = 0.07
    direct = gate("elementary", 0.9, 0.4, (eps, eps))
    stretched = linalg.evolve(
        linalg.Schedule(
            drive_pair(0.9, 0.4),
            [(1 + eps) * math.pi / 2] * 2,
        )
    )
    assert frobenius_distance(direct, stretched) < 1e-12


def test_error_gate_matches_raw_two_field_evolution():
    theta, phi = math.pi / 4, math.pi / 3
    error = (0.02, -0.01)
    built = gate("elementary", theta, phi, error)
    pairs = two_field_pairs(theta, phi, *error)
    raw = linalg.evolve(linalg.Schedule(*zip(*pairs)))
    assert frobenius_distance(built, raw) < 1e-9
    assert frobenius_distance(built, rk4_propagator(pairs)) < 1e-9


@given(theta=angles, phi=phases, e0=small_eps, e1=small_eps)
def test_reparametrized_route_equals_raw_route(theta, phi, e0, e1):
    # the stretched-and-tilted loop and the raw two-field loop are one
    # evolution, and the package's drive-field gate is that evolution
    raw = linalg.evolve(linalg.Schedule(*zip(*two_field_pairs(theta, phi, e0, e1))))
    tilted = linalg.evolve(linalg.Schedule(*zip(*stretched_tilted_pairs(theta, phi, e0, e1))))
    assert frobenius_distance(tilted, raw) < 1e-9
    built = gate("elementary", theta, phi, (e0, e1))
    assert frobenius_distance(built, raw) < 1e-9


def test_composite_two_is_elementary_squared():
    u = gate("elementary", 0.7, 1.9)
    assert np.array_equal(gate("composite2", 0.7, 1.9), u @ u)


def test_composite_two_ideal_value():
    bright, dark = bright_dark(1.2, 0.3)
    target = -projector(EXCITED) - projector(bright) + projector(dark)
    assert frobenius_distance(gate("composite2", 1.2, 0.3), target) < 1e-10


def test_composite_two_common_mode_residual_is_second_order():
    ideal = gate("composite2", 0.9, 0.0)
    d1 = frobenius_distance(gate("composite2", 0.9, 0.0, (0.02, 0.02)), ideal)
    d2 = frobenius_distance(gate("composite2", 0.9, 0.0, (0.01, 0.01)), ideal)
    assert 3.5 < d1 / d2 < 4.5


def test_composite_two_differential_mode_residual_is_first_order():
    # the tilted bright angle survives repetition, so the distance is
    # linear in the differential error
    ideal = gate("composite2", 0.9, 0.0)
    d1 = frobenius_distance(gate("composite2", 0.9, 0.0, (0.01, -0.01)), ideal)
    d2 = frobenius_distance(gate("composite2", 0.9, 0.0, (0.005, -0.005)), ideal)
    assert 1.8 < d1 / d2 < 2.2


def test_composite_two_error_factorizes_into_tilted_loop_times_commutators():
    # U' U' splits exactly into the tilted mirror-symmetric gate times the
    # four-factor commutator product built in the tilted frame
    theta, phi = 1.1, 0.6
    error = (0.08, -0.03)
    eps, theta_prime = effective_error_params(theta, *error)
    bright, dark = bright_dark(theta_prime, phi)
    u_theta = -projector(EXCITED) - projector(bright) + projector(dark)
    u_omega = bch_residual(theta_prime, phi, eps) + np.eye(3)
    actual = gate("composite2", theta, phi, error)
    assert frobenius_distance(actual, u_theta @ u_omega) < 1e-12
    assert frobenius_distance(actual, u_omega @ u_theta) < 1e-12


@pytest.mark.parametrize(
    "name,n_pulses", [("composite2", 2), ("composite4", 4)], ids=["composite2", "composite4"]
)
def test_composites_follow_raw_two_field_order(name, n_pulses):
    # The pulse order of the raw two-field route is written out in the
    # oracle, independently of the recipe's loops and order.
    errors = ((0.0, 0.0), (0.03, -0.02), (0.01, 0.01))
    gates = GATES[name].build(0.7, 0.3, "11", errors)
    assert gates.shape == (len(errors), 3, 3)
    for error, built in zip(errors, gates):
        pairs = two_field_composite_pairs(0.7, 0.3, n_pulses, *error)
        assert frobenius_distance(built, linalg.evolve(linalg.Schedule(*zip(*pairs)))) < 1e-12
        assert frobenius_distance(built, rk4_propagator(pairs)) < 1e-10


def test_composite_four_trivial_angle_is_logical_identity():
    u = gate("composite4", math.pi / 2, 0.7)
    assert frobenius_distance(u, np.eye(3)) < 1e-10


def test_composite_four_quarter_angle_gives_sigma_y_rotation():
    u = gate("composite4", math.pi / 4, 0.0)
    sy = np.array([[0, -1j], [1j, 0]])
    target = np.zeros((3, 3), dtype=complex)
    target[:2, :2] = 1j * sy
    target[2, 2] = 1.0
    assert frobenius_distance(u, target) < 1e-10


def test_composite_four_halving_error_cuts_infidelity_sixteenfold():
    ideal = gate("composite4", math.pi / 4, 0.0)

    def infid(error):
        u = gate("composite4", math.pi / 4, 0.0, error)
        d = np.asarray(ideal, dtype=complex)
        val = abs(np.trace(d.conj().T @ u)) / 3.0
        return 1.0 - val

    r = infid((0.03, 0.01)) / infid((0.015, 0.005))
    assert 13.0 < r < 19.0


def test_logical_rotation_target_trivial_cases():
    assert frobenius_distance(
        logical_rotation_target(math.pi / 2, 0.9), np.eye(3)
    ) < 1e-15
    t = logical_rotation_target(0.0, 0.0)
    expected = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert frobenius_distance(t, expected) < 1e-12


def test_logical_rotation_target_explicit_angle():
    theta, phi = math.pi / 3, math.pi / 4
    t = logical_rotation_target(theta, phi)
    alpha = phi + math.pi / 2
    sigma = np.array(
        [[0, math.cos(alpha) - 1j * math.sin(alpha)], [math.cos(alpha) + 1j * math.sin(alpha), 0]]
    )
    w, v = np.linalg.eigh(sigma)
    block = (v * np.exp(1j * (math.pi - 2 * theta) * w)) @ v.conj().T
    assert frobenius_distance(t[:2, :2], block) < 1e-12
    assert t[2, 2] == 1.0


@given(theta=angles, phi=phases)
def test_composite_four_reaches_its_target(theta, phi):
    d = frobenius_distance(
        gate("composite4", theta, phi), logical_rotation_target(theta, phi)
    )
    assert d < 1e-10


@given(theta=st.floats(0.1, math.pi - 0.1), e0=small_eps, e1=small_eps)
def test_mirrored_tilt_cancels_to_first_order(theta, e0, e1):
    # (pi - theta)' - theta' - (pi - 2 theta) vanishes to first order in
    # the asymmetry x; allow a generous quadratic envelope
    _, tp = effective_error_params(theta, e0, e1)
    _, tp_mirror = effective_error_params(math.pi - theta, e0, e1)
    x = (e1 - e0) / (1 + e0)
    assert abs(tp_mirror - tp - (math.pi - 2 * theta)) <= 2.0 * x**2 + 1e-12


def test_composite_four_has_no_first_order_error_term():
    # fit distance(eps) = c1 eps + c2 eps^2 over a small grid; the linear
    # coefficient must be noise next to the quadratic one
    ideal = gate("composite4", math.pi / 3, 0.2)
    eps_grid = np.linspace(2e-4, 1e-3, 6)
    dists = [
        frobenius_distance(gate("composite4", math.pi / 3, 0.2, (e, -e)), ideal)
        for e in eps_grid
    ]
    design = np.column_stack([eps_grid, eps_grid**2])
    (c1, c2), *_ = np.linalg.lstsq(design, np.array(dists), rcond=None)
    assert abs(c1) < 1e-3 * abs(c2)


def test_bch_residual_zero_error_vanishes():
    r = bch_residual(0.9, 0.1, 0.0)
    assert np.linalg.norm(r) < 1e-13


def test_bch_residual_quadratic_shrinkage():
    r1 = np.linalg.norm(bch_residual(math.pi / 3, 0.0, 0.01))
    r2 = np.linalg.norm(bch_residual(math.pi / 3, 0.0, 0.005))
    assert 3.8 < r1 / r2 < 4.2


def test_bch_residual_matches_direct_factor_product():
    eps = 0.05
    delta = eps * math.pi / 2
    gen_a, gen_b = drive_pair(math.pi / 3, 0.0)
    # time order: rightmost factor first
    ref = rk4_propagator(
        [(gen_a, delta), (gen_b, -delta), (gen_a, -delta), (gen_b, delta)],
        steps_per_segment=512,
    )
    assert frobenius_distance(bch_residual(math.pi / 3, 0.0, eps) + np.eye(3), ref) < 1e-10


def test_bch_residual_rejects_large_eps():
    with pytest.raises(ValueError):
        bch_residual(0.5, 0.0, 1.0)


@given(theta=angles, phi=phases, envelope_steps=st.integers(4, 40))
def test_gates_do_not_depend_on_envelope(theta, phi, envelope_steps):
    square = gate("composite4", theta, phi)
    shaped = gate("composite4", theta, phi, (0.0, 0.0), "sine_squared", envelope_steps)
    assert frobenius_distance(square, shaped) < 1e-9
