import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import holonomy, linalg, pulses, qutrit, scaling, two_qubit
from hologate.qutrit import BrightDarkFrame
from hologate.scaling import DegenerateFitError

from oracles import bch_residual, frobenius_distance, haar_unitary, order_ratio, residual_norm_ratio


def gate(name, frame, model=None):
    return scaling.GATES[name].build(frame.theta, frame.phi, "11", [model])[0]


def test_fidelity_of_identical_gates_is_one():
    u = gate("elementary", BrightDarkFrame(0.7, 0.2))
    assert abs(scaling.gate_fidelity(u, u) - 1.0) < 1e-14


@given(alpha=st.floats(0.0, 2 * math.pi))
def test_fidelity_ignores_global_phase(alpha):
    u = gate("composite4", BrightDarkFrame(0.9, 0.3))
    f = scaling.gate_fidelity(u, np.exp(1j * alpha) * u)
    assert abs(f - 1.0) < 1e-12


def test_fidelity_known_value():
    f = scaling.gate_fidelity(np.eye(3), np.diag([1.0, 1.0, -1.0]))
    assert type(f) is float
    assert abs(f - 1.0 / 3.0) < 1e-14
    assert abs((1.0 - f) - 2.0 / 3.0) < 1e-14


def test_fidelity_is_invariant_under_a_common_rotation(rng):
    u = gate("elementary", BrightDarkFrame(1.0, 0.5))
    v = gate("elementary", BrightDarkFrame(1.0, 0.5), qutrit.ErrorModel(0.05, -0.05))
    w = haar_unitary(rng, 3)
    before = scaling.gate_fidelity(u, v)
    after = scaling.gate_fidelity(w @ u, w @ v)
    assert abs(before - after) < 1e-12


def test_fidelity_of_unitaries_is_bounded(rng):
    for _ in range(20):
        f = scaling.gate_fidelity(haar_unitary(rng, 4), haar_unitary(rng, 4))
        assert -1e-12 <= f <= 1.0 + 1e-12


def test_fidelity_shape_checks():
    with pytest.raises(ValueError):
        scaling.gate_fidelity(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        scaling.gate_fidelity(np.ones((2, 3)), np.ones((2, 3)))


def test_fidelity_rejects_a_vector():
    with pytest.raises(ValueError, match="shape mismatch"):
        scaling.gate_fidelity(np.ones(3), np.ones(3))


def test_fidelity_rejects_an_ideal_gate_of_zero_norm():
    with pytest.raises(ValueError, match="squared norm 0.0"):
        scaling.gate_fidelity(np.zeros((3, 3)), np.zeros((3, 3)))


def test_sweep_spec_validation():
    single, twoqubit = scaling.GATES["single"], scaling.GATES["twoqubit_composite"]
    scaling.sweep_samples(single, "common", (0.01, 0.02), 0.8, 0.0)
    with pytest.raises(ValueError):
        scaling.sweep_samples(single, "sideways", (0.01, 0.02), 0.8, 0.0)
    with pytest.raises(ValueError):
        scaling.sweep_samples(single, "two_qubit", (0.01, 0.02), 0.8, 0.0)
    with pytest.raises(ValueError):
        scaling.sweep_samples(twoqubit, "common", (0.01, 0.02), 0.8, 0.0)
    for bad_eps in ((), (0.0, 0.1), (-0.01, 0.1), (0.02, 0.01), (0.01, 0.01), (0.5, 1.5), (1.0,)):
        with pytest.raises(ValueError):
            scaling.sweep_samples(single, "common", bad_eps, 0.8, 0.0)


def test_default_grid_properties():
    grid = scaling.default_epsilon_grid()
    assert len(grid) == 12
    assert abs(grid[0] - 1e-3) < 1e-18
    assert abs(grid[-1] - 10**-1.5) < 1e-16
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(type(e) is float for e in grid)


SIZED = {
    "slice_areas": lambda n: pulses.slice_areas("square", n),
    "default_epsilon_grid": scaling.default_epsilon_grid,
}


@pytest.mark.parametrize("size", [2.5, True, np.float64(3.0)], ids=["float", "bool", "numpy_float"])
@pytest.mark.parametrize("name", SIZED)
def test_library_sizes_must_be_integers(name, size):
    assert len(SIZED[name](np.int64(3))) == 3  # numpy integers pass
    with pytest.raises(ValueError, match="must be an integer"):
        SIZED[name](size)


def test_one_qubit_model_modes():
    modes = scaling.GATES["composite4"].error_modes
    assert modes["common"](0.1) == qutrit.ErrorModel(0.1, 0.1)
    assert modes["differential"](0.1) == qutrit.ErrorModel(0.1, -0.1)
    assert modes["single_field"](0.1) == qutrit.ErrorModel(0.1, 0.0)
    assert "two_qubit" not in modes
    assert scaling.GATES["twoqubit_composite"].error_modes["two_qubit"](0.1) == (
        two_qubit.TwoQubitErrorModel(0.1)
    )


def test_gate_table_aliases_share_entries():
    assert scaling.GATES["single"] is scaling.GATES["elementary"]
    assert scaling.GATES["twoqubit_single"] is scaling.GATES["twoqubit_elementary"]
    for gate in scaling.GATES.values():
        # the holonomy subspace is every level but the last, the auxiliary one
        d = len(gate.labels)
        assert np.array_equal(gate.subspace_basis(), np.eye(d)[: d - 1])
        assert gate.labels[-1] in ("e", "a")


def test_sweep_gates_dispatch():
    samples = scaling.sweep_samples(scaling.GATES["twoqubit_single"], "two_qubit", (0.01, 0.05), 0.0, 0.0, "01")
    ideal, actual = scaling.GATES["twoqubit_elementary"].build(
        0.0, 0.0, "01", [None, two_qubit.TwoQubitErrorModel(0.05)]
    )
    assert ideal.shape == (5, 5)
    assert [e for e, _ in samples] == [0.01, 0.05]
    assert abs(samples[1][1] - (1.0 - scaling.gate_fidelity(ideal, actual))) < 1e-15
    assert samples[1][1] > 1e-5
    [(eps1, infid1)] = scaling.sweep_samples(scaling.GATES["composite4"], "differential", (0.05,), 0.8, 0.1)
    ideal1, actual1 = scaling.GATES["composite4"].build(
        0.8, 0.1, "11", [None, qutrit.ErrorModel(0.05, -0.05)]
    )
    assert ideal1.shape == (3, 3)
    assert eps1 == 0.05
    assert abs(infid1 - (1.0 - scaling.gate_fidelity(ideal1, actual1))) < 1e-15
    assert infid1 > 0


SWEEP_CASES = (
    ("single", "common"),
    ("single", "differential"),
    ("single", "single_field"),
    ("composite2", "common"),
    ("composite2", "differential"),
    ("composite4", "common"),
    ("composite4", "differential"),
    ("composite4", "single_field"),
    ("twoqubit_single", "two_qubit"),
    ("twoqubit_composite", "two_qubit"),
)


def single_gate(kind, mode, eps, theta, phi, jk):
    """One sweep point's gate, built on its own from the gate table."""
    model = scaling.GATES[kind].error_modes[mode](eps) if eps else None
    return scaling.GATES[kind].build(theta, phi, jk, [model])[0]


@pytest.mark.parametrize("kind,mode", SWEEP_CASES)
def test_batched_sweep_gates_match_single_gate_builders(kind, mode):
    theta, phi, jk = 0.7, 0.3, "10"
    epsilons = scaling.default_epsilon_grid()
    gate = scaling.GATES[kind]
    models = [None] + [gate.error_modes[mode](eps) for eps in epsilons]
    ideal, *actual = gate.build(theta, phi, jk, models)
    assert frobenius_distance(ideal, single_gate(kind, mode, 0.0, theta, phi, jk)) < 1e-13
    assert len(actual) == len(epsilons) and ideal.shape == (len(gate.labels),) * 2
    for eps, u in zip(epsilons, actual):
        expected = single_gate(kind, mode, eps, theta, phi, jk)
        assert frobenius_distance(u, expected) < 1e-13
    samples = scaling.sweep_samples(gate, mode, epsilons, theta, phi, jk)
    assert [e for e, _ in samples] == list(epsilons)
    for (eps, infid), u in zip(samples, actual):
        assert abs(infid - (1.0 - scaling.gate_fidelity(ideal, u))) < 1e-15


def test_fit_recovers_exact_power_law():
    samples = [(e, 2.5 * e**3) for e in scaling.default_epsilon_grid()]
    fit = scaling.fit_power_law(samples)
    assert abs(fit.slope - 3.0) < 1e-10
    assert abs(fit.intercept - math.log(2.5)) < 1e-10
    assert fit.r_squared > 1.0 - 1e-12
    assert len(fit.samples) == 12


def test_fit_excludes_floor_points():
    samples = [(0.001, 1e-15), (0.01, 1e-8), (0.1, 1e-4)]
    fit = scaling.fit_power_law(samples)
    assert len(fit.samples) == 2
    assert samples[0] not in fit.samples


def test_fit_rejects_floored_sweeps():
    with pytest.raises(DegenerateFitError):
        scaling.fit_power_law([(0.001, 1e-15), (0.01, 1e-16)])
    with pytest.raises(DegenerateFitError):
        scaling.fit_power_law([(0.001, 1e-15), (0.01, 1e-7)])


def test_fit_rejects_a_single_epsilon():
    with pytest.raises(DegenerateFitError):
        scaling.fit_power_law([(0.01, 1e-4), (0.01, 2e-4)])


def test_fit_matches_polyfit_on_random_lines(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        x = np.log(np.sort(rng.uniform(1e-2, 0.5, n)))
        y = rng.uniform(0.0, 3.0) + rng.uniform(1.0, 5.0) * x + rng.normal(0.0, 0.1, n)
        fit = scaling.fit_power_law(list(zip(np.exp(x), np.exp(y))))
        slope, intercept = np.polyfit(x, y, 1)
        assert len(fit.samples) == n
        assert abs(fit.slope - slope) < 1e-12
        assert abs(fit.intercept - intercept) < 1e-12


def test_single_gate_common_mode_slope():
    samples = scaling.sweep_samples(scaling.GATES["single"], "common", scaling.default_epsilon_grid(), math.pi / 4, 0.0)
    fit = scaling.fit_power_law(samples)
    assert abs(fit.slope - 2.0) < 0.1
    assert fit.r_squared > 0.999


def test_composite_four_differential_mode_slope():
    samples = scaling.sweep_samples(
        scaling.GATES["composite4"], "differential", scaling.default_epsilon_grid(), math.pi / 4, 0.0
    )
    fit = scaling.fit_power_law(samples)
    assert abs(fit.slope - 4.0) < 0.2
    assert fit.r_squared > 0.999


def test_order_ratio_for_fourth_order_gate():
    frame = BrightDarkFrame(math.pi / 4, 0.0)

    def builder(eps):
        return gate("composite4", frame, qutrit.ErrorModel(eps, eps) if eps else None)

    assert abs(order_ratio(builder, 0.02) - 16.0) < 2.0


def test_order_ratio_for_second_order_gate():
    frame = BrightDarkFrame(math.pi / 4, 0.0)

    def builder(eps):
        return gate("elementary", frame, qutrit.ErrorModel(eps, eps) if eps else None)

    assert abs(order_ratio(builder, 0.02) - 4.0) < 0.5


def test_order_ratio_guards():
    frame = BrightDarkFrame(0.8, 0.0)
    ideal = gate("composite4", frame)
    with pytest.raises(ValueError):
        order_ratio(lambda e: ideal, 0.02)
    with pytest.raises(ValueError):
        order_ratio(lambda e: ideal, 1e-9)


def test_residual_norm_ratio_is_quadratic():
    frame = BrightDarkFrame(math.pi / 3, 0.0)
    ratio = residual_norm_ratio(lambda eps: bch_residual(frame.theta, frame.phi, eps), 0.02)
    assert abs(ratio - 4.0) < 0.3
    with pytest.raises(ValueError):
        residual_norm_ratio(lambda eps: bch_residual(frame.theta, frame.phi, eps), 1e-9)


@pytest.mark.parametrize("name", sorted(scaling.GATES))
@pytest.mark.parametrize("envelope, steps", [("square", 1), ("sine_squared", 8)])
def test_build_is_the_product_of_its_loop_unitaries_in_recipe_order(name, envelope, steps):
    gate = scaling.GATES[name]
    models = [None] + [mode(0.03) for mode in gate.error_modes.values()]
    built = gate.build(0.7, 0.3, "10", models, envelope, steps)
    field = gate.fields(0.7, 0.3, "10", models)
    for m in range(len(models)):
        # each distinct loop evolved on its own, then multiplied in time order
        loops = [linalg.evolve(pulses.loop_schedule(f[None], envelope, steps)) for f in field[m]]
        expected = linalg.product(np.array([loops[k] for k in gate.order]))
        assert np.max(np.abs(built[m] - expected)) < 1e-15


@pytest.mark.parametrize("name", sorted(scaling.GATES))
def test_recipe_schedule_evolves_to_built_gate(name, rng):
    # the certified schedule and the batched build come from one recipe
    gate = scaling.GATES[name]
    for _ in range(5):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(-7, 7)
        jk = two_qubit.COMPUTATIONAL_LABELS[rng.integers(4)]
        schedule = gate.schedule(theta, phi, jk)
        built = gate.build(theta, phi, jk, [None])[0]
        assert np.max(np.abs(linalg.evolve(schedule) - built)) < 1e-13
        report = holonomy.check_holonomy(
            holonomy.trace_evolution(schedule, gate.subspace_basis(), 32), tolerance=1e-8
        )
        assert report.passed
