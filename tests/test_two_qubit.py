import math

import numpy as np
import pytest

from hologate import holonomy, pulses, two_qubit
from hologate.scaling import GATES

from oracles import (
    entangling_power_check,
    frobenius_distance,
    is_unitary,
    ideal_two_qubit_composite,
    ideal_two_qubit_elementary,
    operator_schmidt_values,
    rk4_propagator,
    schedule_pairs,
    two_qubit_ket,
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def gate(name, jk, error=(0.0,)):
    return GATES[name].build(0.0, 0.0, jk, [error])[0]


def elementary_schedule(jk, error=(0.0,)):
    return GATES["twoqubit_elementary"].schedule(0.0, 0.0, jk, error)


def test_labels_and_kets():
    assert two_qubit.LABELS.index("00") == 0
    assert two_qubit.LABELS.index("a") == 4
    assert two_qubit.LABELS[2] == "10"
    for jk in ("02", "a"):
        with pytest.raises(ValueError, match=f"^{jk!r} is not a computational label$"):
            two_qubit.loops((jk,))


def test_error_model_bound():
    for entry in (GATES["twoqubit_elementary"], GATES["twoqubit_composite"]):
        fields = entry.fields(0.0, 0.0, "10", [(-0.5,)])
        assert np.array_equal(fields, two_qubit.loops(("10",))[None] * 0.5)
        for eps in (1.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"\|eps\| < 1"):
                entry.fields(0.0, 0.0, "10", [(0.0,), (eps,)])
        # a wrong-length row is named by the gate's keys, not by numpy
        for errors in [[(0.1, 0.2)], [()], (0.1,)]:
            with pytest.raises(ValueError, match=r"\('eps_jk',\)"):
                entry.fields(0.0, 0.0, "10", errors)


@pytest.mark.parametrize("jk", two_qubit.COMPUTATIONAL_LABELS)
def test_elementary_gate_hits_ideal(jk):
    u = gate("twoqubit_elementary", jk)
    assert frobenius_distance(u, ideal_two_qubit_elementary(jk)) < 1e-12


def test_ideal_elementary_values():
    u = ideal_two_qubit_elementary("11")
    assert np.array_equal(np.diag(u), np.array([1, 1, 1, 1j, -1j]))


def test_elementary_gate_is_fourth_root_of_identity():
    u = gate("twoqubit_elementary", "11")
    assert frobenius_distance(np.linalg.matrix_power(u, 4), np.eye(5)) < 1e-12


def test_elementary_gate_matches_integrator():
    u = gate("twoqubit_elementary", "11", (0.05,))
    ref = rk4_propagator(schedule_pairs(elementary_schedule("11", (0.05,))))
    assert frobenius_distance(u, ref) < 1e-10


@pytest.mark.parametrize("jk", two_qubit.COMPUTATIONAL_LABELS)
def test_composite_gate_hits_ideal(jk):
    u = gate("twoqubit_composite", jk)
    ideal = ideal_two_qubit_composite(jk)
    assert frobenius_distance(u, ideal) < 1e-12
    assert ideal[two_qubit.LABELS.index(jk), two_qubit.LABELS.index(jk)] == -1.0
    assert ideal[4, 4] == -1.0


@pytest.mark.parametrize("name", ["twoqubit_elementary", "twoqubit_composite"])
@pytest.mark.parametrize("jk", two_qubit.COMPUTATIONAL_LABELS)
def test_five_level_gate_evolves_its_two_coupled_levels(name, jk):
    # the loops drive |jk> to the auxiliary level and leave the other three
    # alone; the ideal forms are checked by the *_hits_ideal tests
    level = two_qubit.LABELS.index(jk)
    errors = ((0.0,), (0.05,))
    field = GATES[name].fields(0.0, 0.0, jk, errors)
    assert np.array_equal(pulses.loop_schedule(field, "square", 1).levels, [level, 4])
    others = [k for k in range(4) if k != level]
    for u in GATES[name].build(0.0, 0.0, jk, errors):
        assert is_unitary(u, 1e-14)
        assert np.array_equal(u[others], np.eye(5)[others])
        assert np.array_equal(u[:, others], np.eye(5)[:, others])


def test_composite_gate_matches_integrator():
    u = gate("twoqubit_composite", "01", (0.1,))
    schedule = schedule_pairs(elementary_schedule("01", (0.1,))) * 2
    assert frobenius_distance(u, rk4_propagator(schedule)) < 1e-10
    errors = ((0.0,), (0.1,), (-0.05,))
    gates = GATES["twoqubit_composite"].build(0.0, 0.0, "01", errors)
    assert gates.shape == (len(errors), 5, 5)
    for error, built in zip(errors, gates):
        schedule = schedule_pairs(elementary_schedule("01", error)) * 2
        assert frobenius_distance(built, rk4_propagator(schedule)) < 1e-10


def test_composite_deviation_is_second_order():
    ideal = ideal_two_qubit_composite("11")
    d1 = frobenius_distance(gate("twoqubit_composite", "11", (0.02,)), ideal)
    d2 = frobenius_distance(gate("twoqubit_composite", "11", (0.01,)), ideal)
    assert 3.8 < d1 / d2 < 4.2


def test_elementary_deviation_is_first_order():
    ideal = ideal_two_qubit_elementary("11")
    d1 = frobenius_distance(gate("twoqubit_elementary", "11", (0.02,)), ideal)
    d2 = frobenius_distance(gate("twoqubit_elementary", "11", (0.01,)), ideal)
    assert 1.9 < d1 / d2 < 2.1


def test_error_scales_the_coupling_not_the_areas():
    # an amplitude error is a stronger |jk> coupling for the same envelope
    clean = elementary_schedule("10")
    dirty = elementary_schedule("10", (0.2,))
    assert np.array_equal(clean.areas, dirty.areas)
    assert np.max(np.abs(dirty.generators - 1.2 * clean.generators)) < 1e-15


def test_schmidt_values_of_known_gates():
    vals = operator_schmidt_values(CZ)
    assert abs(vals[0] - math.sqrt(2)) < 1e-12
    assert abs(vals[1] - math.sqrt(2)) < 1e-12
    assert vals[2] < 1e-12
    vals_id = operator_schmidt_values(np.eye(4))
    assert abs(vals_id[0] - 2.0) < 1e-12
    assert vals_id[1] < 1e-12
    with pytest.raises(ValueError):
        operator_schmidt_values(np.eye(5))


def test_entangling_power_verdicts():
    assert entangling_power_check(CZ)
    assert not entangling_power_check(np.eye(4))
    assert not entangling_power_check(np.diag([1, 1, -1, -1]).astype(complex))
    assert not entangling_power_check(np.kron(
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[1, 0], [0, 1j]], dtype=complex),
    ))
    assert entangling_power_check(gate("twoqubit_composite", "11")[:4, :4])


def test_entangling_power_rejects_non_unitary():
    with pytest.raises(ValueError):
        entangling_power_check(np.diag([1.0, 1.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        entangling_power_check(np.eye(5))


def test_gate_schedule_is_holonomic():
    basis = [two_qubit_ket(label) for label in two_qubit.COMPUTATIONAL_LABELS]
    trace = holonomy.trace_evolution(elementary_schedule("11"), basis)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert report.passed
    assert report.cond1_residual < 1e-10
    assert report.cond2_max < 1e-10


def test_composite_is_elementary_squared():
    u = gate("twoqubit_elementary", "00", (0.07,))
    assert np.array_equal(gate("twoqubit_composite", "00", (0.07,)), u @ u)
