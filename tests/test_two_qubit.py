import math

import numpy as np
import pytest

from hologate import holonomy, linalg, two_qubit
from hologate.scaling import GATES
from hologate.two_qubit import TwoQubitErrorModel

from oracles import (
    entangling_power_check,
    ideal_two_qubit_composite,
    ideal_two_qubit_elementary,
    operator_schmidt_values,
    rk4_propagator,
    schedule_pairs,
    two_qubit_ket,
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def gate(name, jk, model=None):
    return GATES[name].build(0.0, 0.0, jk, [model])[0]


def elementary_schedule(jk, model=None):
    return two_qubit.loop_schedule(two_qubit.ELEMENTARY, jk, (model,), ordered=True)


def test_labels_and_kets():
    assert two_qubit.label_index("00") == 0
    assert two_qubit.label_index("a") == 4
    assert two_qubit.LABELS[two_qubit.label_index("10")] == "10"
    with pytest.raises(ValueError):
        two_qubit.label_index("02")


def test_error_model_bound():
    TwoQubitErrorModel(-0.5)
    with pytest.raises(ValueError):
        TwoQubitErrorModel(1.0)


def test_segment_generator_touches_one_coupling():
    g = two_qubit.segment_generator("01", 0.3)
    assert np.count_nonzero(g) == 2
    assert abs(g[1, 4] - np.exp(0.3j)) < 1e-15
    with pytest.raises(ValueError):
        two_qubit.segment_generator("a", 0.0)


@pytest.mark.parametrize("jk", two_qubit.COMPUTATIONAL_LABELS)
def test_elementary_gate_hits_ideal(jk):
    u = gate("twoqubit_elementary", jk)
    assert linalg.frobenius_distance(u, ideal_two_qubit_elementary(jk)) < 1e-12


def test_ideal_elementary_values():
    u = ideal_two_qubit_elementary("11")
    assert np.array_equal(np.diag(u), np.array([1, 1, 1, 1j, -1j]))


def test_elementary_gate_is_fourth_root_of_identity():
    u = gate("twoqubit_elementary", "11")
    assert linalg.frobenius_distance(np.linalg.matrix_power(u, 4), np.eye(5)) < 1e-12


def test_elementary_gate_matches_integrator():
    model = TwoQubitErrorModel(0.05)
    u = gate("twoqubit_elementary", "11", model)
    ref = rk4_propagator(schedule_pairs(elementary_schedule("11", model)))
    assert linalg.frobenius_distance(u, ref) < 1e-10


@pytest.mark.parametrize("jk", two_qubit.COMPUTATIONAL_LABELS)
def test_composite_gate_hits_ideal(jk):
    u = gate("twoqubit_composite", jk)
    ideal = ideal_two_qubit_composite(jk)
    assert linalg.frobenius_distance(u, ideal) < 1e-12
    assert ideal[two_qubit.label_index(jk), two_qubit.label_index(jk)] == -1.0
    assert ideal[4, 4] == -1.0


def test_composite_gate_matches_integrator():
    model = TwoQubitErrorModel(0.1)
    u = gate("twoqubit_composite", "01", model)
    schedule = schedule_pairs(elementary_schedule("01", model)) * 2
    assert linalg.frobenius_distance(u, rk4_propagator(schedule)) < 1e-10
    models = (None, model, TwoQubitErrorModel(-0.05))
    gates = GATES["twoqubit_composite"].build(0.0, 0.0, "01", models)
    assert gates.shape == (len(models), 5, 5)
    for model, built in zip(models, gates):
        schedule = schedule_pairs(elementary_schedule("01", model)) * 2
        assert linalg.frobenius_distance(built, rk4_propagator(schedule)) < 1e-10


def test_composite_deviation_is_second_order():
    ideal = ideal_two_qubit_composite("11")
    d1 = linalg.frobenius_distance(gate("twoqubit_composite", "11", TwoQubitErrorModel(0.02)), ideal)
    d2 = linalg.frobenius_distance(gate("twoqubit_composite", "11", TwoQubitErrorModel(0.01)), ideal)
    assert 3.8 < d1 / d2 < 4.2


def test_elementary_deviation_is_first_order():
    ideal = ideal_two_qubit_elementary("11")
    d1 = linalg.frobenius_distance(gate("twoqubit_elementary", "11", TwoQubitErrorModel(0.02)), ideal)
    d2 = linalg.frobenius_distance(gate("twoqubit_elementary", "11", TwoQubitErrorModel(0.01)), ideal)
    assert 1.9 < d1 / d2 < 2.1


def test_error_scales_areas_but_not_generators():
    clean = elementary_schedule("10")
    dirty = elementary_schedule("10", TwoQubitErrorModel(0.2))
    assert np.array_equal(clean.generators, dirty.generators)
    assert np.max(np.abs(dirty.areas - 1.2 * clean.areas)) < 1e-15


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
    model = TwoQubitErrorModel(0.07)
    u = gate("twoqubit_elementary", "00", model)
    assert np.array_equal(gate("twoqubit_composite", "00", model), u @ u)
