import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import linalg, pulses
from hologate.scaling import GATES

from oracles import bright_dark, frobenius_distance, two_qubit_ket


def random_bright(rng, loops, d):
    """Unit bright vectors (loops, d) on every level but the last."""
    b = np.zeros((loops, d), dtype=complex)
    b[:, :-1] = rng.normal(size=(loops, d - 1)) + 1j * rng.normal(size=(loops, d - 1))
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def drive(bright, phase):
    """e^{i phase} |b><last| + h.c., written out independently of pulses.loop_schedule."""
    h = np.outer(np.exp(1j * phase) * bright, np.eye(len(bright))[-1])
    return h + h.conj().T


def loop_unitary(bright, area):
    """The elementary loop at segment area ``area``: phase pi/2 first, then 0."""
    generators = [drive(bright, p) for p in (math.pi / 2, 0.0)]
    return linalg.evolve(linalg.Schedule(generators, [area, area]))


def test_segment_validation():
    # a pulse shape is (envelope, steps); slice_areas is the one place that checks it
    with pytest.raises(ValueError):
        pulses.slice_areas("triangle", 4)
    with pytest.raises(ValueError):
        pulses.slice_areas("square", 0)
    with pytest.raises(ValueError):
        pulses.slice_areas("sine_squared", -1)
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.eye(3)[:1], "square", 0)


def test_square_slices_are_equal():
    areas = pulses.slice_areas("square", 8)
    assert np.allclose(areas, math.pi / 16)


def test_sine_squared_slices_ramp_up_and_down():
    areas = pulses.slice_areas("sine_squared", 16)
    assert areas[0] < areas[8]
    assert areas[-1] < areas[8]
    assert np.all(areas >= 0)
    # symmetric envelope, symmetric slices
    assert np.allclose(areas, areas[::-1], atol=1e-12)


@given(steps=st.integers(1, 64), envelope=st.sampled_from(pulses.ENVELOPES))
def test_slices_sum_to_total_area(steps, envelope):
    areas = pulses.slice_areas(envelope, steps)
    assert areas.shape == (steps,)
    assert abs(float(np.sum(areas)) - math.pi / 2) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 48), d=st.integers(2, 5))
def test_envelope_only_redistributes_area(seed, steps, d):
    # constant generator direction per segment: sliced product == one
    # exponential each, at an area other than pi/2 through the field strength
    bright = random_bright(np.random.default_rng(seed), 1, d)
    field = 1.3 / (math.pi / 2) * bright
    for envelope in pulses.ENVELOPES:
        u = linalg.evolve(pulses.loop_schedule(field, envelope, steps))
        assert frobenius_distance(u, loop_unitary(bright[0], 1.3)) < 1e-9


def test_schedule_unitary_orders_left(rng):
    # two loops of segment areas 0.4 then 1.1, run back to back in that order
    bright = random_bright(rng, 2, 3)
    field = np.array([[0.4], [1.1]]) / (math.pi / 2) * bright
    schedule = pulses.loop_schedule(field, "sine_squared", 5)
    assert schedule.n_segments == 20
    u = linalg.evolve(schedule)
    expected = loop_unitary(bright[1], 1.1) @ loop_unitary(bright[0], 0.4)
    assert frobenius_distance(u, expected) < 1e-12


def test_schedule_unitary_rejects_empty():
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((0, 3)), "square", 1)
    # one field with no loop axis
    with pytest.raises(ValueError, match="fields"):
        pulses.loop_schedule(np.eye(3)[0], "square", 1)
    # a drive on the auxiliary level itself, which no loop has
    for aux in (5.0, np.nan):
        with pytest.raises(ValueError, match="auxiliary level 2"):
            pulses.loop_schedule(np.array([[1.0, 0.0, aux]]), "square", 1)


# each qutrit gate's distinct loops at theta, first loop first, as bright angles
BRIGHT_ANGLES = {
    "elementary": lambda theta: (theta,),
    "single": lambda theta: (theta,),
    "composite2": lambda theta: (theta,),
    "composite4": lambda theta: (math.pi - theta, theta),
}


@pytest.mark.parametrize("name", sorted(GATES))
@pytest.mark.parametrize("theta, phi, jk", [(0.8, 1.1, "01"), (2.3, -0.4, "11")])
def test_every_error_mode_scales_each_drive_field_by_one_plus_eps(name, theta, phi, jk):
    gate = GATES[name]
    if name in BRIGHT_ANGLES:
        ideal = np.array([bright_dark(t, phi)[0] for t in BRIGHT_ANGLES[name](theta)])
    else:
        ideal = np.eye(5)[[int(jk, 2)]]
    for mode in gate.error_modes.values():
        error = [0.03 * x for x in mode]
        if name in BRIGHT_ANGLES:
            # each field by its own 1 + eps, nothing on the auxiliary level
            expected = ideal * np.array([1 + error[0], 1 + error[1], 0.0])
        else:
            expected = (1 + error[0]) * ideal
        field = gate.fields(theta, phi, jk, ([0.0] * len(error), error))
        assert field.shape == (2,) + ideal.shape
        assert np.max(np.abs(field[0] - ideal)) <= 1e-15
        assert np.max(np.abs(field[1] - expected)) <= 1e-15


@pytest.mark.parametrize("name", sorted(GATES))
@pytest.mark.parametrize("theta, phi, jk", [(0.0, 0.0, "00"), (0.8, 1.1, "01"), (2.3, -0.4, "11")])
def test_every_gate_generator_drives_its_bright_vector(name, theta, phi, jk):
    gate = GATES[name]
    zero = (0.0,) * len(gate.error_keys)
    gens = gate.schedule(theta, phi, jk, zero).generators
    d = len(gate.labels)
    assert gens.shape == (2 * len(gate.order), d, d)
    assert np.array_equal(gens, gens.conj().swapaxes(-1, -2))
    # nonzero only between the last (auxiliary) level and the others
    drive_block = np.zeros((d, d), dtype=bool)
    drive_block[:-1, -1] = drive_block[-1, :-1] = True
    assert not gens[:, ~drive_block].any()
    for i, loop in enumerate(gate.order):
        for s, phase in enumerate(pulses.DRIVE_PHASES):
            g = gens[2 * i + s]
            if name in BRIGHT_ANGLES:
                angle = BRIGHT_ANGLES[name](theta)[loop]
                bright, dark = bright_dark(angle, phi)
                assert np.max(np.abs(g[:, -1] - np.exp(1j * phase) * bright)) < 1e-15
                assert np.max(np.abs(g @ dark)) < 1e-15
                if angle == 0.0:
                    # a loop at bright angle 0 couples only |0>, not |1>
                    assert not g[1].any() and not g[:, 1].any()
            else:
                assert np.array_equal(g[:, -1], np.exp(1j * phase) * two_qubit_ket(jk))
                assert np.count_nonzero(g) == 2
    if name not in BRIGHT_ANGLES:
        with pytest.raises(ValueError, match="not a computational label"):
            gate.schedule(theta, phi, "a", zero)
