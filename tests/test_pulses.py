import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import linalg, pulses

from oracles import random_hermitian


def test_segment_validation():
    # a pulse shape is (envelope, steps); slice_areas is the one place that checks it
    with pytest.raises(ValueError):
        pulses.slice_areas("triangle", 4)
    with pytest.raises(ValueError):
        pulses.slice_areas("square", 0)
    with pytest.raises(ValueError):
        pulses.slice_areas("sine_squared", -1)
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((1, 2, 3, 3)), 1.0, "square", 0)


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


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 48))
def test_envelope_only_redistributes_area(seed, steps):
    # constant generator direction: sliced product == one exponential,
    # at an area other than pi/2 through the stretch
    gen = random_hermitian(np.random.default_rng(seed), 3)
    stretch = 1.3 / (math.pi / 2)
    for envelope in pulses.ENVELOPES:
        u = linalg.evolve(pulses.loop_schedule(gen[None, None], stretch, envelope, steps))[0]
        assert linalg.frobenius_distance(u, linalg.expm_hermitian(gen, 1.3)) < 1e-9


def test_schedule_unitary_orders_left(rng):
    # two one-segment loops of areas 0.4 then 1.1, run in order (0, 1)
    g1, g2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    stretch = np.array([[0.4, 1.1]]) / (math.pi / 2)
    schedule = pulses.loop_schedule(
        np.array([[[g1], [g2]]]), stretch, "sine_squared", 5, order=(0, 1)
    )
    assert schedule.n_segments == 10
    u = linalg.evolve(schedule)
    expected = linalg.expm_hermitian(g2, 1.1) @ linalg.expm_hermitian(g1, 0.4)
    assert linalg.frobenius_distance(u, expected) < 1e-12


def test_schedule_unitary_rejects_empty():
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((1, 0, 3, 3)), 1.0, "square", 1)
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((2, 3, 3)), 1.0, "square", 1)
