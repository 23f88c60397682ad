import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import linalg, pulses
from hologate.pulses import PulseSegment

from oracles import random_hermitian


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(area=0.0, phi0=0.0)
    with pytest.raises(ValueError):
        PulseSegment(area=-1.0, phi0=0.0)
    with pytest.raises(ValueError):
        PulseSegment(area=1.0, phi0=0.0, envelope="triangle")
    with pytest.raises(ValueError):
        PulseSegment(area=1.0, phi0=0.0, steps=0)


def test_square_slices_are_equal():
    seg = PulseSegment(area=math.pi / 2, phi0=0.0, steps=8)
    areas = pulses.slice_areas(seg)
    assert np.allclose(areas, math.pi / 16)


def test_sine_squared_slices_ramp_up_and_down():
    seg = PulseSegment(area=1.0, phi0=0.0, envelope="sine_squared", steps=16)
    areas = pulses.slice_areas(seg)
    assert areas[0] < areas[8]
    assert areas[-1] < areas[8]
    assert np.all(areas >= 0)
    # symmetric envelope, symmetric slices
    assert np.allclose(areas, areas[::-1], atol=1e-12)


@given(
    area=st.floats(0.05, 3.0),
    steps=st.integers(1, 64),
    envelope=st.sampled_from(pulses.ENVELOPES),
)
def test_slices_sum_to_total_area(area, steps, envelope):
    seg = PulseSegment(area=area, phi0=0.0, envelope=envelope, steps=steps)
    assert abs(float(np.sum(pulses.slice_areas(seg))) - area) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 48))
def test_envelope_only_redistributes_area(seed, steps):
    # constant generator direction: sliced product == one exponential
    gen = random_hermitian(np.random.default_rng(seed), 3)
    for envelope in pulses.ENVELOPES:
        seg = PulseSegment(area=1.3, phi0=0.0, envelope=envelope, steps=steps)
        u = linalg.evolve(pulses.loop_schedule(gen[None, None], 1.0, (seg,)))[0]
        assert linalg.frobenius_distance(u, linalg.expm_hermitian(gen, 1.3)) < 1e-9


def test_schedule_unitary_orders_left(rng):
    g1, g2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    s1 = PulseSegment(area=0.4, phi0=0.0, envelope="sine_squared", steps=5)
    s2 = PulseSegment(area=1.1, phi0=0.0, steps=3)
    schedule = pulses.loop_schedule(np.array([[g1, g2]]), [1.0], (s1, s2), order=(0,))
    assert schedule.n_segments == 8
    u = linalg.evolve(schedule)
    expected = linalg.expm_hermitian(g2, 1.1) @ linalg.expm_hermitian(g1, 0.4)
    assert linalg.frobenius_distance(u, expected) < 1e-12


def test_schedule_unitary_rejects_empty():
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((1, 0, 3, 3)), 1.0, ())
    with pytest.raises(ValueError):
        pulses.loop_schedule(np.zeros((1, 2, 3, 3)), 1.0, pulses.DEFAULT_SEGMENTS[:1])
