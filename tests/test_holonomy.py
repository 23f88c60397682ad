import math

import numpy as np
import pytest

from hologate import dfs, holonomy, linalg, qutrit, two_qubit
from hologate.qutrit import BrightDarkFrame

from oracles import (
    phase_residual_loop,
    projector_residual_curve,
    random_hermitian,
    sample_generators,
    trace_states_loop,
    trace_states_mpmath,
)

COMP_BASIS = (qutrit.ket(qutrit.IDX_0), qutrit.ket(qutrit.IDX_1))


def elementary_schedule(theta=math.pi / 2, phi=0.0):
    return qutrit.fields_schedule(qutrit.elementary_field_pulses(theta, phi))


def test_zero_generator_trace_is_static_and_passes():
    schedule = [(np.zeros((3, 3)), 1.0)]
    trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=16)
    assert np.allclose(trace.states, trace.states[:, :1, :])
    report = holonomy.check_holonomy(trace)
    assert report.passed
    assert report.cond1_residual == 0.0
    assert report.cond2_max == 0.0


def test_half_pi_segment_rotates_bright_into_excited():
    f = BrightDarkFrame(0.9, 0.3)
    gen = qutrit.hamiltonian(f, 1.0, 0.0)
    trace = holonomy.trace_evolution([(gen, math.pi / 2)], [f.bright])
    final = trace.states[0, -1, :]
    assert linalg.norm(final - (-1j) * qutrit.ket(qutrit.IDX_E)) < 1e-12


def test_trace_endpoint_matches_time_ordered_product(rng):
    schedule = [(random_hermitian(rng, 4), rng.uniform(0.1, 2.0)) for _ in range(3)]
    basis = np.eye(4, dtype=complex)
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=32)
    u = linalg.time_ordered_product(schedule)
    assert linalg.frobenius_distance(trace.states[:, -1, :].T, u) < 1e-10


def test_trace_starts_at_the_given_basis():
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    assert np.array_equal(trace.states[:, 0, :], np.array(COMP_BASIS))
    assert trace.times[0] == 0.0
    assert trace.segment_boundaries[-1] == trace.states.shape[1] - 1


def test_sampled_states_stay_normalized():
    trace = holonomy.trace_evolution(elementary_schedule(1.1, 2.0), COMP_BASIS)
    norms = np.linalg.norm(trace.states, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_elementary_schedule_is_holonomic():
    trace = holonomy.trace_evolution(elementary_schedule(1.0, 0.7), COMP_BASIS)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert report.passed
    assert report.cond1_residual < 1e-10
    assert report.cond2_max < 1e-10


def test_composite_schedules_are_holonomic():
    for pulses in (
        qutrit.composite_two_field_pulses(0.8, 0.4),
        qutrit.composite_four_field_pulses(0.8, 0.4),
    ):
        trace = holonomy.trace_evolution(qutrit.fields_schedule(pulses), COMP_BASIS)
        report = holonomy.check_holonomy(trace, tolerance=1e-8)
        assert report.passed


def test_open_loop_fails_closure_but_not_phase():
    # half a segment leaves the subspace displaced; the dynamical phase
    # still vanishes pointwise, so only the closure condition trips
    f = BrightDarkFrame(math.pi / 2, 0.0)
    gen = qutrit.hamiltonian(f, 1.0, 0.0)
    trace = holonomy.trace_evolution([(gen, math.pi / 4)], COMP_BASIS)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert not report.passed
    assert report.cond1_residual > 0.1
    assert report.cond2_max < 1e-10


def test_detuned_schedule_fails_phase_condition():
    detuning = 0.25 * np.diag([1.0, -1.0, 0.0]).astype(complex)
    schedule = [(gen + detuning, area) for gen, area in elementary_schedule()]
    trace = holonomy.trace_evolution(schedule, COMP_BASIS)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert not report.passed
    assert report.cond2_max > 1e-3


def test_phase_residual_is_stable_under_refinement():
    detuning = 0.25 * np.diag([1.0, -1.0, 0.0]).astype(complex)
    schedule = [(gen + detuning, area) for gen, area in elementary_schedule()]
    coarse = holonomy.check_holonomy(
        holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=64)
    )
    fine = holonomy.check_holonomy(
        holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=256)
    )
    assert abs(fine.cond2_max - coarse.cond2_max) < 0.1 * coarse.cond2_max

    for n in (64, 256):
        ideal = holonomy.check_holonomy(
            holonomy.trace_evolution(elementary_schedule(), COMP_BASIS, samples_per_segment=n)
        )
        assert ideal.cond2_max < 1e-10


def test_tolerance_is_taken_literally():
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    assert holonomy.check_holonomy(trace, tolerance=1e-6).passed
    strict = holonomy.check_holonomy(trace, tolerance=1e-30)
    assert not strict.passed
    assert strict.tolerance == 1e-30


def test_peak_rabi_of_unit_envelope_is_one():
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    assert abs(holonomy.peak_rabi(trace) - 1.0) < 1e-12


def test_residual_curve_shape_and_extremes():
    trace = holonomy.trace_evolution(elementary_schedule(0.6, 1.0), COMP_BASIS)
    curve = projector_residual_curve(trace.states)
    assert curve.shape == (trace.states.shape[1],)
    assert curve[0] == 0.0
    assert curve[-1] < 1e-10
    assert abs(np.max(curve) - math.sqrt(2)) < 1e-6


def test_midpoint_displacement_is_sqrt_two():
    for theta, phi in ((math.pi / 2, 0.0), (0.4, 1.3), (2.5, 5.0)):
        trace = holonomy.trace_evolution(elementary_schedule(theta, phi), COMP_BASIS)
        d = holonomy.grassmannian_midpoint_check(trace)
        assert abs(d - math.sqrt(2)) < 1e-10


def test_midpoint_of_idle_schedule_is_zero():
    schedule = [(np.zeros((3, 3)), 1.0), (np.zeros((3, 3)), 1.0)]
    trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=8)
    assert holonomy.grassmannian_midpoint_check(trace) == 0.0


def test_midpoint_requires_two_segments():
    f = BrightDarkFrame(1.0, 0.0)
    gen = qutrit.hamiltonian(f, 1.0, 0.0)
    trace = holonomy.trace_evolution([(gen, math.pi / 2)], COMP_BASIS)
    with pytest.raises(ValueError):
        holonomy.grassmannian_midpoint_check(trace)


def test_four_pulse_schedule_closes_after_every_gate():
    # each back-to-back segment pair is itself a closed loop, so the
    # projector returns to its origin at every second boundary
    schedule = qutrit.fields_schedule(qutrit.composite_four_field_pulses(0.9, 0.5))
    trace = holonomy.trace_evolution(schedule, COMP_BASIS)
    assert trace.n_segments == 8
    p0 = trace.projector(0)
    for k in (1, 3, 5, 7):
        boundary = trace.segment_boundaries[k]
        assert linalg.frobenius_distance(trace.projector(boundary), p0) < 1e-10


def test_trace_input_validation():
    with pytest.raises(ValueError):
        holonomy.trace_evolution([], COMP_BASIS)
    with pytest.raises(ValueError):
        holonomy.trace_evolution(elementary_schedule(), COMP_BASIS, samples_per_segment=0)
    with pytest.raises(ValueError):
        holonomy.trace_evolution(
            elementary_schedule(), (qutrit.ket(0), 2.0 * qutrit.ket(1))
        )
    with pytest.raises(ValueError):
        holonomy.trace_evolution(elementary_schedule(), (qutrit.ket(0), qutrit.ket(0)))
    with pytest.raises(ValueError):
        holonomy.trace_evolution(
            elementary_schedule(), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        )
    mixed = [(np.zeros((3, 3)), 1.0), (np.zeros((4, 4)), 1.0)]
    with pytest.raises(ValueError):
        holonomy.trace_evolution(mixed, COMP_BASIS)


def detuned_composite_schedule():
    detuning = 0.25 * np.diag([1.0, -1.0, 0.0]).astype(complex)
    pulses = qutrit.composite_four_field_pulses(0.8, 0.4)
    return [(gen + detuning, area) for gen, area in qutrit.fields_schedule(pulses)]


def oracle_cases() -> dict:
    """name -> (schedule, basis) on 3-, 5-, 8- and 64-dim registers."""
    composite4 = qutrit.fields_schedule(qutrit.composite_four_field_pulses(0.8, 0.4))
    three = dfs.three_ion_encoding()
    six = dfs.six_ion_encoding()
    return {
        "qutrit_composite4": (composite4, COMP_BASIS),
        # the two failing controls: open loop, and a nonzero dynamical phase
        "qutrit_truncated": (composite4[:-1], COMP_BASIS),
        "qutrit_detuned": (detuned_composite_schedule(), COMP_BASIS),
        "twoqubit_composite": (
            two_qubit.gate_schedule("01") * 2,
            [two_qubit.ket(label) for label in two_qubit.COMPUTATIONAL_LABELS],
        ),
        "three_ion": (
            dfs.logical_composite_schedule(0.7, 0.2),
            [three.logical_ket(label) for label in ("0", "1")],
        ),
        "six_ion": (
            dfs.two_logical_composite_schedule(0.7, 0.2),
            [six.logical_ket(label) for label in ("00", "01", "10", "11")],
        ),
    }


ORACLE_CASES = oracle_cases()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 513])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_batched_trace_matches_per_sample_loop(name, n):
    schedule, basis = ORACLE_CASES[name]
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=n)
    ref_states = trace_states_loop(schedule, basis, n)
    assert trace.states.shape == ref_states.shape
    assert np.max(np.abs(trace.states - ref_states)) < 1e-12

    t, ref_times, ref_boundaries = 0.0, [0.0], []
    for _, area in schedule:
        for _ in range(n):
            t += area / n
            ref_times.append(t)
        ref_boundaries.append(len(ref_times) - 1)
    assert np.array_equal(trace.times, np.array(ref_times))
    assert trace.segment_boundaries == tuple(ref_boundaries)

    gens = sample_generators(schedule, n)
    peak = max(float(np.max(np.abs(np.linalg.eigvalsh(h)))) for h in gens)
    assert holonomy.peak_rabi(trace) == peak
    worst = float(np.max(phase_residual_loop(ref_states, schedule, n)))
    ref_cond2 = worst / peak if peak > 0 else worst
    ref_cond1 = projector_residual_curve(ref_states)[-1]
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert abs(report.cond1_residual - ref_cond1) < 1e-12
    assert abs(report.cond2_max - ref_cond2) < 1e-12
    assert report.passed == (ref_cond1 <= 1e-8 and ref_cond2 <= 1e-8)
    assert report.passed == (name not in ("qutrit_truncated", "qutrit_detuned"))


@pytest.mark.parametrize("name", ["qutrit_composite4", "three_ion"])
def test_trace_oracle_matches_high_precision_evolution(name):
    # The per-sample loop is the reference for the batched trace at 1e-12,
    # so it must itself sit well inside that bound.
    schedule, basis = ORACLE_CASES[name]
    ref = trace_states_mpmath(schedule, basis, 513)
    assert np.max(np.abs(trace_states_loop(schedule, basis, 513) - ref)) < 1e-14
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=513)
    assert np.max(np.abs(trace.states - ref)) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 8])
def test_segment_index_layout(n):
    schedule = qutrit.fields_schedule(qutrit.composite_two_field_pulses(0.8, 0.4))
    trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=n)
    assert trace.generators.shape == (len(schedule), 3, 3)
    assert trace.segment_index.shape == (trace.states.shape[1],)
    assert trace.segment_index[0] == 0
    for k, boundary in enumerate(trace.segment_boundaries):
        # a boundary sample belongs to the segment that just ended
        assert trace.segment_index[boundary] == k
        assert np.array_equal(trace.generators[k], schedule[k][0])
        block = trace.segment_index[boundary - n + 1 : boundary + 1]
        assert np.all(block == k)
    gens = sample_generators(schedule, n)
    for i, seg in enumerate(trace.segment_index):
        assert np.array_equal(trace.generators[seg], gens[i])
