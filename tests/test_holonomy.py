import math

import numpy as np
import pytest

from hologate import dfs, holonomy, linalg, qutrit, scaling
from hologate.qutrit import BrightDarkFrame

from oracles import (
    phase_residual_loop,
    rk4_propagator,
    projector_residual_curve,
    random_hermitian,
    sample_generators,
    schedule_pairs,
    trace_states_loop,
    trace_states_mpmath,
    two_qubit_ket,
)

COMP_BASIS = (qutrit.ket(qutrit.IDX_0), qutrit.ket(qutrit.IDX_1))


def gate_schedule(name, theta=math.pi / 2, phi=0.0, jk="11"):
    return scaling.GATES[name].schedule(theta, phi, jk)


def elementary_schedule(theta=math.pi / 2, phi=0.0):
    return gate_schedule("elementary", theta, phi)


def one_segment(gen, area):
    return linalg.Schedule([gen], [area])


def detuned(schedule):
    detuning = 0.25 * np.diag([1.0, -1.0, 0.0])
    return linalg.Schedule(schedule.generators + detuning, schedule.areas)


def test_zero_generator_trace_is_static_and_passes():
    trace = holonomy.trace_evolution(one_segment(np.zeros((3, 3)), 1.0), COMP_BASIS, 16)
    assert np.allclose(trace.states, trace.states[:, :1, :])
    report = holonomy.check_holonomy(trace)
    assert report.passed
    assert report.cond1_residual == 0.0
    assert report.cond2_max == 0.0


def test_half_pi_segment_rotates_bright_into_excited():
    f = BrightDarkFrame(0.9, 0.3)
    gen = qutrit.drive_generators(f.theta, f.phi, 0.0)
    trace = holonomy.trace_evolution(one_segment(gen, math.pi / 2), [f.bright])
    final = trace.states[0, -1, :]
    assert linalg.norm(final - (-1j) * qutrit.ket(qutrit.IDX_E)) < 1e-12


def test_trace_endpoint_matches_time_ordered_product(rng):
    schedule = linalg.Schedule([random_hermitian(rng, 4) for _ in range(3)], rng.uniform(0.1, 2.0, 3))
    basis = np.eye(4, dtype=complex)
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=32)
    u = linalg.evolve(schedule)
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
    for name in ("composite2", "composite4"):
        trace = holonomy.trace_evolution(gate_schedule(name, 0.8, 0.4), COMP_BASIS)
        report = holonomy.check_holonomy(trace, tolerance=1e-8)
        assert report.passed


def test_open_loop_fails_closure_but_not_phase():
    # half a segment leaves the subspace displaced; the dynamical phase
    # still vanishes pointwise, so only the closure condition trips
    f = BrightDarkFrame(math.pi / 2, 0.0)
    gen = qutrit.drive_generators(f.theta, f.phi, 0.0)
    trace = holonomy.trace_evolution(one_segment(gen, math.pi / 4), COMP_BASIS)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert not report.passed
    assert report.cond1_residual > 0.1
    assert report.cond2_max < 1e-10


def test_detuned_schedule_fails_phase_condition():
    trace = holonomy.trace_evolution(detuned(elementary_schedule()), COMP_BASIS)
    report = holonomy.check_holonomy(trace, tolerance=1e-8)
    assert not report.passed
    assert report.cond2_max > 1e-3


def test_phase_residual_is_stable_under_refinement():
    schedule = detuned(elementary_schedule())
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
    schedule = linalg.Schedule(np.zeros((2, 3, 3)), [1.0, 1.0])
    trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=8)
    assert holonomy.grassmannian_midpoint_check(trace) == 0.0


def test_midpoint_requires_two_segments():
    f = BrightDarkFrame(1.0, 0.0)
    gen = qutrit.drive_generators(f.theta, f.phi, 0.0)
    trace = holonomy.trace_evolution(one_segment(gen, math.pi / 2), COMP_BASIS)
    with pytest.raises(ValueError):
        holonomy.grassmannian_midpoint_check(trace)


def test_four_pulse_schedule_closes_after_every_gate():
    # each back-to-back segment pair is itself a closed loop, so the
    # projector returns to its origin at every second boundary
    schedule = gate_schedule("composite4", 0.9, 0.5)
    trace = holonomy.trace_evolution(schedule, COMP_BASIS)
    assert trace.n_segments == 8
    p0 = trace.projector(0)
    for k in (1, 3, 5, 7):
        boundary = trace.segment_boundaries[k]
        assert linalg.frobenius_distance(trace.projector(boundary), p0) < 1e-10


def test_trace_input_validation():
    with pytest.raises(ValueError):
        holonomy.trace_evolution(linalg.Schedule(np.zeros((0, 3, 3)), []), COMP_BASIS)
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
    with pytest.raises(ValueError):
        holonomy.trace_evolution(linalg.Schedule(np.zeros((2, 4, 4)), [1.0, 1.0]), COMP_BASIS)
    batch = linalg.Schedule(np.zeros((2, 1, 3, 3)), [[1.0], [2.0]])
    with pytest.raises(ValueError):
        holonomy.trace_evolution(batch, COMP_BASIS)


def oracle_cases() -> dict:
    """name -> (schedule, basis) on 3-, 5-, 8- and 64-dim registers."""
    composite4 = gate_schedule("composite4", 0.8, 0.4)
    truncated = linalg.Schedule(composite4.generators[:-1], composite4.areas[:-1])
    three = dfs.three_ion_encoding()
    six = dfs.six_ion_encoding()
    return {
        "qutrit_composite4": (composite4, COMP_BASIS),
        # the two failing controls: open loop, and a nonzero dynamical phase
        "qutrit_truncated": (truncated, COMP_BASIS),
        "qutrit_detuned": (detuned(composite4), COMP_BASIS),
        "twoqubit_composite": (
            gate_schedule("twoqubit_composite", jk="01"),
            [two_qubit_ket(label) for label in ("00", "01", "10", "11")],
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

# Register levels the encoded schedules couple: ancilla and logical states.
COUPLED_LEVELS = {
    "three_ion": np.sort([dfs.bit_index(b) for b in dfs.THREE_ION_LABELS.values()]),
    "six_ion": np.sort([dfs.bit_index(b) for b in dfs.SIX_ION_LABELS.values()]),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 513])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_batched_trace_matches_per_sample_loop(name, n):
    schedule, basis = ORACLE_CASES[name]
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=n)
    schedule = schedule_pairs(schedule)
    ref_states = trace_states_loop(schedule, basis, n)
    dim = ref_states.shape[2]
    assert np.array_equal(trace.levels, COUPLED_LEVELS.get(name, np.arange(dim)))
    assert trace.states.shape == ref_states[:, :, trace.levels].shape
    assert np.max(np.abs(trace.states - ref_states[:, :, trace.levels])) < 1e-12
    # The oracle's eigh may rotate the uncoupled levels into the schedule's
    # zero eigenspace, which leaves them nonzero at the rounding level only.
    off = np.setdiff1d(np.arange(dim), trace.levels)
    assert np.max(np.abs(ref_states[:, :, off]), initial=0.0) < 1e-15

    t, ref_times, ref_boundaries = 0.0, [0.0], []
    for _, area in schedule:
        for _ in range(n):
            t += area / n
            ref_times.append(t)
        ref_boundaries.append(len(ref_times) - 1)
    assert np.array_equal(trace.times, np.array(ref_times))
    assert trace.segment_boundaries == tuple(ref_boundaries)

    gens = sample_generators(schedule, n)
    block = np.ix_(trace.levels, trace.levels)
    peak = max(float(np.max(np.abs(np.linalg.eigvalsh(h[block])))) for h in gens)
    assert holonomy.peak_rabi(trace) == peak
    # the dropped levels carry only zero eigenvalues
    full_peak = max(float(np.max(np.abs(np.linalg.eigvalsh(h)))) for h in gens)
    assert abs(full_peak - peak) <= 4 * np.finfo(float).eps * full_peak
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
    pairs = schedule_pairs(schedule)
    ref = trace_states_mpmath(pairs, basis, 513)
    assert np.max(np.abs(trace_states_loop(pairs, basis, 513) - ref)) < 1e-14
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=513)
    assert np.max(np.abs(trace.states - ref[:, :, trace.levels])) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 8])
def test_segment_index_layout(n):
    schedule = gate_schedule("composite2", 0.8, 0.4)
    trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=n)
    assert trace.generators.shape == (schedule.n_segments, 3, 3)
    assert trace.segment_index.shape == (trace.states.shape[1],)
    assert trace.segment_index[0] == 0
    for k, boundary in enumerate(trace.segment_boundaries):
        # a boundary sample belongs to the segment that just ended
        assert trace.segment_index[boundary] == k
        assert np.array_equal(trace.generators[k], schedule.generators[k])
        block = trace.segment_index[boundary - n + 1 : boundary + 1]
        assert np.all(block == k)
    gens = sample_generators(schedule_pairs(schedule), n)
    for i, seg in enumerate(trace.segment_index):
        assert np.array_equal(trace.generators[seg], gens[i])


@pytest.mark.parametrize("name", sorted(COUPLED_LEVELS))
def test_register_trace_leaves_uncoupled_levels_exactly_empty(name):
    # The RK4 step polynomial keeps a level with a zero row and column at
    # exactly the identity, so its endpoint is an exact reference.
    schedule, basis = ORACLE_CASES[name]
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=16)
    final = rk4_propagator(schedule_pairs(schedule), 64) @ np.array(basis).T
    off = np.setdiff1d(np.arange(final.shape[0]), trace.levels)
    assert not final[off].any()
    assert np.max(np.abs(trace.states[:, -1, :] - final[trace.levels].T)) < 1e-8
    report = holonomy.check_holonomy(trace)
    assert report.passed and report.cond1_residual < 1e-12


def test_uncoupled_basis_vector_is_carried_unchanged():
    # the drive couples only |0> and |e>; |1> is in the basis, on no generator
    gen = np.zeros((3, 3), dtype=complex)
    gen[qutrit.IDX_0, qutrit.IDX_E] = gen[qutrit.IDX_E, qutrit.IDX_0] = 1.0
    trace = holonomy.trace_evolution(one_segment(gen, math.pi), COMP_BASIS, 8)
    assert np.array_equal(trace.levels, [0, 1, 2])
    assert np.array_equal(trace.states[1], np.tile(qutrit.ket(qutrit.IDX_1), (9, 1)))
    ref = trace_states_loop([(gen, math.pi)], COMP_BASIS, 8)
    assert np.max(np.abs(trace.states - ref)) < 1e-12
    # a full Rabi flip of |0> through |e> closes the loop with a pi phase
    assert holonomy.check_holonomy(trace).passed


@pytest.mark.parametrize("entry", [(3, 0), (0, 3)])
def test_one_sided_tiny_entry_keeps_its_level(entry):
    # |0> <-> |e> drive on four levels, plus 1e-13 on one side of level 3,
    # small enough for the Hermitian guard
    gen = np.zeros((4, 4), dtype=complex)
    gen[0, 2] = gen[2, 0] = 1.0
    gen[entry] = 1e-13
    schedule = one_segment(gen, 0.7)
    basis = np.eye(4, dtype=complex)[:2]
    trace = holonomy.trace_evolution(schedule, basis, 8)
    assert np.array_equal(trace.levels, [0, 1, 2, 3])
    final = basis @ linalg.evolve(schedule).T
    assert np.max(np.abs(trace.states[:, -1, :] - final)) < 1e-15
