import json
import math
import warnings

import numpy as np
import pytest

from hologate import cli, dfs, holonomy, linalg, scaling

from oracles import (
    EXCITED,
    bright_dark,
    frobenius_distance,
    phase_residual_loop,
    rk4_propagator,
    projector_residual_curve,
    random_hermitian,
    sample_generators,
    schedule_pairs,
    trace_states_loop,
    trace_states_mpmath,
    two_field_pairs,
    two_qubit_ket,
)

COMP_BASIS = tuple(np.eye(3, dtype=complex)[:2])  # |0> and |1>


def gate_schedule(name, theta=math.pi / 2, phi=0.0, jk="11"):
    gate = scaling.GATES[name]
    return gate.schedule(theta, phi, jk, (0.0,) * len(gate.error_keys))


def elementary_schedule(theta=math.pi / 2, phi=0.0):
    return gate_schedule("elementary", theta, phi)


def drive(theta, phi):
    """The phase-0 (second) segment generator of the elementary loop."""
    return two_field_pairs(theta, phi)[1][0]


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
    bright, _ = bright_dark(0.9, 0.3)
    trace = holonomy.trace_evolution(one_segment(drive(0.9, 0.3), math.pi / 2), [bright])
    final = trace.states[0, -1, :]
    assert np.linalg.norm(final - (-1j) * EXCITED) < 1e-12


def test_trace_endpoint_matches_time_ordered_product(rng):
    schedule = linalg.Schedule([random_hermitian(rng, 4) for _ in range(3)], rng.uniform(0.1, 2.0, 3))
    basis = np.eye(4, dtype=complex)
    trace = holonomy.trace_evolution(schedule, basis, samples_per_segment=32)
    u = linalg.evolve(schedule)
    assert frobenius_distance(trace.states[:, -1, :].T, u) < 1e-10


def test_trace_starts_at_the_given_basis():
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    assert np.array_equal(trace.states[:, 0, :], np.array(COMP_BASIS))
    assert trace.states.shape[1] == trace.n_segments + 1 == 3


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
    trace = holonomy.trace_evolution(one_segment(drive(math.pi / 2, 0.0), math.pi / 4), COMP_BASIS)
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
    # the certificate takes no samples inside a segment, so no sample count
    # changes it, and the sampled oracle agrees with it at every refinement
    schedule = detuned(elementary_schedule())
    pairs = schedule_pairs(schedule)
    exact = holonomy.check_holonomy(holonomy.trace_evolution(schedule, COMP_BASIS, 1))
    assert exact.cond2_max > 1e-3
    for n in (64, 256):
        trace = holonomy.trace_evolution(schedule, COMP_BASIS, samples_per_segment=n)
        assert holonomy.check_holonomy(trace) == exact
        sampled = np.max(phase_residual_loop(trace_states_loop(pairs, COMP_BASIS, n), pairs, n))
        assert abs(sampled / holonomy.peak_rabi(trace) - exact.cond2_max) < 1e-12

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


@pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1.0, math.inf])
def test_a_tolerance_that_is_not_finite_and_positive_is_rejected(tolerance):
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        holonomy.check_holonomy(trace, tolerance)


def test_peak_rabi_of_unit_envelope_is_one():
    trace = holonomy.trace_evolution(elementary_schedule(), COMP_BASIS)
    assert abs(holonomy.peak_rabi(trace) - 1.0) < 1e-12


def test_residual_curve_shape_and_extremes():
    schedule = elementary_schedule(0.6, 1.0)
    states = trace_states_loop(schedule_pairs(schedule), COMP_BASIS, 128)
    curve = projector_residual_curve(states)
    assert curve.shape == (257,)
    assert curve[0] == 0.0
    assert curve[-1] < 1e-10
    assert abs(np.max(curve) - math.sqrt(2)) < 1e-6
    # the sampled curve peaks at the midpoint boundary, which the trace keeps
    trace = holonomy.trace_evolution(schedule, COMP_BASIS)
    assert abs(holonomy.grassmannian_midpoint_check(trace) - curve[128]) < 1e-12


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
    trace = holonomy.trace_evolution(one_segment(drive(1.0, 0.0), math.pi / 2), COMP_BASIS)
    with pytest.raises(ValueError):
        holonomy.grassmannian_midpoint_check(trace)


@pytest.mark.parametrize("basis", [[], np.zeros((0, 3))], ids=["list", "array"])
def test_trace_rejects_an_empty_basis(basis):
    with pytest.raises(ValueError, match="at least one vector"):
        holonomy.trace_evolution(elementary_schedule(), basis)


def test_trace_rejects_a_nan_basis():
    # NaN fails every comparison, so the orthonormality bound must be met, not merely not exceeded
    with pytest.raises(ValueError, match="not orthonormal"):
        holonomy.trace_evolution(elementary_schedule(), [[math.nan, 0, 0], [0, 1, 0]])


def test_trace_rejects_an_overflowing_basis_without_a_warning():
    # the Gram matrix of a 1e200 entry overflows; that fails the check, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not orthonormal"):
            holonomy.trace_evolution(elementary_schedule(), [[1e200, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("samples", [math.nan, 2.5, True], ids=["nan", "float", "bool"])
def test_trace_samples_per_segment_must_be_an_integer(samples):
    assert holonomy.trace_evolution(elementary_schedule(), COMP_BASIS, np.int64(3)).n_segments == 2
    with pytest.raises(ValueError, match="must be an integer"):
        holonomy.trace_evolution(elementary_schedule(), COMP_BASIS, samples)


def test_four_pulse_schedule_closes_after_every_gate():
    # each back-to-back segment pair is itself a closed loop, so the
    # projector returns to its origin at every second boundary
    schedule = gate_schedule("composite4", 0.9, 0.5)
    trace = holonomy.trace_evolution(schedule, COMP_BASIS)
    assert trace.n_segments == 8
    p0 = trace.projector(0)
    for boundary in (2, 4, 6, 8):
        assert frobenius_distance(trace.projector(boundary), p0) < 1e-10


def test_trace_input_validation():
    with pytest.raises(ValueError):
        holonomy.trace_evolution(linalg.Schedule(np.zeros((0, 3, 3)), []), COMP_BASIS)
    with pytest.raises(ValueError):
        holonomy.trace_evolution(elementary_schedule(), COMP_BASIS, samples_per_segment=0)
    with pytest.raises(ValueError):
        holonomy.trace_evolution(
            elementary_schedule(), (COMP_BASIS[0], 2.0 * COMP_BASIS[1])
        )
    with pytest.raises(ValueError):
        holonomy.trace_evolution(elementary_schedule(), (COMP_BASIS[0], COMP_BASIS[0]))
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
    "three_ion": np.sort([int(b, 2) for b in dfs.THREE_ION_LABELS.values()]),
    "six_ion": np.sort([int(b, 2) for b in dfs.SIX_ION_LABELS.values()]),
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
    # the trace holds every n-th sample of the oracle: the segment boundaries
    boundaries = ref_states[:, ::n, :][:, :, trace.levels]
    assert trace.states.shape == boundaries.shape == (len(basis), len(schedule) + 1, len(trace.levels))
    assert np.max(np.abs(trace.states - boundaries)) < 1e-12
    # The oracle's eigh may rotate the uncoupled levels into the schedule's
    # zero eigenspace, which leaves them nonzero at the rounding level only.
    off = np.setdiff1d(np.arange(dim), trace.levels)
    assert np.max(np.abs(ref_states[:, :, off]), initial=0.0) < 1e-15

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
    assert np.max(np.abs(trace.states - ref[:, ::513, :][:, :, trace.levels])) < 1e-12


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
    gen[0, 2] = gen[2, 0] = 1.0
    trace = holonomy.trace_evolution(one_segment(gen, math.pi), COMP_BASIS, 8)
    assert np.array_equal(trace.levels, [0, 1, 2])
    assert np.array_equal(trace.states[1], np.tile(COMP_BASIS[1], (2, 1)))
    ref = trace_states_loop([(gen, math.pi)], COMP_BASIS, 8)[:, ::8, :]
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


def certify_cases() -> dict:
    """name -> (schedule, basis, check-holonomy config or None) at theta 0.9, phi 0.3.

    The five gates and the two register schedules, each whole and cut by
    its last segment; only the gates have a ``check-holonomy`` config.
    """
    three = dfs.three_ion_encoding()
    six = dfs.six_ion_encoding()
    cases = {
        "three_ion": (
            dfs.logical_composite_schedule(0.9, 0.3),
            [three.logical_ket(label) for label in ("0", "1")],
            None,
        ),
        "six_ion": (
            dfs.two_logical_composite_schedule(0.9, 0.3),
            [six.logical_ket(label) for label in ("00", "01", "10", "11")],
            None,
        ),
    }
    for name in ("elementary", "composite2", "composite4", "twoqubit_elementary", "twoqubit_composite"):
        gate = scaling.GATES[name]
        cfg = {"schedule": name, "theta": 0.9, "phi": 0.3, "jk": "01"}
        cases[name] = (gate_schedule(name, 0.9, 0.3, "01"), gate.subspace_basis(), cfg)
    for name, (schedule, basis, cfg) in list(cases.items()):
        cut = schedule.n_segments - 1
        cut_cfg = None if cfg is None else dict(cfg, truncate_segments=cut)
        cases[f"{name}_cut"] = (
            linalg.Schedule(schedule.generators[:cut], schedule.areas[:cut]), basis, cut_cfg
        )
    return cases


CERTIFY_CASES = certify_cases()


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_exact_certificate_agrees_with_sampled_oracle(name, tmp_path, capsys):
    schedule, basis, cfg = CERTIFY_CASES[name]
    report = holonomy.check_holonomy(holonomy.trace_evolution(schedule, basis), 1e-8)
    pairs = schedule_pairs(schedule)
    states = trace_states_loop(pairs, basis, 512)
    peak = max(float(np.max(np.abs(np.linalg.eigvalsh(h)))) for h, _ in pairs)
    ref_cond1 = projector_residual_curve(states)[-1]
    ref_cond2 = float(np.max(phase_residual_loop(states, pairs, 512))) / peak
    whole = not name.endswith("_cut")
    assert report.passed == (ref_cond1 <= 1e-8 and ref_cond2 <= 1e-8) == whole
    if whole:
        assert report.cond1_residual <= 1e-14 and report.cond2_max <= 1e-14
    if cfg is None:
        return
    records = []
    for samples in (1, 512):
        path = tmp_path / f"{samples}.json"
        path.write_text(json.dumps(dict(cfg, samples_per_segment=samples)))
        out = tmp_path / str(samples)
        assert cli.main(["check-holonomy", "--config", str(path), "--out", str(out)]) == 0
        record = json.loads((out / "holonomy_result.json").read_text())
        del record["config"], record["timestamp"]
        records.append(record)
    capsys.readouterr()
    assert records[0] == records[1]
    assert records[0]["outputs"]["passed"] is whole
