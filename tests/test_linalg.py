import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import dfs, linalg, scaling
from hologate.scaling import GATES

from oracles import (
    eigh_expm,
    frobenius_distance,
    haar_unitary,
    is_unitary,
    random_hermitian,
    rk4_propagator,
    two_field_composite_pairs,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def expm(h, t):
    """exp(-i h t) for one generator, by the package's exponential kernel."""
    return linalg.evolve(linalg.Schedule([h], [t]))


def embed(block, dim, offset=0):
    m = np.zeros((dim, dim), dtype=complex)
    n = block.shape[0]
    m[offset : offset + n, offset : offset + n] = block
    return m


def test_expm_zero_generator_is_identity():
    assert frobenius_distance(
        expm(np.zeros((3, 3)), 1.0), np.eye(3)
    ) == 0.0


def test_expm_pauli_x_pi_is_minus_identity():
    u = expm(embed(SIGMA_X, 3), math.pi)
    target = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert frobenius_distance(u, target) < 1e-12


def test_expm_half_pi_coupling_matches_integrator():
    # bright-excited flip: area pi/2 on |1><2| + |2><1|
    gen = embed(SIGMA_X, 3, offset=1)
    u = expm(gen, math.pi / 2)
    ref = rk4_propagator([(gen, math.pi / 2)])
    assert frobenius_distance(u, ref) < 1e-10


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)), 1.0)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_rejects_dimension_above_cap():
    with pytest.raises(ValueError):
        expm(np.zeros((65, 65)), 1.0)


def test_dimension_cap_admits_six_ion_register():
    u = expm(np.zeros((64, 64)), 1.0)
    assert u.shape == (64, 64)


@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_expm_area_additivity(seed, a, b):
    gen = random_hermitian(np.random.default_rng(seed), 4)
    lhs = expm(gen, a) @ expm(gen, b)
    rhs = expm(gen, a + b)
    assert frobenius_distance(lhs, rhs) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9))
def test_expm_is_unitary(seed, dim):
    gen = random_hermitian(np.random.default_rng(seed), dim)
    assert is_unitary(expm(gen, 1.7))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9), area=st.floats(0.1, 4 * math.pi))
def test_expm_matches_integrator(seed, dim, area):
    gen = random_hermitian(np.random.default_rng(seed), dim, scale=0.5)
    direct = expm(gen, area)
    ref = rk4_propagator([(gen, area)], steps_per_segment=8192)
    assert frobenius_distance(direct, ref) < 1e-8


def test_time_ordered_empty_without_dim_rejected():
    with pytest.raises(ValueError):
        linalg.Schedule(np.zeros((0, 3, 3)), [])


def test_time_ordered_single_segment_reduces_to_expm(rng):
    gen = random_hermitian(rng, 3)
    assert frobenius_distance(
        linalg.evolve(linalg.Schedule([gen], [0.8])), expm(gen, 0.8)
    ) < 1e-14


def test_time_ordered_applies_later_segments_on_left(rng):
    g1 = random_hermitian(rng, 3)
    g2 = random_hermitian(rng, 3)
    u = linalg.evolve(linalg.Schedule([g1, g2], [0.3, 0.9]))
    expected = expm(g2, 0.9) @ expm(g1, 0.3)
    assert frobenius_distance(u, expected) < 1e-14


def test_time_ordered_rejects_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        linalg.Schedule([random_hermitian(rng, 3), random_hermitian(rng, 4)], [1.0, 1.0])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_time_ordered_product_is_unitary(seed, n):
    gen_rng = np.random.default_rng(seed)
    gens = [random_hermitian(gen_rng, 3) for _ in range(n)]
    areas = gen_rng.uniform(0.1, 2.0, size=n)
    assert is_unitary(linalg.evolve(linalg.Schedule(gens, areas)), 1e-9)


def test_frobenius_distance_identical_is_zero():
    assert frobenius_distance(np.eye(4), np.eye(4)) == 0.0


def test_frobenius_distance_sign_flip():
    assert abs(frobenius_distance(np.eye(2), -np.eye(2)) - 2 * math.sqrt(2)) < 1e-15


def test_frobenius_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_hermitian_and_unitary_predicates(rng):
    h = random_hermitian(rng, 3)
    linalg.Schedule([h], [1.0])
    with pytest.raises(ValueError):
        linalg.Schedule([h + 1j * np.eye(3)], [1.0])
    u = expm(h, 1.0)
    assert is_unitary(u)
    assert not is_unitary(2 * u)
    assert not is_unitary(np.zeros((2, 3)))


def test_hermitian_guard_is_relative_to_the_largest_entry():
    # a nilpotent generator 1e-13 wide is far from Hermitian at its own scale
    with pytest.raises(ValueError):
        linalg.Schedule([[[0.0, 1e-13], [0.0, 0.0]]], [1e13])
    # rounding-size asymmetry on a large Hermitian generator is accepted
    g = 4e6 * np.array([[0.0, 1.0, 0.5j], [1.0, 1.0, 0.0], [-0.5j, 0.0, -1.0]])
    g[0, 1] += 1e-11
    u = expm(g, 1e-6)
    assert is_unitary(u, 1e-12)


def test_schedule_is_a_read_only_copy(rng):
    gens = np.array([random_hermitian(rng, 3)])
    areas = np.array([0.5])
    schedule = linalg.Schedule(gens, areas)
    gens[0] = 0.0
    areas[0] = 9.0
    assert np.any(schedule.generators != 0) and schedule.areas[0] == 0.5
    assert schedule.n_segments == 1
    with pytest.raises(ValueError):
        schedule.areas[0] = 1.0


@pytest.mark.parametrize(
    "entry, value",
    [((0, 63), 1.0), ((5, 5), np.nan), ((2, 40), np.nan), ((40, 2), np.inf)],
    ids=["lone_off_diagonal", "nan_diagonal", "nan_upper", "inf_lower"],
)
def test_lone_bad_entry_of_a_register_generator_is_rejected(entry, value):
    # the entry puts its own row and column into the checked block
    g = np.zeros((2, 64, 64), dtype=complex)
    g[0, 10, 11] = g[0, 11, 10] = 1.0
    g[1][entry] = value
    # the Schedule's own checks reject it, not a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            linalg.Schedule(g, [0.3, 0.9])


ONE_DRIVE = np.array([[[0, 0, 1], [0, 0, 0], [1, 0, 0]]], dtype=complex)

NON_FINITE_PROBES = {
    "sweep_nan_theta": lambda: scaling.sweep_samples(GATES["composite4"], "common", (0.01,), math.nan, 0.0),
    "sweep_nan_phi": lambda: scaling.sweep_samples(GATES["composite4"], "common", (0.01,), 0.8, math.nan),
    "build_nan_theta": lambda: GATES["single"].build(math.nan, 0.0, "11", [(0.0, 0.0)]),
    "build_nan_phi": lambda: GATES["single"].build(0.8, math.nan, "11", [(0.0, 0.0)]),
    "register_nan_theta": lambda: dfs.logical_composite_schedule(math.nan, 0.0),
    "register_nan_phi": lambda: dfs.logical_composite_schedule(0.8, math.nan),
    "nan_generator": lambda: linalg.Schedule(ONE_DRIVE * [[[1, 1, math.nan]]], [1.0]),
    "inf_generator": lambda: linalg.Schedule(ONE_DRIVE + [[[0, 0, 0], [0, math.inf, 0], [0, 0, 0]]], [1.0]),
    "nan_area": lambda: linalg.Schedule(ONE_DRIVE, [math.nan]),
    "inf_area": lambda: linalg.Schedule(ONE_DRIVE, [math.inf]),
    # an infinite angle once ended in a warning from exp or in a math domain error
    "build_inf_phi": lambda: GATES["single"].build(0.3, math.inf, "11", [(0.0, 0.0)]),
    "sweep_inf_phi": lambda: scaling.sweep_samples(GATES["composite4"], "common", (0.01,), 0.8, math.inf),
    "build_inf_theta": lambda: GATES["composite4"].build(math.inf, 0.0, "11", [(0.0, 0.0)]),
    "register_inf_theta": lambda: dfs.logical_composite_schedule(math.inf, 0.0),
    # a finite area whose product with its generator's largest entry overflows,
    # or whose product with d times that entry does, which bounds every phase
    "overflowing_area": lambda: linalg.evolve(linalg.Schedule(10 * ONE_DRIVE, [1e308])),
    "overflowing_phase": lambda: linalg.evolve(linalg.Schedule(np.ones((1, 3, 3)), [1.7e308])),
}


@pytest.mark.parametrize("probe", NON_FINITE_PROBES)
def test_non_finite_schedule_input_is_rejected_before_any_scaling(probe):
    # a NaN angle or area once ended in a divide or sin warning, or in a NaN gate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            NON_FINITE_PROBES[probe]()


def test_a_large_area_below_the_overflow_bound_still_evolves():
    # d |area| max|g_ij| = 3e307 is finite, so no phase overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_unitary(linalg.evolve(linalg.Schedule(10 * ONE_DRIVE, [1e306])))


def test_coupled_levels_are_read_only_and_match_the_restriction():
    six_ion = dfs.two_logical_composite_schedule(0.8, 0.4, (0.05, -0.03))
    enc = dfs.six_ion_encoding()
    expected = sorted(enc.index(name) for name in ("00", "01", "a1", "11", "10", "a2"))
    assert np.array_equal(six_ion.levels, expected)
    g = np.zeros((2, 3, 1, 4, 4))
    g[1, 2, 0, 2, 2] = 1.0  # one batch entry couples level 2 to itself
    batch = linalg.Schedule(g, np.ones((3, 1)))
    assert np.array_equal(batch.levels, [2])
    for schedule in (six_ion, batch, GATES["composite4"].schedule(0.8, 0.3, "11", (0.0, 0.0))):
        assert np.array_equal(schedule.levels, linalg.exponentials(schedule)[0])
        with pytest.raises(ValueError):
            schedule.levels[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.levels = np.arange(3)
    assert len(linalg.Schedule(np.zeros((2, 4, 4)), [1.0, 1.0]).levels) == 0
    with pytest.raises(TypeError):
        linalg.Schedule(np.zeros((1, 3, 3)), [1.0], levels=[0])


def test_restriction_keeps_rows_columns_and_vectors():
    gens = np.zeros((2, 5, 5), dtype=complex)
    gens[0, 1, 1] = 1.0
    gens[0, 1, 3] = 1e-13  # one-sided: row of level 1, column of level 3
    gens[1, 2, 2] = -2.0  # a diagonal entry couples its level to itself
    none = np.zeros(5)
    for g in (gens, gens.swapaxes(-1, -2)):
        levels, steps = linalg.exponentials(linalg.Schedule(g, [0.3, 0.9]), none)
        assert np.array_equal(levels, [1, 2, 3])
        # the steps of the sliced block, which couples each of its levels
        block = linalg.Schedule(g[:, [1, 2, 3]][:, :, [1, 2, 3]], [0.3, 0.9])
        assert np.array_equal(linalg.exponentials(block)[0], [0, 1, 2])
        assert np.array_equal(steps, linalg.exponentials(block)[1])
        for step, h, a in zip(steps, block.generators, [0.3, 0.9]):
            assert frobenius_distance(step, eigh_expm(h, a)) < 1e-13
    schedule = linalg.Schedule(gens, [0.3, 0.9])
    levels, steps = linalg.exponentials(schedule, np.eye(5)[[0, 4]])
    assert np.array_equal(levels, [0, 1, 2, 3, 4]) and np.array_equal(schedule.levels, [1, 2, 3])
    assert steps.shape == (2, 5, 5)
    for k in (0, 4):  # occupied but uncoupled: the identity exactly
        assert np.array_equal(steps[:, k], np.broadcast_to(np.eye(5)[k], (2, 5)))
        assert np.array_equal(steps[:, :, k], np.broadcast_to(np.eye(5)[k], (2, 5)))
    batch = linalg.Schedule(gens[None], [[0.3, 0.9]])
    levels, batch_steps = linalg.exponentials(batch, [0, 0, 0, 0, 1j])
    assert np.array_equal(levels, [1, 2, 3, 4])
    assert batch_steps.shape == (1, 2, 4, 4)
    assert np.array_equal(batch_steps[0], steps[:, 1:, 1:])  # the vector's level 4 is uncoupled
    levels, steps = linalg.exponentials(linalg.Schedule(np.zeros((1, 5, 5)), [1.0]), np.eye(5)[0])
    assert np.array_equal(levels, [0]) and np.array_equal(steps, [[[1.0]]])
    levels, steps = linalg.exponentials(linalg.Schedule(np.zeros((1, 5, 5)), [1.0]))
    assert len(levels) == 0 and steps.shape == (1, 0, 0)


def package_generators():
    """name -> generators from every builder family, at generic angles and errors."""
    error = (0.05, -0.03)
    return {
        "qutrit": list(1.3 * GATES["composite4"].schedule(0.8, 0.3, "11", (0.0, 0.0)).generators),
        "two_field": [h for h, _ in two_field_composite_pairs(0.8, 0.4, 4, 0.05, -0.03)],
        "five_level": [
            h for jk in ("00", "11") for h in GATES["twoqubit_composite"].schedule(0.0, 0.0, jk, (0.0,)).generators
        ],
        "three_ion": list(dfs.logical_composite_schedule(0.8, 0.4, error).generators),
        # +-W has multiplicity two here, where W^2 = tr(H^2)/2 would be wrong
        "six_ion": list(dfs.two_logical_composite_schedule(0.8, 0.4, error).generators),
    }


def forbid_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigh fallback taken")

    monkeypatch.setattr(linalg.np.linalg, "eigh", fail)


@pytest.mark.parametrize("family", sorted(package_generators()))
def test_closed_form_matches_eigh_on_package_generators(family, monkeypatch):
    gens = np.array(package_generators()[family])
    areas = np.array([0.01, math.pi / 2, 2.0, -1.3, 7.5])
    expected = [[eigh_expm(g, a) for a in areas] for g in gens]
    forbid_eigh(monkeypatch)
    levels, steps = linalg.exponentials(linalg.Schedule(gens[:, None, None], areas[:, None]))
    got = steps[..., 0, :, :]
    assert got.shape == (len(gens), len(areas), len(levels), len(levels))
    block = np.ix_(levels, levels)
    for g, row, ref_row in zip(gens, got, expected):
        for u, ref in zip(row, ref_row):
            assert frobenius_distance(u, ref[block]) < 1e-13
        assert frobenius_distance(expm(g, areas[1]), ref_row[1]) < 1e-13


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: np.diag([1.0, 2.0, 3.0]).astype(complex),
        lambda rng: random_hermitian(rng, 4),
        lambda rng: random_hermitian(rng, 64, scale=0.1),
    ],
    ids=["diagonal", "random4", "random64"],
)
def test_generators_off_the_cube_identity_take_the_eigh_fallback(make, rng, monkeypatch):
    g = make(rng)
    assert np.linalg.norm(g @ g @ g - np.trace(g @ g @ g @ g).real / np.trace(g @ g).real * g) > 1e-3
    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(m.shape)
        return eigh(m)

    expected = eigh_expm(g, 1.7)
    monkeypatch.setattr(linalg.np.linalg, "eigh", counted)
    u = expm(g, 1.7)
    assert calls == [(1,) + g.shape]
    assert frobenius_distance(u, expected) < 1e-13


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-60, 1e60, 1e160, 1e300])
@pytest.mark.parametrize("closed_form", [True, False])
def test_exponential_is_exact_at_extreme_generator_scales(scale, closed_form, rng):
    # squared norms of H^2 and H^3 would underflow or overflow at these scales
    if closed_form:
        g = GATES["elementary"].schedule(0.8, 0.3, "11", (0.0, 0.0)).generators[0]
    else:
        g = random_hermitian(rng, 4)
    u = expm(g * scale, 0.9 / scale)
    assert frobenius_distance(u, eigh_expm(g, 0.9)) < 1e-13


def test_zero_generator_gives_exact_identity(monkeypatch):
    forbid_eigh(monkeypatch)
    eye = np.eye(5)
    zero = linalg.Schedule(np.zeros((3, 5, 5)), [0.5, -7.0, 1e6])
    levels, steps = linalg.exponentials(zero, np.ones(5))
    assert np.array_equal(levels, np.arange(5)) and np.array_equal(steps, [eye] * 3)
    levels, steps = linalg.exponentials(zero)
    assert len(levels) == 0 and steps.shape == (3, 0, 0)
    assert np.array_equal(linalg.evolve(linalg.Schedule(np.zeros((2, 5, 5)), [0.3, 0.4])), eye)
    batch = linalg.evolve(linalg.Schedule(np.zeros((2, 1, 2, 5, 5)), np.ones((3, 2))))
    assert batch.shape == (2, 3, 5, 5) and np.array_equal(batch, np.broadcast_to(eye, batch.shape))


def scattered_register_schedule(rng):
    """Three random Hermitian 6x6 generators embedded at scattered levels of 64."""
    levels = np.sort(rng.choice(64, size=6, replace=False))
    g = np.zeros((3, 64, 64), dtype=complex)
    for k in range(3):
        g[k][np.ix_(levels, levels)] = random_hermitian(rng, 6)
    return linalg.Schedule(g, rng.uniform(0.2, 1.5, size=3))


@pytest.mark.parametrize("name", ["six_ion", "scattered"])
def test_evolve_on_the_coupled_block_matches_the_dense_product(name, rng):
    if name == "six_ion":
        schedule = dfs.two_logical_composite_schedule(0.8, 0.4, (0.05, -0.03))
    else:
        schedule = scattered_register_schedule(rng)
    assert len(schedule.levels) == 6
    dense = np.eye(64)
    for g, a in zip(schedule.generators, schedule.areas):
        dense = eigh_expm(g, a) @ dense
    u = linalg.evolve(schedule)
    # entrywise: a Frobenius norm over 64x64 adds up the reference's own rounding
    assert np.abs(u - dense).max() < 1e-14
    others = np.setdiff1d(np.arange(64), schedule.levels)
    assert np.array_equal(u[others], np.eye(64)[others])
    assert np.array_equal(u[:, others], np.eye(64)[:, others])


def test_batched_evolution_matches_one_matrix_at_a_time(rng):
    # a batch mixing closed-form and fallback generators, broadcast areas
    gens = np.array(
        [
            GATES["elementary"].schedule(0.6, 1.1, "11", (0.0, 0.0)).generators[0],
            random_hermitian(rng, 3),
            np.diag([1.0, 2.0, 3.0]),
        ]
    )
    areas = rng.uniform(-2.0, 2.0, size=(4, 3))
    schedule = linalg.Schedule(gens, areas)
    levels, batch = linalg.exponentials(schedule)
    products = linalg.evolve(schedule)
    assert np.array_equal(levels, np.arange(3))
    assert batch.shape == (4, 3, 3, 3) and products.shape == (4, 3, 3)
    for b in range(4):
        for k in range(3):
            single = expm(gens[k], areas[b, k])
            assert frobenius_distance(batch[b, k], single) < 1e-15
        one = linalg.evolve(linalg.Schedule(gens, areas[b]))
        assert frobenius_distance(products[b], one) < 1e-15
        expected = eigh_expm(gens[2], areas[b, 2]) @ eigh_expm(gens[1], areas[b, 1]) @ eigh_expm(
            gens[0], areas[b, 0]
        )
        assert frobenius_distance(products[b], expected) < 1e-13


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_evolve_keeps_time_order_for_any_segment_count(seed, n):
    gen_rng = np.random.default_rng(seed)
    gens = np.array([random_hermitian(gen_rng, 3) for _ in range(n)])
    areas = gen_rng.uniform(0.1, 2.0, size=n)
    expected = np.eye(3)
    for g, a in zip(gens, areas):
        expected = eigh_expm(g, a) @ expected
    assert frobenius_distance(linalg.evolve(linalg.Schedule(gens, areas)), expected) < 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_product_is_the_sequential_left_product_on_every_batch_entry(n, rng):
    # steps (2, 3, n, 4, 4), step 0 first: each entry is steps[n-1] ... steps[0]
    steps = np.array([[[haar_unitary(rng, 4) for _ in range(n)] for _ in range(3)] for _ in range(2)])
    product = linalg.product(steps)
    assert product.shape == (2, 3, 4, 4)
    for b in np.ndindex(2, 3):
        expected = steps[b][0]
        for step in steps[b][1:]:
            expected = step @ expected
        assert frobenius_distance(product[b], expected) < 1e-14


def test_evolve_rejects_bad_batches(rng):
    g = random_hermitian(rng, 3)
    for gens, areas in (
        (np.zeros((0, 3, 3)), []),
        (np.array([g, g]), [0.1, 0.2, 0.3]),
        (g, [0.1]),
        (np.array([g, g + 1e-9j * np.eye(3)]), [0.1, 0.2]),
        (np.zeros((2, 65, 65)), [0.1, 0.2]),
        (np.zeros((2, 0, 0)), [0.1, 0.2]),
        (np.zeros((2, 3, 4)), [0.1, 0.2]),
        (np.array([[g, g], [g, g]]), np.ones((3, 2))),
        (np.array([g]), 0.1),
    ):
        with pytest.raises(ValueError):
            linalg.evolve(linalg.Schedule(gens, areas))
