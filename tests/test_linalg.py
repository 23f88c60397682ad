import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import dfs, linalg, qutrit, two_qubit

from oracles import (
    eigh_expm,
    is_unitary,
    random_hermitian,
    rk4_propagator,
    two_field_composite_pairs,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def embed(block, dim, offset=0):
    m = np.zeros((dim, dim), dtype=complex)
    n = block.shape[0]
    m[offset : offset + n, offset : offset + n] = block
    return m


def test_expm_zero_generator_is_identity():
    assert linalg.frobenius_distance(
        linalg.expm_hermitian(np.zeros((3, 3)), 1.0), np.eye(3)
    ) == 0.0


def test_expm_pauli_x_pi_is_minus_identity():
    u = linalg.expm_hermitian(embed(SIGMA_X, 3), math.pi)
    target = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert linalg.frobenius_distance(u, target) < 1e-12


def test_expm_half_pi_coupling_matches_integrator():
    # bright-excited flip: area pi/2 on |1><2| + |2><1|
    gen = embed(SIGMA_X, 3, offset=1)
    u = linalg.expm_hermitian(gen, math.pi / 2)
    ref = rk4_propagator([(gen, math.pi / 2)])
    assert linalg.frobenius_distance(u, ref) < 1e-10


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.expm_hermitian(np.zeros((2, 3)), 1.0)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_rejects_dimension_above_cap():
    with pytest.raises(ValueError):
        linalg.expm_hermitian(np.zeros((65, 65)), 1.0)


def test_dimension_cap_admits_six_ion_register():
    u = linalg.expm_hermitian(np.zeros((64, 64)), 1.0)
    assert u.shape == (64, 64)


@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_expm_area_additivity(seed, a, b):
    gen = random_hermitian(np.random.default_rng(seed), 4)
    lhs = linalg.expm_hermitian(gen, a) @ linalg.expm_hermitian(gen, b)
    rhs = linalg.expm_hermitian(gen, a + b)
    assert linalg.frobenius_distance(lhs, rhs) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9))
def test_expm_is_unitary(seed, dim):
    gen = random_hermitian(np.random.default_rng(seed), dim)
    assert is_unitary(linalg.expm_hermitian(gen, 1.7))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9), area=st.floats(0.1, 4 * math.pi))
def test_expm_matches_integrator(seed, dim, area):
    gen = random_hermitian(np.random.default_rng(seed), dim, scale=0.5)
    direct = linalg.expm_hermitian(gen, area)
    ref = rk4_propagator([(gen, area)], steps_per_segment=8192)
    assert linalg.frobenius_distance(direct, ref) < 1e-8


def test_time_ordered_empty_without_dim_rejected():
    with pytest.raises(ValueError):
        linalg.Schedule(np.zeros((0, 3, 3)), [])


def test_time_ordered_single_segment_reduces_to_expm(rng):
    gen = random_hermitian(rng, 3)
    assert linalg.frobenius_distance(
        linalg.evolve(linalg.Schedule([gen], [0.8])), linalg.expm_hermitian(gen, 0.8)
    ) < 1e-14


def test_time_ordered_applies_later_segments_on_left(rng):
    g1 = random_hermitian(rng, 3)
    g2 = random_hermitian(rng, 3)
    u = linalg.evolve(linalg.Schedule([g1, g2], [0.3, 0.9]))
    expected = linalg.expm_hermitian(g2, 0.9) @ linalg.expm_hermitian(g1, 0.3)
    assert linalg.frobenius_distance(u, expected) < 1e-14


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
    assert linalg.frobenius_distance(np.eye(4), np.eye(4)) == 0.0


def test_frobenius_distance_sign_flip():
    assert abs(linalg.frobenius_distance(np.eye(2), -np.eye(2)) - 2 * math.sqrt(2)) < 1e-15


def test_frobenius_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.frobenius_distance(np.eye(2), np.eye(3))


def test_hermitian_and_unitary_predicates(rng):
    h = random_hermitian(rng, 3)
    linalg.Schedule([h], [1.0])
    with pytest.raises(ValueError):
        linalg.Schedule([h + 1j * np.eye(3)], [1.0])
    u = linalg.expm_hermitian(h, 1.0)
    assert is_unitary(u)
    assert not is_unitary(2 * u)
    assert not is_unitary(np.zeros((2, 3)))


def test_vector_norm_helpers():
    v = np.array([3.0, 4.0j])
    assert abs(linalg.norm(v) - 5.0) < 1e-15
    assert abs(linalg.norm(v / 5.0) - 1.0) < 1e-15


def test_hermitian_guard_is_relative_to_the_largest_entry():
    # a nilpotent generator 1e-13 wide is far from Hermitian at its own scale
    with pytest.raises(ValueError):
        linalg.Schedule([[[0.0, 1e-13], [0.0, 0.0]]], [1e13])
    # rounding-size asymmetry on a large Hermitian generator is accepted
    g = 4e6 * np.array([[0.0, 1.0, 0.5j], [1.0, 1.0, 0.0], [-0.5j, 0.0, -1.0]])
    g[0, 1] += 1e-11
    u = linalg.expm_hermitian(g, 1e-6)
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


def test_restriction_keeps_rows_columns_and_vectors():
    gens = np.zeros((2, 5, 5), dtype=complex)
    gens[0, 1, 1] = 1.0
    gens[0, 1, 3] = 1e-13  # one-sided: row of level 1, column of level 3
    gens[1, 2, 2] = -2.0  # a diagonal entry couples its level to itself
    none = np.zeros(5)
    for g in (gens, gens.swapaxes(-1, -2)):
        levels, restricted = linalg.restrict_to_coupled(linalg.Schedule(g, [0.3, 0.9]), none)
        assert np.array_equal(levels, [1, 2, 3])
        assert np.array_equal(restricted.generators, g[:, [1, 2, 3]][:, :, [1, 2, 3]])
        assert np.array_equal(restricted.areas, [0.3, 0.9])
    schedule = linalg.Schedule(gens, [0.3, 0.9])
    levels, _ = linalg.restrict_to_coupled(schedule, np.eye(5)[[0, 4]])
    assert np.array_equal(levels, [0, 1, 2, 3, 4])
    batch = linalg.Schedule(gens[None], [[0.3, 0.9]])
    levels, restricted = linalg.restrict_to_coupled(batch, [0, 0, 0, 0, 1j])
    assert np.array_equal(levels, [1, 2, 3, 4])
    assert restricted.generators.shape == (1, 2, 4, 4)
    levels, _ = linalg.restrict_to_coupled(linalg.Schedule(np.zeros((1, 5, 5)), [1.0]), np.eye(5)[0])
    assert np.array_equal(levels, [0])


def package_generators():
    """name -> generators from every builder family, at generic angles and errors."""
    model = qutrit.ErrorModel(0.05, -0.03)
    frame = qutrit.BrightDarkFrame(0.8, 0.3)
    return {
        "qutrit": list(1.3 * qutrit.drive_generators(frame.theta, frame.phi, [0.0, math.pi / 2, 2.1])),
        "two_field": [h for h, _ in two_field_composite_pairs(0.8, 0.4, 4, 0.05, -0.03)],
        "five_level": [
            two_qubit.segment_generator(jk, phi0) for jk in ("00", "11") for phi0 in (0.0, 1.0)
        ],
        "three_ion": list(dfs.logical_composite_schedule(0.8, 0.4, model).generators),
        # +-W has multiplicity two here, where W^2 = tr(H^2)/2 would be wrong
        "six_ion": list(dfs.two_logical_composite_schedule(0.8, 0.4, model).generators),
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
    got = linalg.exponentials(linalg.Schedule(gens[:, None, None], areas[:, None]))[..., 0, :, :]
    assert got.shape == (len(gens), len(areas)) + gens.shape[1:]
    for g, row, ref_row in zip(gens, got, expected):
        for u, ref in zip(row, ref_row):
            assert linalg.frobenius_distance(u, ref) < 1e-13
        assert linalg.frobenius_distance(linalg.expm_hermitian(g, areas[1]), ref_row[1]) < 1e-13


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
    u = linalg.expm_hermitian(g, 1.7)
    assert calls == [(1,) + g.shape]
    assert linalg.frobenius_distance(u, expected) < 1e-13


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-60, 1e60, 1e160, 1e300])
@pytest.mark.parametrize("closed_form", [True, False])
def test_exponential_is_exact_at_extreme_generator_scales(scale, closed_form, rng):
    # squared norms of H^2 and H^3 would underflow or overflow at these scales
    if closed_form:
        g = qutrit.drive_generators(0.8, 0.3, 0.4)
    else:
        g = random_hermitian(rng, 4)
    u = linalg.expm_hermitian(g * scale, 0.9 / scale)
    assert linalg.frobenius_distance(u, eigh_expm(g, 0.9)) < 1e-13


def test_zero_generator_gives_exact_identity(monkeypatch):
    forbid_eigh(monkeypatch)
    eye = np.eye(5)
    steps = linalg.exponentials(linalg.Schedule(np.zeros((3, 5, 5)), [0.5, -7.0, 1e6]))
    assert np.array_equal(steps, [eye] * 3)
    assert np.array_equal(linalg.evolve(linalg.Schedule(np.zeros((2, 5, 5)), [0.3, 0.4])), eye)


def test_batched_evolution_matches_one_matrix_at_a_time(rng):
    # a batch mixing closed-form and fallback generators, broadcast areas
    frame = qutrit.BrightDarkFrame(0.6, 1.1)
    gens = np.array(
        [
            qutrit.drive_generators(frame.theta, frame.phi, 0.4),
            random_hermitian(rng, 3),
            np.diag([1.0, 2.0, 3.0]),
        ]
    )
    areas = rng.uniform(-2.0, 2.0, size=(4, 3))
    schedule = linalg.Schedule(gens, areas)
    batch = linalg.exponentials(schedule)
    products = linalg.evolve(schedule)
    assert batch.shape == (4, 3, 3, 3) and products.shape == (4, 3, 3)
    for b in range(4):
        for k in range(3):
            single = linalg.expm_hermitian(gens[k], areas[b, k])
            assert linalg.frobenius_distance(batch[b, k], single) < 1e-15
        one = linalg.evolve(linalg.Schedule(gens, areas[b]))
        assert linalg.frobenius_distance(products[b], one) < 1e-15
        expected = eigh_expm(gens[2], areas[b, 2]) @ eigh_expm(gens[1], areas[b, 1]) @ eigh_expm(
            gens[0], areas[b, 0]
        )
        assert linalg.frobenius_distance(products[b], expected) < 1e-13


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_evolve_keeps_time_order_for_any_segment_count(seed, n):
    gen_rng = np.random.default_rng(seed)
    gens = np.array([random_hermitian(gen_rng, 3) for _ in range(n)])
    areas = gen_rng.uniform(0.1, 2.0, size=n)
    expected = np.eye(3)
    for g, a in zip(gens, areas):
        expected = eigh_expm(g, a) @ expected
    assert linalg.frobenius_distance(linalg.evolve(linalg.Schedule(gens, areas)), expected) < 1e-12


def test_evolve_rejects_bad_batches(rng):
    g = random_hermitian(rng, 3)
    for gens, areas in (
        (np.zeros((0, 3, 3)), []),
        (np.array([g, g]), [0.1, 0.2, 0.3]),
        (g, [0.1]),
        (np.array([g, g + 1e-9j * np.eye(3)]), [0.1, 0.2]),
        (np.zeros((2, 65, 65)), [0.1, 0.2]),
        (np.zeros((2, 3, 4)), [0.1, 0.2]),
        (np.array([[g, g], [g, g]]), np.ones((3, 2))),
        (np.array([g]), 0.1),
    ):
        with pytest.raises(ValueError):
            linalg.evolve(linalg.Schedule(gens, areas))
