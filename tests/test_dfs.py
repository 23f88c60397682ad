import math

import numpy as np
import pytest

from hologate import dfs, linalg, qutrit
from hologate.dfs import DephasingChannel, DfsEncoding
from hologate.qutrit import BrightDarkFrame, ErrorModel

from oracles import (
    CONTRAST_UNIFORM_HALF_8_KICKS,
    entangling_power_check,
    is_unitary,
    kicked_fidelities_loop,
)

ENC3 = dfs.three_ion_encoding()
ENC6 = dfs.six_ion_encoding()


def encoded_block(gate, encoding, names):
    """Restriction of a register matrix to named logical levels, in that order."""
    idx = [encoding.index(n) for n in names]
    return gate[np.ix_(idx, idx)]


def logical_composite_gate(*args):
    return linalg.evolve(dfs.logical_composite_schedule(*args))


def plus_state(encoding, a, b):
    return (encoding.logical_ket(a) + encoding.logical_ket(b)) / math.sqrt(2)


def test_encoding_indices():
    assert [ENC3.index(n) for n in ("0", "1", "a")] == [4, 1, 2]
    assert [ENC6.index(n) for n in ("00", "01", "10", "11", "a1", "a2")] == [
        36, 33, 12, 9, 40, 5,
    ]


def test_encodings_have_uniform_collective_z():
    assert {dfs.collective_z_eigenvalue(b) for b in dfs.THREE_ION_LABELS.values()} == {1}
    assert {dfs.collective_z_eigenvalue(b) for b in dfs.SIX_ION_LABELS.values()} == {2}


def test_encoding_rejects_mixed_weight():
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "100", "1": "011"})
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "1000", "1": "0010"})
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "10x"})


def test_projector_rank_equals_label_count():
    assert abs(np.trace(ENC3.projector()) - 3) < 1e-15
    assert abs(np.trace(ENC6.projector()) - 6) < 1e-15


def test_membership_verdicts():
    assert dfs.dfs_membership_check(dfs.register_ket("100"), ENC3)
    assert dfs.dfs_membership_check(plus_state(ENC3, "0", "1"), ENC3)
    assert not dfs.dfs_membership_check(dfs.register_ket("111"), ENC3)
    assert not dfs.dfs_membership_check(dfs.register_ket("000"), ENC3)
    with pytest.raises(ValueError):
        dfs.dfs_membership_check(np.zeros(16), ENC3)


def test_h1_support_is_the_encoded_star():
    h = dfs.h1_effective(1.0, 1.0, 0.3, 0.7)
    assert np.array_equal(h, h.conj().T)
    assert np.count_nonzero(h) == 4
    live = {ENC3.index("0"), ENC3.index("1"), ENC3.index("a")}
    for i in range(8):
        for j in range(8):
            if i not in live or j not in live:
                assert h[i, j] == 0


def test_h1_rejects_bad_prefactor():
    with pytest.raises(ValueError):
        dfs.h1_effective(1.0, 1.0, 0.0, 0.0, coupling_prefactor=0.0)
    with pytest.raises(ValueError):
        dfs.h2_effective(1.0, 1.0, 0.0, 0.0, coupling_prefactor=-1.0)


def test_h2_has_no_cross_block_elements():
    h = dfs.h2_effective(1.1, 0.9, 0.2, 0.5)
    assert np.array_equal(h, h.conj().T)
    block_a = [ENC6.index(n) for n in ("00", "01", "a1")]
    block_b = [ENC6.index(n) for n in ("10", "11", "a2")]
    for i in block_a:
        for j in block_b:
            assert h[i, j] == 0 and h[j, i] == 0
    live = set(block_a) | set(block_b)
    for i in range(64):
        for j in range(64):
            if i not in live or j not in live:
                assert h[i, j] == 0


def test_effective_coupling_reproduces_bare_three_level_generator():
    # unit prefactor: entries must agree exactly, not just to tolerance
    model = ErrorModel(0.05, -0.02)
    bare = qutrit.fields_schedule(qutrit.composite_four_field_pulses(0.8, 1.1, model))
    register = dfs.logical_composite_schedule(0.8, 1.1, model)
    assert np.array_equal(register.areas, bare.areas)
    for embedded, gen in zip(register.generators, bare.generators):
        block = encoded_block(embedded, ENC3, ("0", "1", "a"))
        assert linalg.frobenius_distance(block, gen) < 1e-15


def test_opaque_prefactor_cancels_in_the_block():
    bare = qutrit.fields_schedule(qutrit.composite_four_field_pulses(0.8, 1.1))
    register = dfs.logical_composite_schedule(0.8, 1.1, None, 0.7)
    for embedded, gen in zip(register.generators, bare.generators):
        block = encoded_block(embedded, ENC3, ("0", "1", "a"))
        assert linalg.frobenius_distance(block, gen) < 1e-12


def complement_is_identity(gate, encoding):
    live = [encoding.index(n) for n in encoding.logical_labels]
    rest = [i for i in range(encoding.dim) if i not in live]
    block = gate[np.ix_(rest, rest)]
    off = gate[np.ix_(rest, live)]
    return (
        linalg.frobenius_distance(block, np.eye(len(rest))) < 1e-10
        and linalg.frobenius_norm(off) < 1e-10
    )


def test_logical_composite_acts_only_inside_the_encoding():
    gate = logical_composite_gate(math.pi / 4, 0.0)
    assert is_unitary(gate)
    assert complement_is_identity(gate, ENC3)


def test_logical_composite_block_matches_bare_composite():
    theta, phi = math.pi / 4, 0.0
    gate = logical_composite_gate(theta, phi)
    block = encoded_block(gate, ENC3, ("0", "1", "a"))
    bare = qutrit.composite_four(BrightDarkFrame(theta, phi))
    assert linalg.frobenius_distance(block, bare) < 1e-10
    assert linalg.frobenius_distance(
        block, qutrit.logical_rotation_target(theta, phi)
    ) < 1e-10


def test_logical_composite_block_tracks_error_model(rng):
    for _ in range(5):
        theta = rng.uniform(0.2, math.pi - 0.2)
        phi = rng.uniform(0, 2 * math.pi)
        model = ErrorModel(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        gate = logical_composite_gate(theta, phi, model)
        block = encoded_block(gate, ENC3, ("0", "1", "a"))
        bare = qutrit.composite_four(BrightDarkFrame(theta, phi), model)
        assert linalg.frobenius_distance(block, bare) < 1e-9


def test_two_logical_gate_is_block_structured():
    gate = dfs.two_logical_composite_gate(math.pi / 4, 0.0)
    assert is_unitary(gate)
    assert complement_is_identity(gate, ENC6)
    block_a = [ENC6.index(n) for n in ("00", "01", "a1")]
    block_b = [ENC6.index(n) for n in ("10", "11", "a2")]
    cross = gate[np.ix_(block_a, block_b)]
    assert linalg.frobenius_norm(cross) < 1e-10


def test_two_logical_trivial_angle_gives_product_gate():
    gate = dfs.two_logical_composite_gate(0.0, 0.0)
    block = encoded_block(gate, ENC6, ("00", "01", "10", "11"))
    minus_zz = -np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    assert linalg.frobenius_distance(block, minus_zz) < 1e-10
    assert not entangling_power_check(block)


def test_two_logical_generic_angle_is_entangling():
    gate = dfs.two_logical_composite_gate(math.pi / 4, 0.0)
    block = encoded_block(gate, ENC6, ("00", "01", "10", "11"))
    assert is_unitary(block)
    assert entangling_power_check(block)


def test_channel_validation():
    with pytest.raises(ValueError):
        DephasingChannel(-0.1)
    with pytest.raises(ValueError):
        DephasingChannel(math.inf)
    with pytest.raises(ValueError):
        DephasingChannel(math.nan)
    with pytest.raises(ValueError):
        DephasingChannel(0.5, distribution="poisson")
    with pytest.raises(ValueError):
        DephasingChannel(0.5, n_samples=0)


def test_channel_characteristic_values():
    ch_u = DephasingChannel(0.5, "uniform")
    assert ch_u.characteristic(0.0) == 1.0
    assert abs(ch_u.characteristic(2.0) - math.sin(1.0) / 1.0) < 1e-14
    ch_g = DephasingChannel(0.5, "gaussian")
    assert abs(ch_g.characteristic(2.0) - math.exp(-0.5)) < 1e-14


def test_zero_noise_channel_is_transparent():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.0, n_samples=50)
    result = dfs.apply_collective_dephasing(
        dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, ENC3, seed=1
    )
    assert np.max(np.abs(result.fidelities - 1.0)) < 1e-14


def test_encoded_state_survives_every_realization():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.5, n_samples=200)
    result = dfs.apply_collective_dephasing(
        dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, ENC3, seed=7
    )
    assert np.max(np.abs(result.fidelities - 1.0)) < 1e-12


def test_dephasing_rejects_unencoded_initial_state():
    channel = DephasingChannel(0.5, n_samples=10)
    with pytest.raises(ValueError):
        dfs.apply_collective_dephasing(
            dfs.logical_composite_schedule(0.7, 0.1), dfs.register_ket("110"), channel, ENC3, seed=0
        )


def test_dephasing_is_seed_deterministic():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.5, n_samples=20)
    schedule = dfs.logical_composite_schedule(0.7, 0.1)
    a = dfs.apply_collective_dephasing(schedule, psi, channel, ENC3, seed=42)
    b = dfs.apply_collective_dephasing(schedule, psi, channel, ENC3, seed=42)
    assert np.array_equal(a.fidelities, b.fidelities)


def test_idle_contrast_closed_form_trivia():
    channel = DephasingChannel(0.7)
    assert abs(dfs.idle_contrast_closed_form(dfs.register_ket("101"), channel, 5, 3) - 1.0) < 1e-14
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    assert abs(dfs.idle_contrast_closed_form(psi, channel, 0, 3) - 1.0) < 1e-14


def test_idle_contrast_matches_frozen_reference():
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    value = dfs.idle_contrast_closed_form(psi, DephasingChannel(0.5, "uniform"), 8, 3)
    assert abs(value - CONTRAST_UNIFORM_HALF_8_KICKS) < 1e-12


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_idle_contrast_monte_carlo_agrees_with_closed_form(distribution):
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    channel = DephasingChannel(0.5, distribution, n_samples=4000)
    result = dfs.idle_contrast_run(psi, channel, n_kicks=8, n_ions=3, seed=11)
    exact = dfs.idle_contrast_closed_form(psi, channel, n_kicks=8, n_ions=3)
    assert abs(result.mean - exact) < 4 * result.std_error
    assert result.mean < 0.95


def test_std_error_of_single_sample_is_zero():
    assert dfs.DephasingResult(np.array([0.5])).std_error == 0.0


def collective_z_table(n_ions):
    return np.array([n_ions - 2 * bin(i).count("1") for i in range(2**n_ions)], dtype=float)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


KICKED_REGISTERS = {
    "three_ion": (lambda: dfs.logical_composite_schedule(0.7, 0.2, ErrorModel(0.05, -0.03)), 3),
    "six_ion": (lambda: dfs.two_logical_composite_schedule(0.6, 0.3), 6),
}


@pytest.mark.parametrize(
    "register, distribution, kappa, n_samples",
    [
        ("three_ion", "uniform", 0.8, 300),
        ("three_ion", "gaussian", 0.8, 300),
        ("three_ion", "uniform", 0.0, 50),
        ("three_ion", "gaussian", 0.8, 1),
        ("six_ion", "uniform", 0.6, 200),
        ("six_ion", "gaussian", 0.6, 200),
    ],
)
def test_batched_kicked_run_matches_per_sample_loop(rng, register, distribution, kappa, n_samples):
    build, n_ions = KICKED_REGISTERS[register]
    schedule = build()
    psi = random_state(rng, 2**n_ions)
    channel = DephasingChannel(kappa, distribution, n_samples)
    result = dfs.kicked_schedule_fidelities(
        schedule, psi, channel, np.random.default_rng(17), n_ions
    )
    phis = channel.draw(np.random.default_rng(17), (n_samples, schedule.n_segments))
    propagators = [linalg.expm_hermitian(h, a) for h, a in zip(schedule.generators, schedule.areas)]
    expected = kicked_fidelities_loop(propagators, psi, phis, collective_z_table(n_ions))
    assert result.fidelities.shape == (n_samples,)
    assert np.max(np.abs(result.fidelities - expected)) < 1e-13
    if kappa > 0 and n_samples > 1:
        assert expected.min() < 0.99


@pytest.mark.parametrize(
    "n_ions, distribution, kappa, n_kicks, n_samples",
    [
        (3, "uniform", 0.5, 8, 500),
        (3, "gaussian", 0.5, 8, 500),
        (3, "uniform", 0.0, 8, 50),
        (3, "uniform", 0.5, 0, 50),
        (3, "gaussian", 0.9, 3, 1),
        (6, "uniform", 0.5, 4, 200),
    ],
)
def test_batched_idle_run_matches_per_sample_loop(rng, n_ions, distribution, kappa, n_kicks, n_samples):
    psi = random_state(rng, 2**n_ions)
    channel = DephasingChannel(kappa, distribution, n_samples)
    result = dfs.idle_contrast_run(psi, channel, n_kicks, n_ions, seed=23)
    phis = channel.draw(np.random.default_rng(23), (n_samples, n_kicks))
    expected = kicked_fidelities_loop([], psi, phis, collective_z_table(n_ions))
    assert result.fidelities.shape == (n_samples,)
    assert np.max(np.abs(result.fidelities - expected)) < 1e-13
    if kappa > 0 and n_kicks > 0 and n_samples > 1:
        assert expected.min() < 0.99
