import json
import math
import tracemalloc

import numpy as np
import pytest

from hologate import cli, dfs, linalg, pulses, scaling
from hologate.dfs import DephasingChannel, DfsEncoding

from oracles import (
    CONTRAST_UNIFORM_HALF_8_KICKS,
    eigh_expm,
    entangling_power_check,
    frobenius_distance,
    is_unitary,
    kicked_fidelities_loop,
    logical_rotation_target,
    two_field_composite_pairs,
)

ENC3 = dfs.three_ion_encoding()
ENC6 = dfs.six_ion_encoding()


def encoded_block(gate, encoding, names):
    """Restriction of a register matrix to named logical levels, in that order."""
    idx = [encoding.index(n) for n in names]
    return gate[np.ix_(idx, idx)]


def logical_composite_gate(*args):
    return linalg.evolve(dfs.logical_composite_schedule(*args))


def bare_composite_four(theta, phi, error=(0.0, 0.0)):
    return scaling.GATES["composite4"].build(theta, phi, "11", [error])[0]


def plus_state(encoding, a, b):
    return (encoding.logical_ket(a) + encoding.logical_ket(b)) / math.sqrt(2)


def test_encoding_indices():
    assert [ENC3.index(n) for n in ("0", "1", "a")] == [4, 1, 2]
    assert [ENC6.index(n) for n in ("00", "01", "10", "11", "a1", "a2")] == [
        36, 33, 12, 9, 40, 5,
    ]


def test_encodings_have_uniform_collective_z():
    assert {collective_z_table(3)[ENC3.index(n)] for n in dfs.THREE_ION_LABELS} == {1}
    assert {collective_z_table(6)[ENC6.index(n)] for n in dfs.SIX_ION_LABELS} == {2}


def test_encoding_rejects_mixed_weight():
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "100", "1": "011"})
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "1000", "1": "0010"})
    with pytest.raises(ValueError):
        DfsEncoding(3, {"0": "10x"})


def test_register_encodings_are_shared_and_read_only():
    assert dfs.three_ion_encoding() is ENC3 and dfs.six_ion_encoding() is ENC6
    with pytest.raises(TypeError):
        ENC3.logical_labels["0"] = "010"
    labels = {"0": "100", "1": "001"}
    encoding = DfsEncoding(3, labels)
    labels["0"] = "010"
    assert encoding.index("0") == 4


REGISTER_SCHEDULES = {
    # bare gate, register builder, encoding, the levels of each bare copy
    "three_ion": ("composite4", dfs.logical_composite_schedule, ENC3, [("0", "1", "a")]),
    "six_ion": (
        "composite2",
        dfs.two_logical_composite_schedule,
        ENC6,
        [("00", "01", "a1"), ("11", "10", "a2")],
    ),
}


@pytest.mark.parametrize("name", sorted(REGISTER_SCHEDULES))
@pytest.mark.parametrize("error", [(0.0, 0.0), (0.05, -0.02)], ids=["ideal", "error"])
def test_register_schedule_is_the_bare_schedule_on_its_levels(name, error):
    gate_kind, build, encoding, blocks = REGISTER_SCHEDULES[name]
    gate = scaling.GATES[gate_kind]
    field = gate.fields(0.8, 1.1, None, (error,))
    bare = pulses.loop_schedule(field[0, list(gate.order)], "square", 1)
    register = build(0.8, 1.1, error)
    assert np.array_equal(register.areas, bare.areas)
    within = np.zeros((encoding.dim, encoding.dim), dtype=bool)
    for names in blocks:
        # each copy is the bare generator entry for entry
        for embedded, gen in zip(register.generators, bare.generators):
            assert np.array_equal(encoded_block(embedded, encoding, names), gen)
        idx = [encoding.index(n) for n in names]
        within[np.ix_(idx, idx)] = True
    # nothing outside the copies: no element joins two blocks or touches
    # a level outside the encoding
    assert not register.generators[:, ~within].any()
    assert sum(len(names) for names in blocks) == len(encoding.logical_labels)


@pytest.mark.parametrize("name", sorted(REGISTER_SCHEDULES))
def test_register_schedule_defaults_to_the_zero_error_row(name):
    build = REGISTER_SCHEDULES[name][1]
    assert np.array_equal(build(0.8, 1.1).generators, build(0.8, 1.1, (0.0, 0.0)).generators)


def test_effective_coupling_reproduces_bare_three_level_generator():
    # generator times area per unit time is the raw two-field drive
    raw = two_field_composite_pairs(0.8, 1.1, 4, 0.05, -0.02)
    register = dfs.logical_composite_schedule(0.8, 1.1, (0.05, -0.02))
    assert register.n_segments == len(raw)
    for embedded, area, (gen, duration) in zip(register.generators, register.areas, raw):
        block = encoded_block(embedded, ENC3, ("0", "1", "a"))
        assert frobenius_distance(block * (area / duration), gen) < 1e-15


def complement_is_identity(gate, encoding):
    live = [encoding.index(n) for n in encoding.logical_labels]
    rest = [i for i in range(encoding.dim) if i not in live]
    block = gate[np.ix_(rest, rest)]
    off = gate[np.ix_(rest, live)]
    return (
        frobenius_distance(block, np.eye(len(rest))) < 1e-10
        and np.linalg.norm(off) < 1e-10
    )


def test_logical_composite_acts_only_inside_the_encoding():
    gate = logical_composite_gate(math.pi / 4, 0.0)
    assert is_unitary(gate)
    assert complement_is_identity(gate, ENC3)


def test_logical_composite_block_matches_bare_composite():
    theta, phi = math.pi / 4, 0.0
    gate = logical_composite_gate(theta, phi)
    block = encoded_block(gate, ENC3, ("0", "1", "a"))
    bare = bare_composite_four(theta, phi)
    assert frobenius_distance(block, bare) < 1e-10
    assert frobenius_distance(block, logical_rotation_target(theta, phi)) < 1e-10


def test_logical_composite_block_tracks_error_model(rng):
    for _ in range(5):
        theta = rng.uniform(0.2, math.pi - 0.2)
        phi = rng.uniform(0, 2 * math.pi)
        error = (rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        gate = logical_composite_gate(theta, phi, error)
        block = encoded_block(gate, ENC3, ("0", "1", "a"))
        bare = bare_composite_four(theta, phi, error)
        assert frobenius_distance(block, bare) < 1e-9


def test_two_logical_gate_is_block_structured():
    gate = dfs.two_logical_composite_gate(math.pi / 4, 0.0)
    assert is_unitary(gate)
    assert complement_is_identity(gate, ENC6)
    block_a = [ENC6.index(n) for n in ("00", "01", "a1")]
    block_b = [ENC6.index(n) for n in ("10", "11", "a2")]
    cross = gate[np.ix_(block_a, block_b)]
    assert np.linalg.norm(cross) < 1e-10


def test_two_logical_trivial_angle_gives_product_gate():
    gate = dfs.two_logical_composite_gate(0.0, 0.0)
    block = encoded_block(gate, ENC6, ("00", "01", "10", "11"))
    minus_zz = -np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    assert frobenius_distance(block, minus_zz) < 1e-10
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


@pytest.mark.parametrize("n_samples", [2.5, True, "3"])
def test_a_sample_count_that_is_not_an_integer_is_rejected(n_samples):
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        DephasingChannel(0.5, n_samples=n_samples)


def test_a_numpy_integer_sample_count_is_accepted():
    channel = DephasingChannel(0.5, n_samples=np.int64(3))
    assert dfs.idle_contrast_run(plus_state(ENC3, "0", "1"), channel, 8, seed=0).shape == (3,)


def test_channel_characteristic_values():
    ch_u = DephasingChannel(0.5, "uniform")
    assert ch_u.characteristic(0.0) == 1.0
    assert abs(ch_u.characteristic(2.0) - math.sin(1.0) / 1.0) < 1e-14
    ch_g = DephasingChannel(0.5, "gaussian")
    assert abs(ch_g.characteristic(2.0) - math.exp(-0.5)) < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_closed_form_saturates_where_kappa_times_the_level_distance_overflows(distribution):
    # kappa * 6 is past the float range: each characteristic is exactly 0 there,
    # so only sum_j p_j^2 = 1/2 is left
    psi = (dfs.register_ket("000000") + dfs.register_ket("111111")) / math.sqrt(2)
    value = dfs.idle_contrast_closed_form(psi, DephasingChannel(1e308, distribution, 10), 1)
    assert abs(value - 0.5) < 1e-15


def test_zero_noise_channel_is_transparent():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.0, n_samples=50)
    fids = dfs.kicked_schedule_fidelities(
        dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, seed=1
    )
    assert np.max(np.abs(fids - 1.0)) < 1e-14


def test_encoded_state_survives_every_realization():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.5, n_samples=200)
    fids = dfs.kicked_schedule_fidelities(
        dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, seed=7
    )
    assert np.max(np.abs(fids - 1.0)) < 1e-12


def test_dephasing_is_seed_deterministic():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.5, n_samples=20)
    schedule = dfs.logical_composite_schedule(0.7, 0.1)
    a = dfs.kicked_schedule_fidelities(schedule, psi, channel, seed=42)
    b = dfs.kicked_schedule_fidelities(schedule, psi, channel, seed=42)
    assert np.array_equal(a, b)


def test_protection_run_draws_the_encoded_kicks_at_seed_and_the_bare_at_seed_plus_one():
    channel = DephasingChannel(0.6, "gaussian", n_samples=30)
    schedule = dfs.logical_composite_schedule(0.7, 0.1)
    encoded, bare, exact = dfs.protection_run(schedule, channel, 5)
    psi_raw = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    expected = dfs.kicked_schedule_fidelities(schedule, plus_state(ENC3, "0", "1"), channel, 5)
    assert np.array_equal(encoded, expected)
    assert np.array_equal(bare, dfs.idle_contrast_run(psi_raw, channel, 8, 6))
    assert exact == dfs.idle_contrast_closed_form(psi_raw, channel, 8)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        dfs.protection_run(schedule, channel, -1)


def _bare_plus():
    return (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)


KERNELS = {
    "kicked": (
        lambda psi, channel: dfs.kicked_schedule_fidelities(dfs.logical_composite_schedule(0.7, 0.1), psi, channel, 0),
        lambda: plus_state(ENC3, "0", "1"),
    ),
    "idle": (lambda psi, channel: dfs.idle_contrast_run(psi, channel, 8, 0), _bare_plus),
    "closed_form": (lambda psi, channel: dfs.idle_contrast_closed_form(psi, channel, 8), _bare_plus),
}


def _with_nan(psi):
    psi = psi.astype(complex)
    psi[0] = math.nan
    return psi


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "spoil, norm2",
    [(lambda psi: 2 * psi, "4$"), (lambda psi: 0 * psi, "0$"), (_with_nan, "nan$")],
    ids=["2psi", "0psi", "nan"],
)
def test_every_kick_kernel_rejects_a_state_that_is_not_a_unit_vector(kernel, spoil, norm2):
    run, state = KERNELS[kernel]
    channel = DephasingChannel(0.5, n_samples=20)
    run(state(), channel)  # the unit vector runs
    with pytest.raises(ValueError, match=f"unit vector, got squared norm {norm2}"):
        run(spoil(state()), channel)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kick_kernel_rejects_an_overflowing_state_without_a_warning(kernel):
    # each squared amplitude overflows to inf, and an inf norm is not 1
    run, state = KERNELS[kernel]
    with pytest.raises(ValueError, match="unit vector, got squared norm inf$"):
        run(1e200 * state(), DephasingChannel(0.5, n_samples=20))


def test_idle_contrast_closed_form_trivia():
    channel = DephasingChannel(0.7)
    assert abs(dfs.idle_contrast_closed_form(dfs.register_ket("101"), channel, 5) - 1.0) < 1e-14
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    assert abs(dfs.idle_contrast_closed_form(psi, channel, 0) - 1.0) < 1e-14


def test_idle_contrast_matches_frozen_reference():
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    value = dfs.idle_contrast_closed_form(psi, DephasingChannel(0.5, "uniform"), 8)
    assert abs(value - CONTRAST_UNIFORM_HALF_8_KICKS) < 1e-12


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_idle_contrast_monte_carlo_agrees_with_closed_form(distribution):
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    channel = DephasingChannel(0.5, distribution, n_samples=4000)
    fids = dfs.idle_contrast_run(psi, channel, n_kicks=8, seed=11)
    exact = dfs.idle_contrast_closed_form(psi, channel, n_kicks=8)
    std_error = np.std(fids, ddof=1) / math.sqrt(len(fids))
    assert abs(np.mean(fids) - exact) < 4 * std_error
    assert np.mean(fids) < 0.95


def test_std_error_of_single_sample_is_zero(tmp_path, capsys):
    # one sample has no spread to estimate, where ddof=1 would divide by zero
    config = tmp_path / "dfs.json"
    config.write_text(json.dumps({"kappa": 0.5, "n_samples": 1}))
    assert cli.main(["dfs", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["unencoded_std_error"] == 0.0


def collective_z_table(n_ions):
    return np.array([n_ions - 2 * bin(i).count("1") for i in range(2**n_ions)], dtype=float)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


KICKED_REGISTERS = {
    "three_ion": (lambda: dfs.logical_composite_schedule(0.7, 0.2, (0.05, -0.03)), 3),
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
        # the benchmark's path: the encoded plus-state, on one collective level
        ("three_ion_encoded", "uniform", 0.8, 300),
        # kick angles up to 60, so level phases up to 180
        ("six_ion", "uniform", 60.0, 200),
    ],
)
def test_batched_kicked_run_matches_per_sample_loop(rng, register, distribution, kappa, n_samples):
    encoded = register.endswith("_encoded")
    build, n_ions = KICKED_REGISTERS[register.removesuffix("_encoded")]
    schedule = build()
    psi = plus_state(ENC3, "0", "1") if encoded else random_state(rng, 2**n_ions)
    channel = DephasingChannel(kappa, distribution, n_samples)
    fids = dfs.kicked_schedule_fidelities(schedule, psi, channel, 17)
    phis = channel.draw(np.random.default_rng(17), (n_samples, schedule.n_segments))
    propagators = [eigh_expm(g, a) for g, a in zip(schedule.generators, schedule.areas)]
    expected = kicked_fidelities_loop(propagators, psi, phis, collective_z_table(n_ions))
    assert fids.shape == (n_samples,)
    assert np.max(np.abs(fids - expected)) < 1e-13
    if encoded:
        # every kick is a global phase of the encoded state
        assert np.max(np.abs(expected - 1)) < 1e-13
    elif kappa > 0 and n_samples > 1:
        assert expected.min() < 0.99


IDLE_CASES = [
    (3, "uniform", 0.5, 8, 500, False),
    (3, "gaussian", 0.5, 8, 500, False),
    (3, "uniform", 0.0, 8, 50, False),
    (3, "uniform", 0.5, 0, 50, False),
    (3, "gaussian", 0.9, 3, 1, False),
    (6, "uniform", 0.5, 4, 200, False),
    # every weight on the three states with one ion in "1", one collective level
    (3, "uniform", 0.9, 8, 50, True),
]


@pytest.mark.parametrize(
    "n_ions, distribution, kappa, n_kicks, n_samples, one_level",
    IDLE_CASES,
    ids=["-".join(map(str, case[:5])) + ("-one_level" if case[5] else "") for case in IDLE_CASES],
)
def test_batched_idle_run_matches_per_sample_loop(rng, n_ions, distribution, kappa, n_kicks, n_samples, one_level):
    psi = random_state(rng, 2**n_ions)
    if one_level:
        psi[collective_z_table(n_ions) != n_ions - 2] = 0
        psi /= np.linalg.norm(psi)
    channel = DephasingChannel(kappa, distribution, n_samples)
    fids = dfs.idle_contrast_run(psi, channel, n_kicks, seed=23)
    phis = channel.draw(np.random.default_rng(23), (n_samples, n_kicks))
    expected = kicked_fidelities_loop([], psi, phis, collective_z_table(n_ions))
    assert fids.shape == (n_samples,)
    assert np.max(np.abs(fids - expected)) < 1e-13
    if one_level:
        assert np.max(np.abs(fids - 1)) < 1e-13
    elif kappa > 0 and n_kicks > 0 and n_samples > 1:
        assert expected.min() < 0.99


@pytest.mark.parametrize("register", sorted(KICKED_REGISTERS))
def test_kicked_run_holds_the_kick_angles_and_a_few_sample_vectors(register):
    # the reduced run keeps no state array: its working set does not grow with the register
    build, n_ions = KICKED_REGISTERS[register]
    schedule, n_samples = build(), 4000
    psi = np.full(2**n_ions, 2 ** (-n_ions / 2), dtype=complex)
    channel = DephasingChannel(0.8, "gaussian", n_samples)
    run = lambda: dfs.kicked_schedule_fidelities(schedule, psi, channel, 3)
    run()  # module-level caches fill outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_samples * (schedule.n_segments + 6)


# A level of each register that no generator couples, with a collective-z
# level different from the encoded one.
UNCOUPLED_LEVEL = {"three_ion": "000", "six_ion": "111000"}


@pytest.mark.parametrize("register", sorted(KICKED_REGISTERS))
def test_kicked_run_carries_weight_on_uncoupled_levels(rng, register):
    build, n_ions = KICKED_REGISTERS[register]
    schedule = build()
    encoding = ENC3 if n_ions == 3 else ENC6
    encoded = [encoding.index(name) for name in encoding.logical_labels]
    psi = np.zeros(2**n_ions, dtype=complex)
    psi[encoded] = random_state(rng, 2**n_ions)[encoded]
    psi[int(UNCOUPLED_LEVEL[register], 2)] = 0.6
    psi /= np.linalg.norm(psi)
    channel = DephasingChannel(0.7, "uniform", 200)
    fids = dfs.kicked_schedule_fidelities(schedule, psi, channel, 5)
    phis = channel.draw(np.random.default_rng(5), (200, schedule.n_segments))
    propagators = [eigh_expm(g, a) for g, a in zip(schedule.generators, schedule.areas)]
    expected = kicked_fidelities_loop(propagators, psi, phis, collective_z_table(n_ions))
    assert np.max(np.abs(fids - expected)) < 1e-13
    # the kicks dephase the uncoupled weight against the encoded part
    assert expected.min() < 0.99


def test_a_kick_phase_past_the_float_range_raises():
    # |000000> sits on one collective level, so its fidelity is exactly 1 at
    # any finite angles, as in the idle run; 6 Phi past 3e307 overflows the
    # pair of |000000> and |111111>
    schedule = dfs.two_logical_composite_schedule(0.6, 0.3)
    channel = DephasingChannel(7e307, "uniform", 20)
    fids = dfs.kicked_schedule_fidelities(schedule, dfs.register_ket("000000"), channel, 0)
    assert np.all(fids == 1)
    psi = (dfs.register_ket("000000") + dfs.register_ket("111111")) / math.sqrt(2)
    channel = DephasingChannel(5e307, "uniform", 20)
    with pytest.raises(FloatingPointError, match="summed kick angles overflow at kappa=5e\\+307"):
        dfs.idle_contrast_run(psi, channel, 1, seed=0)


def test_a_kicked_run_past_the_float_range_raises_as_the_idle_run_does():
    schedule = dfs.two_logical_composite_schedule(0.6, 0.3)
    psi = (dfs.register_ket("000000") + dfs.register_ket("111111")) / math.sqrt(2)
    channel = DephasingChannel(5e307, "uniform", 20)
    with pytest.raises(FloatingPointError, match="summed kick angles overflow at kappa=5e\\+307"):
        dfs.kicked_schedule_fidelities(schedule, psi, channel, 0)


def test_a_one_level_idle_run_ignores_an_overflowing_summed_angle():
    # |<psi0|kicked psi0>| = 1 on one collective level whatever the summed angle,
    # even where some of the eight summed angles past 5e307 overflow
    psi = (dfs.register_ket("100") + dfs.register_ket("010") + dfs.register_ket("001")) / math.sqrt(3)
    fids = dfs.idle_contrast_run(psi, DephasingChannel(5e307, "uniform", 200), 8, seed=0)
    assert np.max(np.abs(fids - 1)) < 1e-13


def register_state(rng, register, kind):
    """The encoded plus-state, a random state, or encoded weight plus weight on an uncoupled level."""
    n_ions = KICKED_REGISTERS[register][1]
    encoding = ENC3 if n_ions == 3 else ENC6
    if kind == "encoded":
        return plus_state(encoding, *(("0", "1") if n_ions == 3 else ("00", "11")))
    if kind == "random":
        return random_state(rng, 2**n_ions)
    encoded = [encoding.index(name) for name in encoding.logical_labels]
    psi = np.zeros(2**n_ions, dtype=complex)
    psi[encoded] = random_state(rng, 2**n_ions)[encoded]
    psi[int(UNCOUPLED_LEVEL[register], 2)] = 0.6
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("state", ["encoded", "random", "uncoupled"])
@pytest.mark.parametrize("distribution", dfs.DISTRIBUTIONS)
@pytest.mark.parametrize("register", sorted(KICKED_REGISTERS))
def test_kicked_run_is_the_idle_run_of_the_same_draw(rng, register, distribution, state):
    schedule = KICKED_REGISTERS[register][0]()
    psi = register_state(rng, register, state)
    channel = DephasingChannel(0.9, distribution, 300)
    kicked = dfs.kicked_schedule_fidelities(schedule, psi, channel, 7)
    idle = dfs.idle_contrast_run(psi, channel, schedule.n_segments, 7)
    assert np.array_equal(kicked, idle)


@pytest.mark.parametrize("n_kicks", [-1, 2.5, True])
def test_a_kick_count_that_is_not_a_nonnegative_integer_is_rejected(n_kicks):
    psi = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    channel = DephasingChannel(0.5)
    with pytest.raises(ValueError, match="n_kicks must be a nonnegative integer"):
        dfs.idle_contrast_closed_form(psi, channel, n_kicks)
    with pytest.raises(ValueError, match="n_kicks must be a nonnegative integer"):
        dfs.idle_contrast_run(psi, channel, n_kicks, seed=0)


def test_kicked_run_rejects_a_schedule_that_couples_two_collective_levels():
    # a drive between |000> and |100> does not commute with the kicks, so the
    # summed-angle reduction would not hold
    g = np.zeros((1, 8, 8))
    g[0, 0b000, 0b100] = g[0, 0b100, 0b000] = 1.0
    channel = DephasingChannel(0.5, "uniform", 10)
    with pytest.raises(ValueError, match="couples collective levels \\[2, 3\\]"):
        dfs.kicked_schedule_fidelities(linalg.Schedule(g, [1.0]), dfs.register_ket("000"), channel, 0)


def test_kicked_run_rejects_a_register_size_mismatch():
    schedule = dfs.logical_composite_schedule(0.7, 0.2)
    channel = DephasingChannel(0.5, "uniform", 10)
    psi = ENC3.logical_ket("0")
    # a two-ion and a four-ion state under a three-ion schedule
    with pytest.raises(ValueError, match="schedule and psi0"):
        dfs.kicked_schedule_fidelities(schedule, psi[:4], channel, 0)
    with pytest.raises(ValueError, match="schedule and psi0"):
        dfs.kicked_schedule_fidelities(schedule, np.ones(16) / 4, channel, 0)


@pytest.mark.parametrize("psi", [np.ones(6) / math.sqrt(6), np.ones(1), np.ones((2, 4)) / math.sqrt(8)])
def test_register_size_comes_from_a_power_of_two_state_length(psi):
    # the ion count is log2 of the state length; anything else is not a register state
    channel = DephasingChannel(0.5, "uniform", 10)
    schedule = linalg.Schedule(np.zeros((1,) + (psi.size,) * 2), [1.0])
    with pytest.raises(ValueError, match="2\\*\\*n_ions"):
        dfs.kicked_schedule_fidelities(schedule, psi, channel, 0)
    with pytest.raises(ValueError, match="2\\*\\*n_ions"):
        dfs.idle_contrast_run(psi, channel, 3, seed=0)
    with pytest.raises(ValueError, match="2\\*\\*n_ions"):
        dfs.idle_contrast_closed_form(psi, channel, 3)


def forbid_draw(monkeypatch):
    def fail(self, rng, size):
        raise AssertionError("kick angles drawn")

    monkeypatch.setattr(DephasingChannel, "draw", fail)


@pytest.mark.parametrize("register", sorted(KICKED_REGISTERS))
def test_a_one_level_run_draws_no_kick_angle(monkeypatch, register):
    # the encoded pair sum is its m = 0 term sum_j p_j^2, the value a drawn run returns
    schedule = KICKED_REGISTERS[register][0]()
    psi = register_state(None, register, "encoded")
    channel = DephasingChannel(0.8, "gaussian", 300)
    forbid_draw(monkeypatch)
    fids = dfs.kicked_schedule_fidelities(schedule, psi, channel, 7)
    # on one level the closed form is sum_j p_j^2 too, whatever the kick count
    exact = dfs.idle_contrast_closed_form(psi, channel, schedule.n_segments)
    assert np.array_equal(fids, np.full(300, exact))


def test_the_protection_run_draws_only_for_the_bare_state(monkeypatch):
    forbid_draw(monkeypatch)
    with pytest.raises(AssertionError, match="kick angles drawn"):
        dfs.protection_run(dfs.logical_composite_schedule(math.pi / 4, 0.0), DephasingChannel(0.5), 0)


def test_a_one_level_run_reads_its_value_where_the_draw_would_overflow():
    # a gaussian kappa of 1e308 overflows the draw, which only a state on two levels makes
    channel = DephasingChannel(1e308, "gaussian", 20)
    fids = dfs.idle_contrast_run(plus_state(ENC3, "0", "1"), channel, 8, seed=0)
    assert np.all(fids == fids[0])
    assert abs(fids[0] - 1) < 1e-15
    bare = (dfs.register_ket("000") + dfs.register_ket("100")) / math.sqrt(2)
    with pytest.raises(FloatingPointError, match="kick angles overflow at kappa=1e\\+308"):
        dfs.idle_contrast_run(bare, channel, 8, seed=0)


def test_the_seed_is_checked_when_nothing_is_drawn():
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.5, "uniform", 8)
    with pytest.raises(ValueError):
        dfs.idle_contrast_run(psi, channel, 8, seed=-1)
    with pytest.raises(ValueError):
        dfs.kicked_schedule_fidelities(dfs.logical_composite_schedule(math.pi / 4, 0.0), psi, channel, -1)


def test_a_one_level_run_holds_one_float_vector():
    n_samples = 4000
    psi = plus_state(ENC3, "0", "1")
    channel = DephasingChannel(0.8, "gaussian", n_samples)
    run = lambda: dfs.idle_contrast_run(psi, channel, 8, seed=3)
    run()  # module-level caches fill outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_samples
