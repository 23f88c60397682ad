"""Decoherence-free encodings for ion registers under collective dephasing.

Registers of three (one logical qubit) or six (two logical qubits)
two-level ions are encoded in equal-excitation-number product states, so
a collective phase kick exp(-i phi/2 * sum_i sz_i) multiplies every
encoded basis state by the same phase and the encoded information is
untouched.  Effective three-level Hamiltonians act inside the encoded
subspace with exactly the coupling structure of the bare three-level
system, which lets the composite-gate recipes run unchanged at the
logical level.

Bitstring convention: ion 1 is the leftmost character, and a bitstring
indexes the register basis as a big-endian binary integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, qutrit

THREE_ION_LABELS = {"0": "100", "1": "001", "a": "010"}
SIX_ION_LABELS = {
    "00": "100100",
    "01": "100001",
    "10": "001100",
    "11": "001001",
    "a1": "101000",
    "a2": "000101",
}


def bit_index(bits: str) -> int:
    return int(bits, 2)


def register_ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[bit_index(bits)] = 1.0
    return v


def collective_z_eigenvalue(bits: str) -> int:
    """Eigenvalue of sum_i sz_i on a product state (0 counts +1, 1 counts -1)."""
    return len(bits) - 2 * bits.count("1")


@dataclass(frozen=True)
class DfsEncoding:
    """Named logical levels mapped to register bitstrings of equal weight."""

    n_ions: int
    logical_labels: dict[str, str] = field(hash=False)

    def __post_init__(self):
        weights = {b.count("1") for b in self.logical_labels.values()}
        if len(weights) != 1:
            raise ValueError("encoded bitstrings must share one excitation number")
        for b in self.logical_labels.values():
            if len(b) != self.n_ions or set(b) - {"0", "1"}:
                raise ValueError(f"bad bitstring {b!r} for {self.n_ions} ions")

    @property
    def dim(self) -> int:
        return 2**self.n_ions

    def index(self, name: str) -> int:
        return bit_index(self.logical_labels[name])

    def logical_ket(self, name: str) -> np.ndarray:
        return register_ket(self.logical_labels[name])

    def projector(self) -> np.ndarray:
        p = np.zeros((self.dim, self.dim), dtype=complex)
        for b in self.logical_labels.values():
            i = bit_index(b)
            p[i, i] = 1.0
        return p


def three_ion_encoding() -> DfsEncoding:
    return DfsEncoding(3, dict(THREE_ION_LABELS))


def six_ion_encoding() -> DfsEncoding:
    return DfsEncoding(6, dict(SIX_ION_LABELS))


def dfs_membership_check(vector, encoding: DfsEncoding, tol: float = 1e-10) -> bool:
    """True iff the vector lies in the encoded span up to tolerance."""
    v = np.asarray(vector, dtype=complex)
    if v.shape != (encoding.dim,):
        raise ValueError(f"expected a vector of dimension {encoding.dim}")
    residual = v - encoding.projector() @ v
    return linalg.norm(residual) <= tol


def h1_effective(
    omega12_sq: float,
    omega23_sq: float,
    phi12: float,
    phi23: float,
    coupling_prefactor: float = 1.0,
) -> np.ndarray:
    """Effective three-ion Hamiltonian acting inside the one-qubit encoding.

    Couples the logical ancilla to |0>_L with weight +|Omega12|^2 e^{i phi12}
    and to |1>_L with weight -|Omega23|^2 e^{i phi23}, everything scaled by
    the opaque second-order prefactor.  All other register states are
    annihilated.
    """
    if coupling_prefactor <= 0:
        raise ValueError("coupling prefactor must be positive")
    enc = THREE_ION_LABELS
    h = np.zeros((8, 8), dtype=complex)
    a = bit_index(enc["a"])
    h[a, bit_index(enc["0"])] = coupling_prefactor * omega12_sq * np.exp(1j * phi12)
    h[a, bit_index(enc["1"])] = -coupling_prefactor * omega23_sq * np.exp(1j * phi23)
    return h + linalg.dagger(h)


def h2_effective(
    omega34_sq: float,
    omega36_sq: float,
    phi34: float,
    phi36: float,
    coupling_prefactor: float = 1.0,
) -> np.ndarray:
    """Effective six-ion Hamiltonian: two independent three-level blocks.

    One drive couples a1<->00 and a2<->11 (weight +|Omega34|^2 e^{i phi34}),
    the other a1<->01 and a2<->10 (weight -|Omega36|^2 e^{i phi36}).  No
    matrix element connects the two blocks.
    """
    if coupling_prefactor <= 0:
        raise ValueError("coupling prefactor must be positive")
    enc = SIX_ION_LABELS
    h = np.zeros((64, 64), dtype=complex)
    g34 = coupling_prefactor * omega34_sq * np.exp(1j * phi34)
    g36 = coupling_prefactor * omega36_sq * np.exp(1j * phi36)
    h[bit_index(enc["a1"]), bit_index(enc["00"])] = g34
    h[bit_index(enc["a2"]), bit_index(enc["11"])] = g34
    h[bit_index(enc["a1"]), bit_index(enc["01"])] = -g36
    h[bit_index(enc["a2"]), bit_index(enc["10"])] = -g36
    return h + linalg.dagger(h)


def _register_schedule(h_effective, pulse_list, prefactor: float) -> linalg.Schedule:
    """Two-field pulses driven through a register's effective Hamiltonian.

    Sign and conjugation bookkeeping chosen so the encoded block matches
    the bare three-level generator entry for entry.
    """
    gens = [
        h_effective(p.amp0 / prefactor, p.amp1 / prefactor, -p.phase0, math.pi - p.phase1, prefactor)
        for p in pulse_list
    ]
    return linalg.Schedule(np.array(gens), [p.duration for p in pulse_list])


def logical_composite_schedule(
    theta: float,
    phi: float,
    model: qutrit.ErrorModel | None = None,
    coupling_prefactor: float = 1.0,
) -> linalg.Schedule:
    """Eight-segment register schedule realizing the four-pulse composite."""
    pulse_list = qutrit.composite_four_field_pulses(theta, phi, model)
    return _register_schedule(h1_effective, pulse_list, coupling_prefactor)


def two_logical_composite_schedule(
    theta: float,
    phi: float,
    model: qutrit.ErrorModel | None = None,
    coupling_prefactor: float = 1.0,
) -> linalg.Schedule:
    """Four-segment six-ion schedule: the repeated elementary gate per block."""
    pulse_list = qutrit.composite_two_field_pulses(theta, phi, model)
    return _register_schedule(h2_effective, pulse_list, coupling_prefactor)


def two_logical_composite_gate(
    theta: float,
    phi: float,
    model: qutrit.ErrorModel | None = None,
    coupling_prefactor: float = 1.0,
) -> np.ndarray:
    """Repeated-elementary composite on the six-ion register.

    The two three-level blocks see mirrored drive frames, so the logical
    action is a direct sum of two reflections: for theta = 0 it reduces
    to the product gate -Z x Z, while generic angles give an entangling
    diagonal-block pair.
    """
    return linalg.evolve(two_logical_composite_schedule(theta, phi, model, coupling_prefactor))


@dataclass(frozen=True)
class DephasingChannel:
    """Collective phase-kick noise: one random angle hits every ion at once."""

    kappa: float
    distribution: str = "uniform"
    n_samples: int = 1000

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and nonnegative")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.distribution == "uniform":
            return rng.uniform(-self.kappa, self.kappa, size=size)
        return rng.normal(0.0, self.kappa, size=size)

    def characteristic(self, t: float) -> float:
        """E[cos(phi t)] for one kick angle phi."""
        if self.distribution == "uniform":
            x = self.kappa * t
            return float(np.sinc(x / math.pi))
        return math.exp(-0.5 * (self.kappa * t) ** 2)


def _collective_z(n_ions: int) -> np.ndarray:
    """sum_i sz_i eigenvalue of every register basis state, in index order."""
    return np.array(
        [
            collective_z_eigenvalue(format(i, f"0{n_ions}b"))
            for i in range(2**n_ions)
        ],
        dtype=float,
    )


@dataclass(frozen=True)
class DephasingResult:
    fidelities: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.fidelities))

    @property
    def std_error(self) -> float:
        n = len(self.fidelities)
        if n < 2:
            return 0.0
        return float(np.std(self.fidelities, ddof=1) / math.sqrt(n))


def kicked_schedule_fidelities(
    schedule: linalg.Schedule,
    psi0,
    channel: DephasingChannel,
    rng: np.random.Generator,
    n_ions: int,
) -> DephasingResult:
    """State fidelities of kick-interleaved runs against the clean run.

    One kick follows every segment of an unbatched schedule.  Fidelity is
    the phase-insensitive overlap squared with the kick-free final state.
    """
    if schedule.generators.ndim != 3 or schedule.areas.ndim != 1:
        raise ValueError("kicks follow one schedule, not a batch")
    psi0 = np.asarray(psi0, dtype=complex)
    propagators = linalg.exponentials(schedule)

    clean = psi0.copy()
    for u in propagators:
        clean = u @ clean

    # Every kick sample is one row of a (n_samples, dim) state array; the
    # rows evolve together and two buffers are swapped for the whole run.
    lam = _collective_z(n_ions)
    phis = channel.draw(rng, (channel.n_samples, len(propagators)))
    states = np.tile(psi0, (channel.n_samples, 1))
    scratch = np.empty_like(states)
    for k, u in enumerate(propagators):
        np.matmul(states, u.T, out=scratch)
        states, scratch = scratch, states
        # kick phase exp(-i phi lam / 2) from its cosine and sine, which is
        # about a third cheaper than a complex exp of the same array
        np.multiply(phis[:, k, None], -0.5 * lam, out=scratch.real)
        np.sin(scratch.real, out=scratch.imag)
        np.cos(scratch.real, out=scratch.real)
        states *= scratch
    fids = np.abs(states @ clean.conj()) ** 2
    return DephasingResult(fidelities=fids)


def apply_collective_dephasing(
    schedule,
    psi0,
    channel: DephasingChannel,
    encoding: DfsEncoding,
    seed: int,
) -> DephasingResult:
    """Kick-interleaved run for an encoded initial state.

    Rejects initial states outside the encoded subspace; use
    ``kicked_schedule_fidelities`` directly for unencoded contrast runs.
    """
    if not dfs_membership_check(psi0, encoding, 1e-10):
        raise ValueError("initial state is not inside the encoded subspace")
    rng = np.random.default_rng(seed)
    return kicked_schedule_fidelities(schedule, psi0, channel, rng, encoding.n_ions)


def idle_contrast_run(
    psi0, channel: DephasingChannel, n_kicks: int, n_ions: int, seed: int
) -> DephasingResult:
    """Kicks only, no drive: the bare-register reference experiment."""
    rng = np.random.default_rng(seed)
    psi0 = np.asarray(psi0, dtype=complex)
    lam = _collective_z(n_ions)
    phis = channel.draw(rng, (channel.n_samples, n_kicks))
    states = np.multiply(phis.sum(axis=1)[:, None], -0.5j * lam)
    np.exp(states, out=states)
    states *= psi0
    fids = np.abs(states @ psi0.conj()) ** 2
    return DephasingResult(fidelities=fids)


def idle_contrast_closed_form(
    psi0, channel: DephasingChannel, n_kicks: int, n_ions: int
) -> float:
    """Exact kick-averaged fidelity of an idle register.

    With population |c_s|^2 on collective-z eigenvalue lambda_s, the
    average over independent kicks factorizes into characteristic
    functions: F = sum_st |c_s|^2 |c_t|^2 E[cos(phi (l_s - l_t)/2)]^K.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    lam = _collective_z(n_ions)
    pops = np.abs(psi0) ** 2
    keep = pops > 0
    pops, lam = pops[keep], lam[keep]
    total = 0.0
    for ps, ls in zip(pops, lam):
        for pt, lt in zip(pops, lam):
            total += ps * pt * channel.characteristic((ls - lt) / 2.0) ** n_kicks
    return float(total)
