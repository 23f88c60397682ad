"""Decoherence-free encodings for ion registers under collective dephasing.

Registers of three (one logical qubit) or six (two logical qubits)
two-level ions are encoded in equal-excitation-number product states, so
a collective phase kick exp(-i phi/2 * sum_i sz_i) multiplies every
encoded basis state by the same phase and the encoded information is
untouched.  Effective three-level Hamiltonians act inside the encoded
subspace with exactly the coupling structure of the bare three-level
system, so each register schedule is a bare composite schedule placed
on the encoded levels, and the composite-gate recipes run unchanged at
the logical level.  Such a schedule keeps each collective level, so it
commutes with the kicks: a kicked run depends only on its summed angle.

Bitstring convention: ion 1 is the leftmost character, and a bitstring
indexes the register basis as a big-endian binary integer.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import linalg, qutrit, scaling

THREE_ION_LABELS = {"0": "100", "1": "001", "a": "010"}
SIX_ION_LABELS = {
    "00": "100100",
    "01": "100001",
    "10": "001100",
    "11": "001001",
    "a1": "101000",
    "a2": "000101",
}


def register_ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


@dataclass(frozen=True)
class DfsEncoding:
    """Named logical levels mapped to register bitstrings of equal weight, read-only."""

    n_ions: int
    logical_labels: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "logical_labels", MappingProxyType(dict(self.logical_labels)))
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
        return int(self.logical_labels[name], 2)

    def logical_ket(self, name: str) -> np.ndarray:
        return register_ket(self.logical_labels[name])


@functools.cache
def three_ion_encoding() -> DfsEncoding:
    return DfsEncoding(3, THREE_ION_LABELS)


@functools.cache
def six_ion_encoding() -> DfsEncoding:
    return DfsEncoding(6, SIX_ION_LABELS)


def _embedded(schedule: linalg.Schedule, encoding: DfsEncoding, blocks) -> linalg.Schedule:
    """A bare three-level schedule copied onto each block of named levels, zero elsewhere.

    The copies share the areas, and no element joins two blocks.
    """
    g = np.zeros((schedule.n_segments, encoding.dim, encoding.dim), dtype=complex)
    for names in blocks:
        levels = np.array([encoding.index(name) for name in names])
        g[:, levels[:, None], levels] = schedule.generators
    return linalg.Schedule(g, schedule.areas)


def logical_composite_schedule(
    theta: float, phi: float, model: qutrit.ErrorModel | None = None
) -> linalg.Schedule:
    """Eight-segment three-ion schedule: the four-pulse composite on levels (0, 1, a)."""
    bare = scaling.GATES["composite4"].schedule(theta, phi, None, model)
    return _embedded(bare, three_ion_encoding(), [("0", "1", "a")])


def two_logical_composite_schedule(
    theta: float, phi: float, model: qutrit.ErrorModel | None = None
) -> linalg.Schedule:
    """Four-segment six-ion schedule: the repeated elementary gate on two blocks of levels."""
    bare = scaling.GATES["composite2"].schedule(theta, phi, None, model)
    return _embedded(bare, six_ion_encoding(), [("00", "01", "a1"), ("11", "10", "a2")])


def two_logical_composite_gate(
    theta: float, phi: float, model: qutrit.ErrorModel | None = None
) -> np.ndarray:
    """Repeated-elementary composite on the six-ion register.

    The two three-level blocks see mirrored drive frames, so the logical
    action is a direct sum of two reflections: for theta = 0 it reduces
    to the product gate -Z x Z, while generic angles give an entangling
    diagonal-block pair.
    """
    return linalg.evolve(two_logical_composite_schedule(theta, phi, model))


DISTRIBUTIONS = ("uniform", "gaussian")


@dataclass(frozen=True)
class DephasingChannel:
    """Collective phase-kick noise: one random angle hits every ion at once."""

    kappa: float
    distribution: str = "uniform"
    n_samples: int = 1000

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and nonnegative")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not isinstance(self.n_samples, numbers.Integral) or isinstance(self.n_samples, bool):
            raise ValueError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def overflow_error(self, what: str = "kick angles") -> FloatingPointError:
        return FloatingPointError(f"{what} overflow at kappa={self.kappa!r} ({self.distribution} distribution)")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Kick angles; FloatingPointError if kappa is too large to draw them."""
        try:
            if self.distribution == "uniform":
                phis = rng.uniform(-self.kappa, self.kappa, size=size)
            else:
                phis = rng.normal(0.0, self.kappa, size=size)
        except OverflowError as exc:
            raise self.overflow_error() from exc
        if not np.isfinite(phis).all():
            raise self.overflow_error()
        return phis

    def characteristic(self, t: float) -> float:
        """E[cos(phi t)] for one kick angle phi."""
        # float products saturate at inf, where both characteristics are exactly 0
        x = self.kappa * float(t)
        if self.distribution == "uniform":
            return float(np.sinc(x / math.pi)) if math.isfinite(x) else 0.0
        return math.exp(-0.5 * x * x)


@functools.cache
def _levels(n_ions: int) -> np.ndarray:
    """Collective-z level n_ions - w of each basis state with w ions in "1", by index.

    Level j has sum_i sz_i eigenvalue 2j - n_ions, so a kick by angle phi
    multiplies it by exp(-i phi (2j - n_ions) / 2).
    """
    levels = n_ions - np.array([bin(i).count("1") for i in range(2**n_ions)])
    levels.flags.writeable = False
    return levels


def _pair_sum(pops: np.ndarray, t, shape=()):
    """sum_jk p_j p_k t(k - j) = sum_j p_j^2 + 2 sum_{j<k} p_j p_k t(k - j), of the given shape.

    With p_j the population of collective-z level j and t(m) = cos(m Phi),
    this is |<psi0|kicked psi0>|^2 after kicks summing to Phi.  The m = 0
    term is exactly sum_j p_j^2 (t(0) = 1 even where m Phi is not finite),
    and t runs once for each nonzero level distance m that occurs.
    """
    weights = np.correlate(pops, pops, "full")[pops.size - 1:]  # sum_j p_j p_{j+m}
    value = np.full(shape, weights[0])
    for m in np.flatnonzero(weights[1:]) + 1:
        value += 2 * weights[m] * t(m)
    return value


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


def _n_ions(psi0: np.ndarray) -> int:
    """Ions in a register from the length 2**n_ions of its state vector."""
    n_ions = psi0.size.bit_length() - 1
    if psi0.ndim != 1 or n_ions < 1 or psi0.size != 2**n_ions:
        raise ValueError(f"a register state has 2**n_ions entries, got shape {psi0.shape}")
    return n_ions


def _populations(psi0) -> np.ndarray:
    """Population of each collective-z level of a register state, a unit vector."""
    psi0 = np.asarray(psi0)
    with np.errstate(over="ignore"):  # an overflowed square sums to inf, which is not 1
        pops = np.bincount(_levels(_n_ions(psi0)), np.abs(psi0) ** 2)
    if not abs(pops.sum() - 1) <= 1e-10:  # the bound trace_evolution sets; NaN fails it too
        raise ValueError(f"a register state is a unit vector, got squared norm {pops.sum():.6g}")
    return pops


def _check_n_kicks(n_kicks) -> None:
    if not isinstance(n_kicks, numbers.Integral) or n_kicks < 0:
        raise ValueError(f"n_kicks must be a nonnegative integer, got {n_kicks!r}")


def kicked_schedule_fidelities(
    schedule: linalg.Schedule, psi0, channel: DephasingChannel, seed: int
) -> DephasingResult:
    """State fidelities of kick-interleaved runs against the clean run.

    One kick follows every segment of an unbatched schedule; fidelity is the
    phase-insensitive overlap squared with the kick-free run U psi0.  A
    schedule that couples two collective levels raises ValueError; any other
    commutes with every collective kick D(phi) = exp(-i phi S_z / 2), so the
    kicked run is U D(Phi) psi0 for the summed angle Phi: the idle run of psi0.
    """
    if schedule.generators.ndim != 3 or schedule.areas.ndim != 1:
        raise ValueError("kicks follow one schedule, not a batch")
    psi0 = np.asarray(psi0)
    n_ions = _n_ions(psi0)
    if schedule.generators.shape[-1] != psi0.size:
        raise ValueError(f"schedule and psi0 must act on the {psi0.size} levels of {n_ions} ions")
    level = _levels(n_ions)
    rows, cols = np.nonzero(schedule.generators.any(axis=0))
    mixed = level[rows] != level[cols]
    if mixed.any():
        coupled = sorted({*level[rows[mixed]].tolist(), *level[cols[mixed]].tolist()})
        raise ValueError(f"the schedule couples collective levels {coupled}, which collective kicks dephase")
    return idle_contrast_run(psi0, channel, schedule.n_segments, seed)


def idle_contrast_run(psi0, channel: DephasingChannel, n_kicks: int, seed: int) -> DephasingResult:
    """Kicks only, no drive: |<psi0|D(Phi)|psi0>|^2 for each sample's summed kick angle Phi.

    A state on one collective level reads exactly sum_j p_j^2 and draws no
    angle; a seed numpy rejects raises ValueError either way.  A drawn angle
    or a fidelity that is not finite raises the channel's FloatingPointError.
    """
    _check_n_kicks(n_kicks)
    pops = _populations(psi0)
    rng = np.random.default_rng(seed)
    if np.count_nonzero(pops) < 2:  # the pair sum is its m = 0 term alone
        fids = np.full(channel.n_samples, pops @ pops)
    else:
        phis = channel.draw(rng, (channel.n_samples, n_kicks))
        with np.errstate(over="ignore", invalid="ignore"):
            total = phis.sum(axis=1)
            fids = _pair_sum(pops, lambda m: np.cos(m * total), total.shape)
    if not np.isfinite(fids).all():
        raise channel.overflow_error("summed kick angles")
    return DephasingResult(fidelities=fids)


def idle_contrast_closed_form(psi0, channel: DephasingChannel, n_kicks: int) -> float:
    """Exact kick-averaged idle fidelity: each cos(m Phi) averages to E[cos(m phi)]^n_kicks."""
    _check_n_kicks(n_kicks)
    return float(_pair_sum(_populations(psi0), lambda m: channel.characteristic(m) ** n_kicks))


def protection_run(
    schedule: linalg.Schedule, channel: DephasingChannel, seed: int
) -> tuple[DephasingResult, DephasingResult, float]:
    """Dephasing protection on the three-ion register: (encoded, bare, bare closed form).

    The encoded (|0_L> + |1_L>)/sqrt(2) runs the schedule with a kick after
    every segment at ``seed``, on one collective level, so it draws nothing;
    the bare (|000> + |100>)/sqrt(2) idles through as many kicks, drawn at
    ``seed + 1``.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    encoding = three_ion_encoding()
    psi_enc = (encoding.logical_ket("0") + encoding.logical_ket("1")) / math.sqrt(2)
    encoded = kicked_schedule_fidelities(schedule, psi_enc, channel, seed)
    psi_raw = (register_ket("000") + register_ket("100")) / math.sqrt(2)
    unencoded = idle_contrast_run(psi_raw, channel, schedule.n_segments, seed + 1)
    closed_form = idle_contrast_closed_form(psi_raw, channel, schedule.n_segments)
    return encoded, unencoded, closed_form
