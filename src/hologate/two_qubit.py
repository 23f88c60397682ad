"""Two-qubit holonomic gates on a five-level model space.

The working basis is (|00>, |01>, |10>, |11>, |a>) where |a> is an
ancillary level orthogonal to the computational span.  A drive couples
one chosen computational state |jk> to |a>, reusing the one-qubit
two-segment recipe with |jk> playing the bright state.  Squaring the
elementary gate yields a diagonal entangling gate (CZ-class for jk=11).

The error model is a single fractional deviation eps_jk of the one
active Rabi frequency: with only one field there is no analog of the
bright-angle tilt, so the repetition alone cancels the leading error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pulses
from .pulses import PulseSegment

DIM = 5
COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
ANCILLA_LABEL = "a"
LABELS = COMPUTATIONAL_LABELS + (ANCILLA_LABEL,)

HALF_PI = math.pi / 2


def label_index(label: str) -> int:
    try:
        return LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown level label {label!r}") from None


def ket(label: str) -> np.ndarray:
    v = np.zeros(DIM, dtype=complex)
    v[label_index(label)] = 1.0
    return v


@dataclass(frozen=True)
class TwoQubitErrorModel:
    """Fractional deviation of the single active Rabi frequency."""

    eps_jk: float

    def __post_init__(self):
        if not abs(self.eps_jk) < 1:
            raise ValueError(f"|eps_jk| must be < 1, got {self.eps_jk}")


def coupling_hamiltonian(
    jk: str,
    lm: str,
    omega_jk: float,
    phi_jk: float,
    omega_lm: float,
    phi_lm: float,
) -> np.ndarray:
    """Drive coupling two computational states to the ancilla.

    Returns Omega_jk e^{i phi_jk} |jk><a| + Omega_lm e^{i phi_lm} |lm><a|
    plus Hermitian conjugate.
    """
    if jk not in COMPUTATIONAL_LABELS or lm not in COMPUTATIONAL_LABELS:
        raise ValueError("jk and lm must be computational labels")
    if jk == lm:
        raise ValueError("jk and lm must differ")
    a = label_index(ANCILLA_LABEL)
    h = np.zeros((DIM, DIM), dtype=complex)
    h[label_index(jk), a] = omega_jk * np.exp(1j * phi_jk)
    h[label_index(lm), a] = omega_lm * np.exp(1j * phi_lm)
    return h + linalg.dagger(h)


def segment_generator(jk: str, phi0: float) -> np.ndarray:
    """Single-field generator e^{i phi0}|jk><a| + h.c. at unit envelope."""
    if jk not in COMPUTATIONAL_LABELS:
        raise ValueError(f"{jk!r} is not a computational label")
    a = label_index(ANCILLA_LABEL)
    h = np.zeros((DIM, DIM), dtype=complex)
    h[label_index(jk), a] = np.exp(1j * phi0)
    return h + linalg.dagger(h)


DEFAULT_SEGMENTS = (
    PulseSegment(area=HALF_PI, phi0=HALF_PI),
    PulseSegment(area=HALF_PI, phi0=0.0),
)


def gate_schedule(
    jk: str, model: TwoQubitErrorModel | None = None, segments=DEFAULT_SEGMENTS
) -> list[tuple[np.ndarray, float]]:
    """(generator, area) pairs for one elementary gate, first in time first."""
    stretch = 1.0 + (model.eps_jk if model else 0.0)
    return [(segment_generator(jk, seg.phi0), stretch * seg.area) for seg in segments]


def error_gates(jk: str, models, segments=DEFAULT_SEGMENTS) -> np.ndarray:
    """Elementary gates for a sequence of error models (None for no error).

    Each model stretches every segment area by 1 + eps_jk; all gates come
    from one ``linalg.evolve`` call.  Returns shape (len(models), 5, 5).
    """
    segments = pulses.elementary_segments(segments)
    stretch = np.array([1.0 + (m.eps_jk if m else 0.0) for m in models])
    gens = np.stack([segment_generator(jk, seg.phi0) for seg in segments])
    return linalg.evolve(*pulses.slice_schedule(gens, segments, stretch))


def elementary_gate(
    jk: str, model: TwoQubitErrorModel | None = None, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Two-segment gate; ideal value -i|a><a| + i|jk><jk| + rest unchanged."""
    return error_gates(jk, (model,), segments)[0]


def composite_gates(jk: str, models, segments=DEFAULT_SEGMENTS) -> np.ndarray:
    """``composite_gate`` for a sequence of error models, shape (len(models), 5, 5)."""
    u = error_gates(jk, models, segments)
    return u @ u


def composite_gate(
    jk: str, model: TwoQubitErrorModel | None = None, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Repeated elementary gate; ideal value flips the sign of |jk> and |a>."""
    return composite_gates(jk, (model,), segments)[0]


def ideal_elementary(jk: str) -> np.ndarray:
    u = np.eye(DIM, dtype=complex)
    u[label_index(jk), label_index(jk)] = 1j
    u[DIM - 1, DIM - 1] = -1j
    return u


def ideal_composite(jk: str) -> np.ndarray:
    u = np.eye(DIM, dtype=complex)
    u[label_index(jk), label_index(jk)] = -1.0
    u[DIM - 1, DIM - 1] = -1.0
    return u


def computational_block(gate: np.ndarray) -> np.ndarray:
    """Restriction of a five-level gate to the computational span."""
    gate = linalg.as_complex_matrix(gate)
    if gate.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} gate, got {gate.shape}")
    return gate[:4, :4]


def operator_schmidt_values(gate: np.ndarray) -> np.ndarray:
    """Singular values of the qubit-qubit realignment of a 4x4 operator."""
    g = linalg.as_complex_matrix(gate)
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    realigned = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return np.linalg.svd(realigned, compute_uv=False)


def entangling_power_check(gate: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff a 4x4 unitary is not a tensor product of one-qubit gates.

    Decided by the operator Schmidt rank: a product gate realigns to a
    rank-one matrix, anything entangling needs at least two terms.
    """
    g = linalg.as_complex_matrix(gate)
    if g.shape != (4, 4) or not linalg.is_unitary(g, 1e-8):
        raise ValueError("entangling check expects a 4x4 unitary")
    values = operator_schmidt_values(g)
    return int(np.sum(values > tol)) > 1
