"""One-qubit holonomic gates on a three-level Lambda system.

Basis ordering is (|0>, |1>, |e>) with |e> the ancillary excited level.
A two-tone drive couples both ground states to |e>; in the rotated frame
only the bright superposition |b> couples, the orthogonal dark state |d>
is a spectator.  Each elementary gate is two back-to-back area-pi/2
segments with drive phases pi/2 then 0, which traces a closed loop of the
computational subspace and imprints a purely geometric unitary.

Pulse-strength errors enter as constant fractional deviations (eps0,
eps1) of the two field amplitudes.  They deform the evolution in two
ways: a common stretch of the overall envelope and a tilt of the bright
angle theta -> theta_prime.  Both the raw two-field form and the
equivalent stretched-and-tilted single-field form are implemented so the
reparametrization can be checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pulses
from .pulses import DEFAULT_SEGMENTS

DIM = 3
IDX_0, IDX_1, IDX_E = 0, 1, 2
BASIS_LABELS = ("0", "1", "e")

HALF_PI = math.pi / 2


def ket(index: int) -> np.ndarray:
    v = np.zeros(DIM, dtype=complex)
    v[index] = 1.0
    return v


@dataclass(frozen=True)
class BrightDarkFrame:
    """Mixing angle theta and relative phase phi of the two-tone drive."""

    theta: float
    phi: float

    @property
    def bright(self) -> np.ndarray:
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        return np.array([c, s * np.exp(1j * self.phi), 0.0], dtype=complex)

    @property
    def dark(self) -> np.ndarray:
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        return np.array([s, -c * np.exp(1j * self.phi), 0.0], dtype=complex)


@dataclass(frozen=True)
class ErrorModel:
    """Constant fractional amplitude deviations of the two drive fields.

    The strict bound |eps| < 1 keeps both scaled amplitudes positive;
    the construction below divides by (1 + eps0) when tilting theta.
    """

    eps0: float
    eps1: float

    def __post_init__(self):
        if not (abs(self.eps0) < 1 and abs(self.eps1) < 1):
            raise ValueError(
                f"error fractions must satisfy |eps| < 1, got ({self.eps0}, {self.eps1})"
            )


@dataclass(frozen=True)
class FieldPulse:
    """One drive segment in raw two-field form.

    amp0/amp1 are the field amplitudes on the |0><e| and |1><e| couplings
    (error factors included), phase0/phase1 their phases, duration the
    nominal unit-envelope time so that area = amp * duration per field.
    """

    amp0: float
    phase0: float
    amp1: float
    phase1: float
    duration: float


def drive_generators(theta, phi: float, phi0) -> np.ndarray:
    """Unit-envelope generators e^{i phi0} |b><e| + h.c., batched.

    ``theta`` (bright angle) and ``phi0`` (drive phase) broadcast against
    each other; the result has their broadcast shape + (3, 3).
    """
    half = 0.5 * np.asarray(theta, dtype=float)
    coupling = np.exp(1j * np.asarray(phi0, dtype=float))
    to_0 = coupling * np.cos(half)
    to_1 = coupling * (np.sin(half) * np.exp(1j * phi))
    h = np.zeros(to_0.shape + (DIM, DIM), dtype=complex)
    h[..., IDX_0, IDX_E] = to_0
    h[..., IDX_1, IDX_E] = to_1
    h[..., IDX_E, IDX_0] = to_0.conj()
    h[..., IDX_E, IDX_1] = to_1.conj()
    return h


def hamiltonian(frame: BrightDarkFrame, omega: float, phi0: float) -> np.ndarray:
    """Drive Hamiltonian Omega * (e^{i phi0} |b><e| + h.c.)."""
    if omega < 0:
        raise ValueError("Rabi envelope value must be nonnegative")
    return omega * drive_generators(frame.theta, frame.phi, phi0)


def field_hamiltonian(pulse: FieldPulse) -> np.ndarray:
    """Hamiltonian with independent amplitudes on the two couplings."""
    h = np.zeros((DIM, DIM), dtype=complex)
    h[IDX_0, IDX_E] = pulse.amp0 * np.exp(1j * pulse.phase0)
    h[IDX_1, IDX_E] = pulse.amp1 * np.exp(1j * pulse.phase1)
    return h + linalg.dagger(h)


def effective_error_params(theta: float, model: ErrorModel) -> tuple[float, float]:
    """Map two-field deviations to (envelope stretch, tilted angle).

    Returns (eps, theta_prime) with
      eps   = sqrt[(1+eps0)^2 cos^2(theta/2) + (1+eps1)^2 sin^2(theta/2)] - 1
      theta_prime chosen on the continuous branch taking [0, pi] to [0, pi].
    """
    a0 = 1.0 + model.eps0
    a1 = 1.0 + model.eps1
    if a0 <= 0:
        raise ValueError("1 + eps0 must be positive")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    eps = math.hypot(a0 * c, a1 * s) - 1.0
    theta_prime = 2.0 * math.atan2(a1 * s, a0 * c)
    return eps, theta_prime


def error_gates(
    frame: BrightDarkFrame, models, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Elementary gates for a sequence of error models (None for no error).

    Stretched-and-tilted form: under each model the envelope integral
    becomes (1+eps) * pi/2 per segment and the drive couples the tilted
    bright state at theta_prime.  All gates come from one ``linalg.evolve``
    call.  Returns shape (len(models), 3, 3).
    """
    segments = pulses.elementary_segments(segments)
    params = np.array(
        [(0.0, frame.theta) if m is None else effective_error_params(frame.theta, m) for m in models]
    ).reshape(-1, 2)
    phi0 = np.array([seg.phi0 for seg in segments])
    gens = drive_generators(params[:, 1, None], frame.phi, phi0)
    return linalg.evolve(pulses.slice_schedule(gens, segments, 1.0 + params[:, 0]))


def elementary_gate(
    frame: BrightDarkFrame, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Ideal elementary gate: -i|e><e| + i|b><b| + |d><d|."""
    return error_gates(frame, (None,), segments)[0]


def elementary_gate_with_error(
    frame: BrightDarkFrame, model: ErrorModel | None, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Error-affected elementary gate in stretched-and-tilted form.

    The envelope integral becomes (1+eps) * pi/2 per segment and the
    drive couples the tilted bright state at theta_prime.
    """
    return error_gates(frame, (model,), segments)[0]


def elementary_field_pulses(
    theta: float, phi: float, model: ErrorModel | None = None
) -> list[FieldPulse]:
    """The two drive segments in raw two-field form, first in time first.

    Segment phases follow the fixed convention phi0 = pi/2 then phi0 = 0;
    the |1><e| field carries the extra relative phase phi.
    """
    e0 = 1.0 + (model.eps0 if model else 0.0)
    e1 = 1.0 + (model.eps1 if model else 0.0)
    amp0 = e0 * math.cos(theta / 2)
    amp1 = e1 * math.sin(theta / 2)
    return [
        FieldPulse(amp0, HALF_PI, amp1, phi + HALF_PI, HALF_PI),
        FieldPulse(amp0, 0.0, amp1, phi, HALF_PI),
    ]


def elementary_gate_direct(
    frame: BrightDarkFrame, model: ErrorModel | None = None
) -> np.ndarray:
    """Error-affected elementary gate evolved from the raw two-field form.

    Companion route to ``elementary_gate_with_error``; the two must agree
    because the reparametrization is an exact algebraic identity.
    """
    return linalg.evolve(fields_schedule(elementary_field_pulses(frame.theta, frame.phi, model)))


def composite_two_gates(
    frame: BrightDarkFrame, models, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """``composite_two`` for a sequence of error models, shape (len(models), 3, 3)."""
    u = error_gates(frame, models, segments)
    return u @ u


def composite_two(
    frame: BrightDarkFrame, model: ErrorModel | None = None, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Two repeated elementary gates; ideal value -|e><e| - |b><b| + |d><d|.

    Repetition cancels the first-order envelope stretch but leaves the
    bright-angle tilt untouched.
    """
    return composite_two_gates(frame, (model,), segments)[0]


def composite_four_gates(
    frame: BrightDarkFrame, models, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """``composite_four`` for a sequence of error models, shape (len(models), 3, 3)."""
    mirrored = BrightDarkFrame(math.pi - frame.theta, frame.phi)
    u_t = error_gates(frame, models, segments)
    u_m = error_gates(mirrored, models, segments)
    return u_t @ u_t @ u_m @ u_m


def composite_four(
    frame: BrightDarkFrame, model: ErrorModel | None = None, segments=DEFAULT_SEGMENTS
) -> np.ndarray:
    """Four-pulse composite: the pi-theta pair acts first, the theta pair last.

    Written as a product it is U_t U_t U_{pi-t} U_{pi-t} with the rightmost
    factor first in time.  The mirrored angle reverses the sign of the
    first-order tilt, so both error channels cancel to leading order.
    """
    return composite_four_gates(frame, (model,), segments)[0]


def composite_two_field_pulses(
    theta: float, phi: float, model: ErrorModel | None = None
) -> list[FieldPulse]:
    return elementary_field_pulses(theta, phi, model) * 2


def composite_four_field_pulses(
    theta: float, phi: float, model: ErrorModel | None = None
) -> list[FieldPulse]:
    """Eight segments in time order: mirrored-angle pair first."""
    return (
        elementary_field_pulses(math.pi - theta, phi, model) * 2
        + elementary_field_pulses(theta, phi, model) * 2
    )


def fields_schedule(pulse_list) -> linalg.Schedule:
    """The two-field pulses in time order, ready for evolution or holonomy tracing."""
    return linalg.Schedule(
        np.array([field_hamiltonian(p) for p in pulse_list]), [p.duration for p in pulse_list]
    )


def logical_rotation_target(theta: float, phi: float) -> np.ndarray:
    """Ideal four-pulse composite: |e><e| plus a rotation on span{|0>,|1>}.

    The logical block is exp[i (pi - 2 theta) sigma_alpha] with
    alpha = phi + pi/2 and sigma_alpha = cos(alpha) sx + sin(alpha) sy.
    """
    alpha = phi + HALF_PI
    sigma = np.array(
        [
            [0.0, math.cos(alpha) - 1j * math.sin(alpha)],
            [math.cos(alpha) + 1j * math.sin(alpha), 0.0],
        ],
        dtype=complex,
    )
    angle = math.pi - 2.0 * theta
    block = math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * sigma
    target = np.zeros((DIM, DIM), dtype=complex)
    target[:2, :2] = block
    target[IDX_E, IDX_E] = 1.0
    return target


def bch_residual(frame: BrightDarkFrame, eps: float) -> np.ndarray:
    """Residual of the four-factor envelope-error commutator product.

    Isolates the pure envelope stretch (the tilt is switched off) in the
    repeated gate: the deviation collapses to
    e^{-i d B} e^{+i d A} e^{+i d B} e^{-i d A} with d = eps * pi / 2,
    A and B the two segment generators.  First-order terms cancel, so
    the returned matrix (product minus identity) shrinks quadratically.
    """
    if not abs(eps) < 1:
        raise ValueError("|eps| must be < 1")
    delta = eps * HALF_PI
    gen_a = hamiltonian(frame, 1.0, HALF_PI)
    gen_b = hamiltonian(frame, 1.0, 0.0)
    u_omega = (
        linalg.expm_hermitian(gen_b, delta)
        @ linalg.expm_hermitian(gen_a, -delta)
        @ linalg.expm_hermitian(gen_b, -delta)
        @ linalg.expm_hermitian(gen_a, delta)
    )
    return u_omega - np.eye(DIM)
