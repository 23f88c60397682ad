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
angle theta -> theta_prime.  ``loop_schedule`` writes every gate's loops
in that stretched-and-tilted single-field form, from its recipe: the
distinct elementary loops and the order they run in.  ``scaling.GATES``
evolves them into gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pulses

DIM = 3
IDX_0, IDX_1, IDX_E = 0, 1, 2
BASIS_LABELS = ("0", "1", "e")


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


# Ideal values: the elementary gate is -i|e><e| + i|b><b| + |d><d|, and
# composite2, its square, -|e><e| - |b><b| + |d><d|; repetition cancels the
# first-order stretch but not the tilt.  composite4 runs the mirrored-angle
# pair first and the theta pair last: the mirrored angle reverses the sign of
# the first-order tilt, so both error channels cancel to leading order.
ELEMENTARY = pulses.Recipe(lambda theta: (theta,), (0,))
COMPOSITE_TWO = pulses.Recipe(lambda theta: (theta,), (0, 0))
COMPOSITE_FOUR = pulses.Recipe(lambda theta: (math.pi - theta, theta), (0, 0, 1, 1))


def loop_schedule(
    recipe: pulses.Recipe, theta: float, phi: float, models, envelope="square", steps=1,
    ordered=False,
) -> linalg.Schedule:
    """Every envelope slice of a recipe's loops under each error model (None for no error).

    Stretched-and-tilted form: under a model the envelope integral of a
    segment becomes (1+eps) * pi/2 and the drive couples the tilted bright
    state at theta_prime.  Batched over (models, loops); with ``ordered``,
    one model's loops in the recipe's time order (``pulses.loop_schedule``).
    """
    thetas = recipe.loops(theta)
    params = np.array(
        [[(0.0, t) if m is None else effective_error_params(t, m) for t in thetas] for m in models]
    ).reshape(len(models), len(thetas), 2)
    gens = drive_generators(params[..., 1, None], phi, pulses.DRIVE_PHASES)
    return pulses.loop_schedule(
        gens, 1.0 + params[..., 0], envelope, steps, recipe.order if ordered else None
    )
