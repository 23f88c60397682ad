"""One-qubit holonomic gates on a three-level Lambda system.

Basis ordering is (|0>, |1>, |e>) with |e> the ancillary excited level.
A two-tone drive couples both ground states to |e>; in the rotated frame
only the bright superposition |b> couples, the orthogonal dark state |d>
is a spectator.  Each elementary gate is two back-to-back area-pi/2
segments with drive phases pi/2 then 0, which traces a closed loop of the
computational subspace and imprints a purely geometric unitary.

Pulse-strength errors enter as constant fractional deviations (eps0,
eps1) of the two field amplitudes.  ``loops`` gives every loop of a recipe
as its two scaled amplitudes, the drive field ``pulses.loop_schedule``
drives; ``scaling.GATES`` evolves them into gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pulses

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

    The strict bound |eps| < 1 keeps both scaled amplitudes 1 + eps
    positive: an error never removes or reverses a field.
    """

    eps0: float
    eps1: float

    def __post_init__(self):
        if not (abs(self.eps0) < 1 and abs(self.eps1) < 1):
            raise ValueError(
                f"error fractions must satisfy |eps| < 1, got ({self.eps0}, {self.eps1})"
            )


# Ideal values: the elementary gate is -i|e><e| + i|b><b| + |d><d|, and
# composite2, its square, -|e><e| - |b><b| + |d><d|; repetition cancels the
# first-order stretch but not the tilt.  composite4 runs the mirrored-angle
# pair first and the theta pair last: the mirrored angle reverses the sign of
# the first-order tilt, so both error channels cancel to leading order.
ELEMENTARY = pulses.Recipe(lambda theta: (theta,), (0,))
COMPOSITE_TWO = pulses.Recipe(lambda theta: (theta,), (0, 0))
COMPOSITE_FOUR = pulses.Recipe(lambda theta: (math.pi - theta, theta), (0, 0, 1, 1))


def loops(recipe: pulses.Recipe, theta: float, phi: float, jk, models):
    """Each loop's drive field under each error model (None for no error).

    At loop angle t it is ((1+eps0) cos(t/2), (1+eps1) sin(t/2) e^{i phi},
    0): the ideal bright vector, each field scaled by its model's 1 + eps.
    Returns (models, loops, 3); ``jk`` is unused.
    """
    bright = np.array([BrightDarkFrame(t, phi).bright for t in recipe.loops(theta)])
    scale = np.array([(1.0 + m.eps0, 1.0 + m.eps1, 1.0) if m else (1.0, 1.0, 1.0) for m in models])
    return scale[:, None, :] * bright
