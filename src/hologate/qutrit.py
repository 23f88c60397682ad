"""One-qubit holonomic gates on a three-level Lambda system.

Basis ordering is (|0>, |1>, |e>) with |e> the ancillary excited level.
A two-tone drive couples both ground states to |e>; in the rotated frame
only the bright superposition |b> couples, the orthogonal dark state |d>
is a spectator.  Each elementary gate is two back-to-back area-pi/2
segments with drive phases pi/2 then 0, which traces a closed loop of the
computational subspace and imprints a purely geometric unitary.

Pulse-strength errors enter as constant fractional deviations (eps0,
eps1) of the two field amplitudes, an ``ErrorModel`` whose ``scale`` is
each field's factor.  ``loops`` gives the ideal bright vector of each loop,
the drive field ``pulses.loop_schedule`` drives; each ``scaling.GATES``
entry lists its loops' angles and applies the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def scale(self) -> tuple[float, float, float]:
        """Each level's drive-field factor: 1 + eps0, 1 + eps1, and 1 on |e>."""
        return (1.0 + self.eps0, 1.0 + self.eps1, 1.0)


def loops(angles, phi: float) -> np.ndarray:
    """The ideal drive field of a loop at each bright angle t, (loops, 3).

    It is the bright vector (cos(t/2), sin(t/2) e^{i phi}, 0).
    """
    return np.array([BrightDarkFrame(t, phi).bright for t in angles])
