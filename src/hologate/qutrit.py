"""One-qubit holonomic gates on a three-level Lambda system.

Basis ordering is (|0>, |1>, |e>) with |e> the ancillary excited level.
A two-tone drive couples both ground states to |e>; in the rotated frame
only the bright superposition |b> couples, the orthogonal dark state |d>
is a spectator.  Each elementary gate is two back-to-back area-pi/2
segments with drive phases pi/2 then 0, which traces a closed loop of the
computational subspace and imprints a purely geometric unitary.

Pulse-strength errors enter as constant fractional deviations (eps0,
eps1) of the two field amplitudes, which each ``scaling.GATES`` entry of
this family applies as the factors 1 + eps0 and 1 + eps1.  ``loops``
gives the ideal bright vector of each loop, the drive field
``pulses.loop_schedule`` drives; each entry lists its loops' angles.
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


def loops(angles, phi: float) -> np.ndarray:
    """The ideal drive field of a loop at each bright angle t, (loops, 3).

    It is the bright vector (cos(t/2), sin(t/2) e^{i phi}, 0).
    """
    return np.array([BrightDarkFrame(t, phi).bright for t in angles])
