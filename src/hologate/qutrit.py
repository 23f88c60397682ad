"""One-qubit holonomic gates on a three-level Lambda system.

Basis ordering is (|0>, |1>, |e>) with |e> the ancillary excited level.
A two-tone drive couples both ground states to |e>; in the rotated frame
only the bright superposition |b> couples, the orthogonal dark state |d>
is a spectator.  ``frame`` gives that rotated basis.  Each elementary
gate is two back-to-back area-pi/2 segments with drive phases pi/2 then
0, which traces a closed loop of the computational subspace and imprints
a purely geometric unitary.

Pulse-strength errors enter as constant fractional deviations (eps0,
eps1) of the two field amplitudes, which each ``scaling.GATES`` entry of
this family applies as the factors 1 + eps0 and 1 + eps1.  ``loops``
gives the ideal bright vector of each loop, the drive field
``pulses.loop_schedule`` drives; each entry lists its loops' angles.
"""

from __future__ import annotations

import numpy as np

BASIS_LABELS = ("0", "1", "e")


def frame(theta, phi: float) -> np.ndarray:
    """The rotated basis (|e>, |b>, |d>) as the columns of a (..., 3, 3) unitary, one per theta.

    At mixing angle t and relative phase phi of the two-tone drive the
    bright vector is (cos(t/2), sin(t/2) e^{i phi}, 0) and the dark vector
    (sin(t/2), -cos(t/2) e^{i phi}, 0).  A non-finite angle or phase raises ValueError.
    """
    half = np.asarray(theta, dtype=float) / 2
    if not (np.isfinite(half).all() and np.isfinite(phi)):
        raise ValueError(f"bright angles and phase must be finite, got theta={theta!r}, phi={phi!r}")
    c, s, z = np.cos(half), np.sin(half), np.exp(1j * phi)
    basis = np.zeros(half.shape + (3, 3), dtype=complex)
    basis[..., 2, 0] = 1.0
    basis[..., 0, 1], basis[..., 1, 1] = c, s * z
    basis[..., 0, 2], basis[..., 1, 2] = s, -c * z
    return basis


def loops(angles, phi: float) -> np.ndarray:
    """The ideal drive field of a loop at each bright angle: its bright vector, (loops, 3)."""
    return frame(angles, phi)[..., 1]
