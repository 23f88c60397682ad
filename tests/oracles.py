"""Independent numerical references used only by the tests.

Nothing here imports the package under test.  The propagator integrates
the Schrodinger equation with a classical fixed-step RK4 scheme, so any
agreement with the eigendecomposition-based implementation is a genuine
cross-check rather than the same code exercised twice.
"""

import numpy as np

# Average fidelity of an idle three-ion register initialized in
# (|000> + |100>)/sqrt(2) under 8 independent uniform(-0.5, 0.5)
# collective kicks: 1/2 + 1/2 * (sin(0.5)/0.5)^8, evaluated once with
# 50-digit arithmetic and frozen.
CONTRAST_UNIFORM_HALF_8_KICKS = 0.85725580000414073315


def rk4_propagator(schedule, steps_per_segment: int = 4096) -> np.ndarray:
    """Integrate i dU/dt = H U over piecewise-constant segments.

    ``schedule`` is an ordered list of (Hermitian matrix, duration)
    pairs, first segment first in time.  Negative durations integrate
    backwards, which the fixed-step scheme handles without changes.
    """
    schedule = list(schedule)
    dim = np.asarray(schedule[0][0]).shape[0]
    u = np.eye(dim, dtype=complex)
    for h, duration in schedule:
        h = np.asarray(h, dtype=complex)
        dt = duration / steps_per_segment
        for _ in range(steps_per_segment):
            k1 = -1j * (h @ u)
            k2 = -1j * (h @ (u + 0.5 * dt * k1))
            k3 = -1j * (h @ (u + 0.5 * dt * k2))
            k4 = -1j * (h @ (u + dt * k3))
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def projector(*vectors) -> np.ndarray:
    """Sum of |v><v| over the given vectors."""
    dim = len(vectors[0])
    p = np.zeros((dim, dim), dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        p += np.outer(v, v.conj())
    return p


def kicked_fidelities_loop(propagators, psi0, phis, lam) -> np.ndarray:
    """Collective-kick Monte-Carlo, one sample and one kick at a time.

    Sample r applies propagator k and then the diagonal kick
    exp(-i phis[r, k] lam / 2), for every k in order.  With no propagators
    the register idles through every kick in its row of ``phis``.  Each
    fidelity is |<clean|state>|^2, where clean is the kick-free run.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    clean = psi0.copy()
    for u in propagators:
        clean = u @ clean
    fids = np.empty(len(phis))
    for r, row in enumerate(phis):
        state = psi0.copy()
        if len(propagators):
            for u, phi in zip(propagators, row):
                state = np.exp(-0.5j * phi * lam) * (u @ state)
        else:
            for phi in row:
                state = np.exp(-0.5j * phi * lam) * state
        fids[r] = abs(np.vdot(clean, state)) ** 2
    return fids
