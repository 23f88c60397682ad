"""Independent numerical references used only by the tests.

Nothing here imports the package under test.  The propagator integrates
the Schrodinger equation with a classical fixed-step RK4 scheme, so any
agreement with the closed-form and eigendecomposition exponentials of the
implementation is a genuine cross-check rather than the same code
exercised twice.  The trace loops below evolve a subspace through a
schedule one slice and one sample at a time, as a reference for the
batched holonomy certification, and ``trace_states_mpmath`` does the same
in 30-digit arithmetic as a reference for those loops.
"""

import mpmath
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

    For a constant generator one classical RK4 step maps U to P U with
    P = I + z + z^2/2 + z^3/6 + z^4/24 and z = -i H dt, so the
    ``steps_per_segment`` steps of a segment are applied at once as
    P^steps_per_segment, raised by binary exponentiation.
    """
    schedule = list(schedule)
    dim = np.asarray(schedule[0][0]).shape[0]
    eye = np.eye(dim, dtype=complex)
    u = eye
    for h, duration in schedule:
        z = -1j * np.asarray(h, dtype=complex) * (duration / steps_per_segment)
        z2 = z @ z
        step = eye + z + z2 / 2.0 + (z2 @ z) / 6.0 + (z2 @ z2) / 24.0
        power, remaining = eye, steps_per_segment
        while remaining:
            if remaining & 1:
                power = step @ power
            remaining >>= 1
            if remaining:
                step = step @ step
        u = power @ u
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


def sample_generators(schedule, n: int) -> list:
    """The generator in force at each sample of an n-slice-per-segment trace.

    Sample 0 takes the first generator; a boundary sample takes the
    generator of the segment that just ended.
    """
    gens = [np.asarray(schedule[0][0], dtype=complex)]
    for h, _ in schedule:
        gens.extend([np.asarray(h, dtype=complex)] * n)
    return gens


def trace_states_loop(schedule, basis, n: int) -> np.ndarray:
    """Evolve a basis through a schedule one equal-area slice at a time.

    Returns the states after every slice as (n_basis, 1 + n_segments * n,
    dim), the first sample being the basis itself.  The state j slices into
    a segment is the segment's start state under exp(-i H j area / n),
    from one eigh of H, so rounding does not compound over the slices of
    a segment.
    """
    current = np.array([np.asarray(v, dtype=complex) for v in basis])
    states = [current.copy()]
    for h, area in schedule:
        w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
        start = current
        for j in range(1, n + 1):
            step = (v * np.exp(-1j * w * (j * area / n))) @ v.conj().T
            current = start @ step.T
            states.append(current)
    return np.transpose(np.array(states), (1, 0, 2))


def trace_states_mpmath(schedule, basis, n: int, dps: int = 30) -> np.ndarray:
    """``trace_states_loop`` evolved in ``dps``-digit arithmetic.

    Each generator is diagonalised by ``mpmath.eigh``; every slice
    multiplies the eigenbasis coefficients by exp(-i lam area / n) and
    maps them back, all at ``dps`` digits, so the states are rounded to
    double precision once, when stored.  Same layout as
    ``trace_states_loop``.
    """
    with mpmath.workdps(dps):
        current = [[mpmath.mpc(x) for x in np.asarray(v, dtype=complex)] for v in basis]
        samples = [[[complex(x) for x in psi] for psi in current]]
        for h, area in schedule:
            lam, vecs = mpmath.eigh(mpmath.matrix(np.asarray(h, dtype=complex).tolist()))
            d = len(lam)
            rows = [[vecs[i, k] for k in range(d)] for i in range(d)]
            cols = [[vecs[i, k].conjugate() for i in range(d)] for k in range(d)]
            phases = [mpmath.expj(-lam[k] * mpmath.mpf(area) / n) for k in range(d)]
            coeffs = [[mpmath.fdot(col, psi) for col in cols] for psi in current]
            for _ in range(n):
                coeffs = [[c * z for c, z in zip(coeff, phases)] for coeff in coeffs]
                current = [[mpmath.fdot(row, coeff) for row in rows] for coeff in coeffs]
                samples.append([[complex(x) for x in psi] for psi in current])
    return np.transpose(np.array(samples), (1, 0, 2))


def phase_residual_loop(states, schedule, n: int) -> np.ndarray:
    """max |<b|H|c>| over the evolved basis pairs, one sample at a time."""
    gens = sample_generators(schedule, n)
    return np.array(
        [
            np.max(np.abs(states[:, i, :].conj() @ gens[i] @ states[:, i, :].T))
            for i in range(states.shape[1])
        ]
    )


def projector_residual_curve(states) -> np.ndarray:
    """Frobenius distance of P(t) from P(0) at every sample.

    ``states`` has shape (n_basis, n_samples, dim) and P(t) is the
    projector onto the basis vectors at sample t.
    """
    p0 = projector(*states[:, 0, :])
    return np.array(
        [np.linalg.norm(projector(*states[:, i, :]) - p0) for i in range(states.shape[1])]
    )
