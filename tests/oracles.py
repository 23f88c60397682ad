"""Independent numerical references used only by the tests.

Nothing here imports the package under test.  The propagator integrates
the Schrodinger equation with a classical fixed-step RK4 scheme, so any
agreement with the closed-form and eigendecomposition exponentials of the
implementation is a genuine cross-check rather than the same code
exercised twice.  The trace loops below evolve a subspace through a
schedule one slice and one sample at a time, and the residual loops read
both holonomy conditions at every sample: a sampled reference for the
exact certificate, which reads them at the segment boundaries only.
``trace_states_mpmath`` does the same evolution in 30-digit arithmetic as
a reference for those loops.  The raw two-field
pulses are the one-qubit loop written as independent field amplitudes,
and the stretched-and-tilted pulses the same loop as one field of unit
shape at a tilted bright angle and stretched area: two reference routes
for the package's error-affected gates.  The ideal four-pulse rotation
and the commutator-product residual are closed-form references for the
composites.  ``bright_dark`` writes the three-level frame out by hand.
"""

import math

import mpmath
import numpy as np

# Below this an infidelity is double-precision noise, not physics.
INFIDELITY_FLOOR = 1e-14

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


def schedule_pairs(schedule) -> list:
    """(generator, area) pairs of an unbatched schedule, first segment first.

    Works on anything with ``generators`` (n, d, d) and ``areas`` (n,), so
    the references here take plain lists of pairs.
    """
    return list(zip(schedule.generators, schedule.areas))


def frobenius_distance(a, b) -> float:
    """Frobenius-norm distance between two matrices of one shape.

    A plain np.linalg.norm(a - b) would broadcast a wrong-shaped comparison
    silently; here it raises ValueError.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"expected two matrices of one shape, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a - b))


def is_unitary(m, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))) <= tol


TWO_QUBIT_LABELS = ("00", "01", "10", "11")


def two_qubit_ket(label: str) -> np.ndarray:
    """Basis vector of the five-level model, ordered (00, 01, 10, 11, a)."""
    return np.eye(5, dtype=complex)[(TWO_QUBIT_LABELS + ("a",)).index(label)]


# |e>, the last level of the three-level basis (|0>, |1>, |e>)
EXCITED = np.array([0.0, 0.0, 1.0], dtype=complex)


def bright_dark(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The bright and dark vectors of a two-tone drive of mixing angle theta and phase phi.

    bright = (cos(theta/2), sin(theta/2) e^{i phi}, 0) and
    dark = (sin(theta/2), -cos(theta/2) e^{i phi}, 0).
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    z = np.exp(1j * phi)
    return np.array([c, s * z, 0.0], dtype=complex), np.array([s, -c * z, 0.0], dtype=complex)


def two_field_pairs(theta: float, phi: float, eps0: float = 0.0, eps1: float = 0.0) -> list:
    """The one-qubit elementary loop in raw two-field form, first in time first.

    Two (generator, duration) pairs on the basis (|0>, |1>, |e>): each
    drives |0><e| with amplitude (1 + eps0) cos(theta/2) and |1><e| with
    (1 + eps1) sin(theta/2) for duration pi/2, at drive phase pi/2 then 0;
    the |1><e| field carries the extra relative phase phi.
    """
    amp0 = (1.0 + eps0) * math.cos(theta / 2)
    amp1 = (1.0 + eps1) * math.sin(theta / 2)
    pairs = []
    for phase in (math.pi / 2, 0.0):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 2] = amp0 * np.exp(1j * phase)
        h[1, 2] = amp1 * np.exp(1j * (phi + phase))
        pairs.append((h + h.conj().T, math.pi / 2))
    return pairs


def effective_error_params(theta: float, eps0: float, eps1: float) -> tuple[float, float]:
    """Map two-field deviations to (envelope stretch, tilted angle).

    Returns (eps, theta_prime) with
      eps   = sqrt[(1+eps0)^2 cos^2(theta/2) + (1+eps1)^2 sin^2(theta/2)] - 1
      theta_prime chosen on the continuous branch taking [0, pi] to [0, pi].
    """
    a0 = 1.0 + eps0
    a1 = 1.0 + eps1
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    eps = math.hypot(a0 * c, a1 * s) - 1.0
    theta_prime = 2.0 * math.atan2(a1 * s, a0 * c)
    return eps, theta_prime


def stretched_tilted_pairs(theta: float, phi: float, eps0: float, eps1: float) -> list:
    """The error-affected elementary loop in stretched-and-tilted form.

    The unit-amplitude loop of ``two_field_pairs`` at the tilted angle
    theta_prime, each segment run for (1 + eps) pi/2 instead of pi/2.
    """
    eps, theta_prime = effective_error_params(theta, eps0, eps1)
    return [(h, (1.0 + eps) * duration) for h, duration in two_field_pairs(theta_prime, phi)]


def two_field_composite_pairs(theta: float, phi: float, n_pulses: int, eps0=0.0, eps1=0.0) -> list:
    """Raw two-field composites: the loop twice, or the pi - theta loop twice then theta twice."""
    pairs = two_field_pairs(theta, phi, eps0, eps1) * 2
    if n_pulses == 4:
        pairs = two_field_pairs(math.pi - theta, phi, eps0, eps1) * 2 + pairs
    return pairs


def eigh_expm(h, t: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian ``h``, from one ``eigh``."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def logical_rotation_target(theta: float, phi: float) -> np.ndarray:
    """Ideal four-pulse composite: |e><e| plus a rotation on span{|0>,|1>}.

    The logical block is exp[i (pi - 2 theta) sigma_alpha] with
    alpha = phi + pi/2 and sigma_alpha = cos(alpha) sx + sin(alpha) sy.
    """
    alpha = phi + math.pi / 2
    sigma = np.array(
        [
            [0.0, math.cos(alpha) - 1j * math.sin(alpha)],
            [math.cos(alpha) + 1j * math.sin(alpha), 0.0],
        ],
        dtype=complex,
    )
    angle = math.pi - 2.0 * theta
    target = np.zeros((3, 3), dtype=complex)
    target[:2, :2] = math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * sigma
    target[2, 2] = 1.0
    return target


def bch_residual(theta: float, phi: float, eps: float) -> np.ndarray:
    """Residual of the four-factor envelope-error commutator product.

    Isolates the pure envelope stretch (the tilt is switched off) in the
    repeated gate: the deviation collapses to
    e^{-i d B} e^{+i d A} e^{+i d B} e^{-i d A} with d = eps * pi / 2,
    A and B the two segment generators of ``two_field_pairs`` (drive phase
    pi/2, then 0).  First-order terms cancel, so the returned matrix
    (product minus identity) shrinks quadratically.
    """
    if not abs(eps) < 1:
        raise ValueError("|eps| must be < 1")
    delta = eps * math.pi / 2
    (gen_a, _), (gen_b, _) = two_field_pairs(theta, phi)
    u_omega = (
        eigh_expm(gen_b, delta)
        @ eigh_expm(gen_a, -delta)
        @ eigh_expm(gen_b, -delta)
        @ eigh_expm(gen_a, delta)
    )
    return u_omega - np.eye(3)


def residual_norm_ratio(residual, eps: float) -> float:
    """Frobenius norm of residual(eps) over that of residual(eps / 2).

    Near 2^n for a residual of order n in eps.  Raises ``ValueError`` when
    eps is too small to resolve or the half-eps residual vanishes.
    """
    if eps < 1e-7:
        raise ValueError("eps too small for a meaningful residual ratio")
    half = np.linalg.norm(residual(eps / 2.0))
    if half == 0:
        raise ValueError("residual vanished at half eps")
    return float(np.linalg.norm(residual(eps)) / half)


def ideal_two_qubit_elementary(jk: str) -> np.ndarray:
    """Elementary gate on the five-level model: i on |jk>, -i on the ancilla (last)."""
    u = np.eye(5, dtype=complex)
    u[TWO_QUBIT_LABELS.index(jk), TWO_QUBIT_LABELS.index(jk)] = 1j
    u[4, 4] = -1j
    return u


def ideal_two_qubit_composite(jk: str) -> np.ndarray:
    """The elementary gate squared: -1 on |jk> and on the ancilla."""
    u = np.eye(5, dtype=complex)
    u[TWO_QUBIT_LABELS.index(jk), TWO_QUBIT_LABELS.index(jk)] = -1.0
    u[4, 4] = -1.0
    return u


def operator_schmidt_values(gate) -> np.ndarray:
    """Singular values of the qubit-qubit realignment of a 4x4 operator."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    realigned = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return np.linalg.svd(realigned, compute_uv=False)


def entangling_power_check(gate, tol: float = 1e-8) -> bool:
    """True iff a 4x4 unitary is not a tensor product of one-qubit gates.

    Decided by the operator Schmidt rank: a product gate realigns to a
    rank-one matrix, anything entangling needs at least two terms.
    """
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4) or not is_unitary(g, 1e-8):
        raise ValueError("entangling check expects a 4x4 unitary")
    return int(np.sum(operator_schmidt_values(g) > tol)) > 1


def order_ratio(gate_builder, eps: float) -> float:
    """infidelity(eps) / infidelity(eps/2); near 2^n for an order-n law.

    ``gate_builder`` maps a scalar error to a gate matrix; the ideal
    reference is the zero-error gate, and the infidelity is
    1 - |Tr(U^dag V)| / Tr(U^dag U).  Raises ``ValueError`` when either
    infidelity sits at the floating-point floor.
    """
    ideal = np.asarray(gate_builder(0.0), dtype=complex)

    def infidelity(e):
        overlap = abs(np.vdot(ideal, np.asarray(gate_builder(e), dtype=complex)))
        return 1.0 - overlap / np.vdot(ideal, ideal).real

    if eps < 1e-7:
        raise ValueError("eps too small, infidelities would sit at the floor")
    full, half = infidelity(eps), infidelity(eps / 2.0)
    if full <= INFIDELITY_FLOOR or half <= INFIDELITY_FLOOR:
        raise ValueError("infidelity at the floating-point floor")
    return full / half
