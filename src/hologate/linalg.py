"""Dense complex linear algebra and time-evolution primitives.

Everything downstream (gates, holonomy checks, noise averaging) is built on
plain complex ``numpy`` arrays.  Matrices are kept small (dimension cap 64,
the six-ion register).  Every piecewise-constant evolution goes through
``evolve``, which exponentiates a whole batch of segments at once.  Every
drive generator this package builds has spectrum {0, +W, -W}, so its
exponential has a closed form that needs no eigendecomposition; any other
Hermitian generator falls back to ``eigh``, which keeps unitarity to machine
precision without scaling-and-squaring heuristics.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Largest system handled anywhere in this package is six two-level ions.
DIM_CAP = 64

DEFAULT_TOL = 1e-10

# Largest relative cube residual ||H^3 - W^2 H|| / (W^2 ||H||) (Frobenius)
# for which evolve uses the closed-form exponential instead of eigh.  The
# generators built here sit at or below about 1e-15; a generic Hermitian
# matrix is of order one.
CUBE_RTOL = 1e-12

_TINY = np.finfo(float).tiny


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2D complex ndarray without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m.T)


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two equally shaped matrices."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return frobenius_norm(m - dagger(m)) <= tol


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return frobenius_norm(dagger(m) @ m - eye) <= tol


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=complex)))


def is_normalized(v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return abs(norm(v) - 1.0) <= tol


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a C-contiguous (..., d, d) stack."""
    v = m.view(float)
    return (v * v).sum(axis=(-2, -1))


def exponentials(generators, areas, *, tol: float = 1e-12) -> np.ndarray:
    """exp(-i g a) for a stack of Hermitian generators and areas.

    ``generators`` has shape (k, ..., d, d), at least one batch axis, and
    ``areas`` a shape that broadcasts against the batch shape; the result
    has the broadcast batch shape + (d, d).

    With W^2 = ||H^2||_F^2 / ||H||_F^2, a generator with H^3 = W^2 H has
    the closed form exp(-iHt) = I - i sin(Wt) H/W - 2 sin^2(Wt/2) H^2/W^2
    (the cos(Wt) - 1 term written without cancellation).  That ratio is
    the squared magnitude of the nonzero eigenvalues whatever their
    multiplicity, where tr(H^2)/2 holds only for a single +-W pair.  A zero
    generator gives exactly I.  Every generator whose cube residual
    exceeds CUBE_RTOL is exponentiated by ``eigh`` instead.

    Raises ``ValueError`` for non-square or over-cap generators, or one
    that is not Hermitian within the absolute Frobenius tolerance ``tol``.
    """
    g = np.ascontiguousarray(generators, dtype=complex)
    a = np.asarray(areas, dtype=float)
    if g.ndim < 3:
        raise ValueError(f"expected a stack of matrices, got array of ndim {g.ndim}")
    n, m = g.shape[-2:]
    if n != m:
        raise ValueError(f"generator must be square, got {(n, m)}")
    if n > DIM_CAP:
        raise ValueError(f"dimension {n} exceeds cap {DIM_CAP}")
    if not (_squared_norms(g - g.conj().swapaxes(-1, -2)) <= tol * tol).all():
        raise ValueError("generator is not Hermitian within tolerance")
    # Scaled to a largest entry of 1, with the areas carrying the scale, the
    # powers and squared norms below can neither overflow nor underflow.
    scale = np.maximum(np.abs(g).max(axis=(-2, -1)), _TINY)
    h = g / scale[..., None, None]
    t = a * scale
    h2 = h @ h
    n2 = _squared_norms(h)
    w2 = np.maximum(_squared_norms(h2) / np.maximum(n2, _TINY), _TINY)
    residual = _squared_norms(h2 @ h - w2[..., None, None] * h)
    closed = residual <= CUBE_RTOL**2 * n2 * w2 * w2
    w = np.sqrt(w2)
    wt = w * t
    steps = (-1j / w * np.sin(wt))[..., None, None] * h
    steps += (-2.0 / w2 * np.sin(0.5 * wt) ** 2)[..., None, None] * h2
    steps += np.eye(n)
    if not closed.all():
        fallback = np.broadcast_to(~closed, steps.shape[:-2])
        vals, vecs = np.linalg.eigh(np.broadcast_to(h, steps.shape)[fallback])
        phases = np.exp(-1j * vals * np.broadcast_to(t, fallback.shape)[fallback][:, None])
        steps[fallback] = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return steps


def evolve(generators, areas) -> np.ndarray:
    """Time-ordered product of exp(-i g_k a_k) over a batch of schedules.

    ``generators`` has shape (..., n_seg, d, d) and ``areas`` (..., n_seg);
    their leading batch axes broadcast against each other.  Segment 0 acts
    first, so each result is exp(-i g_n a_n) ... exp(-i g_1 a_1), and the
    return value has the broadcast batch shape + (d, d).  Every segment is
    exponentiated in one ``exponentials`` call, whose checks apply; an empty
    schedule raises ``ValueError``.
    """
    g = np.asarray(generators)
    a = np.asarray(areas)
    if g.ndim < 3 or a.ndim < 1:
        raise ValueError(
            f"expected (..., n_seg, d, d) generators and (..., n_seg) areas, "
            f"got {g.shape} and {a.shape}"
        )
    if g.shape[-3] == 0 or a.shape[-1] == 0:
        raise ValueError("empty schedule")
    steps = exponentials(g, a)
    # pairwise products keep time order: later slice on the left
    while steps.shape[-3] > 1:
        k = steps.shape[-3]
        paired = steps[..., 1::2, :, :] @ steps[..., 0 : k - 1 : 2, :, :]
        steps = paired if k % 2 == 0 else np.concatenate((paired, steps[..., -1:, :, :]), axis=-3)
    return steps[..., 0, :, :]


def expm_hermitian(h: np.ndarray, t: float = 1.0, *, tol: float = 1e-12) -> np.ndarray:
    """exp(-i*h*t) for one Hermitian generator ``h``, by ``exponentials``.

    ``t`` is the evolution duration (or pulse area when ``h`` carries a unit
    envelope).  Raises ``ValueError`` for non-square, non-Hermitian, or
    over-cap input.
    """
    return exponentials(as_complex_matrix(h)[None], t, tol=tol)[0]


def time_ordered_product(
    segments: Sequence[tuple[np.ndarray, float]], dim: int | None = None
) -> np.ndarray:
    """Product of segment evolutions, later segments applied on the left.

    ``segments`` is an ordered list of (Hermitian generator, area) pairs;
    the first entry acts first in time, so the result is
    ``exp(-i g_n a_n) ... exp(-i g_1 a_1)``.  An empty list yields the
    identity, in which case ``dim`` must be given.
    """
    segments = list(segments)
    if not segments:
        if dim is None:
            raise ValueError("empty schedule needs an explicit dimension")
        return np.eye(dim, dtype=complex)
    gens = [as_complex_matrix(gen) for gen, _ in segments]
    if dim is None:
        dim = gens[0].shape[0]
    for gen in gens:
        if gen.shape != (dim, dim):
            raise ValueError(f"segment dimension mismatch: {gen.shape} vs {(dim, dim)}")
    return evolve(np.array(gens), [float(area) for _, area in segments])
