"""Dense complex linear algebra and time-evolution primitives.

Everything downstream (gates, holonomy checks, noise averaging) is built on
plain complex ``numpy`` arrays.  Matrices are kept small (dimension cap 64,
the six-ion register).  Every piecewise-constant evolution is a
``Schedule``, validated once when it is built, and goes through ``evolve``,
which exponentiates a whole batch of segments at once.  Every
drive generator this package builds has spectrum {0, +W, -W}, so its
exponential has a closed form that needs no eigendecomposition; any other
Hermitian generator falls back to ``eigh``, which keeps unitarity to machine
precision without scaling-and-squaring heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest system handled anywhere in this package is six two-level ions.
DIM_CAP = 64

# Largest ||g - g^H||_F / max|g_ij| a generator may have.  Relative, because
# every generator is exponentiated after scaling to a unit largest entry.
HERMITIAN_RTOL = 1e-12

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


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=complex)))


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a C-contiguous (..., d, d) stack."""
    v = m.view(float)
    return (v * v).sum(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class Schedule:
    """Piecewise-constant evolution: segment k runs generator k for area k.

    ``generators`` has shape (..., n, d, d) and ``areas`` (..., n); their
    leading batch axes broadcast against each other, and segment 0 acts
    first.  Both are stored as read-only copies once the generators are
    found square, at most DIM_CAP wide and Hermitian to HERMITIAN_RTOL
    relative to their largest entry, with one area per segment and at
    least one segment.  Anything else raises ``ValueError``.
    """

    generators: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        g = np.array(self.generators, dtype=complex, order="C")
        a = np.array(self.areas, dtype=float)
        if g.ndim < 3 or a.ndim < 1:
            raise ValueError(
                f"expected (..., n, d, d) generators and (..., n) areas, got {g.shape} and {a.shape}"
            )
        n, d, m = g.shape[-3:]
        if d != m:
            raise ValueError(f"generators must be square, got {(d, m)}")
        if d > DIM_CAP:
            raise ValueError(f"dimension {d} exceeds cap {DIM_CAP}")
        if n == 0 or a.shape[-1] != n:
            raise ValueError(f"need at least one segment and one area each, got {n} and {a.shape[-1]}")
        np.broadcast_shapes(g.shape[:-3], a.shape[:-1])  # the batch axes must broadcast
        h = g / np.maximum(np.abs(g).max(axis=(-2, -1)), _TINY)[..., None, None]
        if not (_squared_norms(h - h.conj().swapaxes(-1, -2)) <= HERMITIAN_RTOL**2).all():
            raise ValueError("generator is not Hermitian within tolerance")
        g.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "areas", a)

    @property
    def n_segments(self) -> int:
        return self.generators.shape[-3]


def exponentials(schedule: Schedule) -> np.ndarray:
    """exp(-i g_k a_k) for every segment of a schedule, unmultiplied.

    The result has the broadcast batch shape + (n, d, d).

    With W^2 = ||H^2||_F^2 / ||H||_F^2, a generator with H^3 = W^2 H has
    the closed form exp(-iHt) = I - i sin(Wt) H/W - 2 sin^2(Wt/2) H^2/W^2
    (the cos(Wt) - 1 term written without cancellation).  That ratio is
    the squared magnitude of the nonzero eigenvalues whatever their
    multiplicity, where tr(H^2)/2 holds only for a single +-W pair.  A zero
    generator gives exactly I.  Every generator whose cube residual
    exceeds CUBE_RTOL is exponentiated by ``eigh`` instead.
    """
    g, a = schedule.generators, schedule.areas
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
    steps += np.eye(g.shape[-1])
    if not closed.all():
        fallback = np.broadcast_to(~closed, steps.shape[:-2])
        vals, vecs = np.linalg.eigh(np.broadcast_to(h, steps.shape)[fallback])
        phases = np.exp(-1j * vals * np.broadcast_to(t, fallback.shape)[fallback][:, None])
        steps[fallback] = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return steps


def evolve(schedule: Schedule) -> np.ndarray:
    """Time-ordered product exp(-i g_n a_n) ... exp(-i g_1 a_1) of a schedule.

    Every segment of every batch entry is exponentiated in one
    ``exponentials`` call; the result has the broadcast batch shape +
    (d, d).
    """
    steps = exponentials(schedule)
    # pairwise products keep time order: later slice on the left
    while steps.shape[-3] > 1:
        k = steps.shape[-3]
        paired = steps[..., 1::2, :, :] @ steps[..., 0 : k - 1 : 2, :, :]
        steps = paired if k % 2 == 0 else np.concatenate((paired, steps[..., -1:, :, :]), axis=-3)
    return steps[..., 0, :, :]


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i*h*t) for one Hermitian generator ``h``, by ``exponentials``.

    ``t`` is the evolution duration (or pulse area when ``h`` carries a unit
    envelope).  Raises ``ValueError`` for input ``Schedule`` rejects.
    """
    return exponentials(Schedule(as_complex_matrix(h)[None], [t]))[0]
