"""Gate fidelity, systematic-error sweeps, and scaling-order fits.

The robustness claim under test is an exponent: plain holonomic gates
lose fidelity at second order in the pulse-strength error, the composite
constructions at fourth order.  Sweeps evaluate infidelity over a
log-spaced error grid and fit a single power law; the slope of the
log-log fit is the measured order.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import linalg, pulses, qutrit, two_qubit

# Below this the infidelity is double-precision noise, not physics.
INFIDELITY_FLOOR = 1e-14


class DegenerateFitError(RuntimeError):
    """Raised when every sweep point sits at the floating-point floor."""


def gate_fidelity(u_ideal: np.ndarray, v_actual: np.ndarray) -> float:
    """Trace overlap |Tr(U^dag V)| / Tr(U^dag U), global-phase invariant."""
    u = np.asarray(u_ideal, dtype=complex)
    v = np.asarray(v_actual, dtype=complex)
    if u.ndim != 2 or u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    norm2 = np.vdot(u, u).real
    if not norm2 > 0:  # zero, underflowed or NaN
        raise ValueError(f"ideal gate has squared norm {norm2}, need a positive one")
    return float(_fidelities(u, v))


def _fidelities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """gate_fidelity of one ideal (d, d) against a stack of gates (..., d, d)."""
    return np.abs(np.einsum("ij,...ij->...", u.conj(), v)) / np.vdot(u, u).real


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate of the scheme: the only way the package builds a gate.

    ``loops(theta, phi, jk)`` is the ideal drive field of each of the gate's
    distinct loops (loops, d), which ``pulses.loop_schedule`` drives, and
    ``order`` the time order they run in, first in time first.  The last of
    the ``labels`` is the auxiliary level and the others span the holonomy
    subspace.  An error is a row of fractional amplitude deviations, one
    per name in ``error_keys``; row k of ``error_levels`` (keys, d) is 1 on
    each level whose field key k scales.  The zero row is the ideal gate,
    and ``error_modes`` maps a sweep mode to the row of one unit eps.
    """

    loops: Callable[[float, float, str], np.ndarray]
    order: tuple[int, ...]
    labels: tuple[str, ...]
    error_keys: tuple[str, ...]
    error_levels: np.ndarray
    error_modes: dict[str, tuple[float, ...]]

    def fields(self, theta, phi, jk, errors) -> np.ndarray:
        """Each loop's drive field under each error row, (len(errors), loops, d).

        The ideal field times 1 + eps on the levels each eps scales: the one
        place an amplitude error enters a gate, and the one check of it.  The
        strict bound |eps| < 1 keeps each 1 + eps positive: an error never
        removes or reverses a field.
        """
        eps = np.array(errors, dtype=float)
        if eps.ndim != 2 or eps.shape[1] != len(self.error_keys):
            raise ValueError(f"an error row holds one value per key of {self.error_keys}, got shape {eps.shape}")
        ok = (np.abs(eps) < 1).all(axis=1)  # NaN fails it too
        if not ok.all():
            raise ValueError(f"error fractions must satisfy |eps| < 1, got {tuple(eps[~ok][0].tolist())}")
        return (1.0 + eps @ self.error_levels)[:, None, :] * self.loops(theta, phi, jk)

    def build(self, theta, phi, jk, errors, envelope="square", steps=1) -> np.ndarray:
        """One gate per error row, shape (len(errors), d, d).

        Each distinct loop of every row is evolved once, as its own batch
        entry; the gate is the ``linalg.product`` of their unitaries in ``order``.
        """
        field = self.fields(theta, phi, jk, errors)
        unitaries = linalg.evolve(pulses.loop_schedule(field[..., None, :], envelope, steps))
        return linalg.product(unitaries[:, list(self.order)])

    def schedule(self, theta, phi, jk, error) -> linalg.Schedule:
        """The loops under one error row back to back in time order, square pulses.

        At the zero row this is the schedule check-holonomy certifies.
        """
        field = self.fields(theta, phi, jk, (error,))
        return pulses.loop_schedule(field[0, list(self.order)], "square", 1)

    def subspace_basis(self) -> np.ndarray:
        return np.eye(len(self.labels), dtype=complex)[:-1]


_QUTRIT = (
    qutrit.BASIS_LABELS,
    ("eps0", "eps1"),
    np.eye(2, len(qutrit.BASIS_LABELS)),  # eps0 scales the |0> field and eps1 the |1> field
    {"common": (1.0, 1.0), "differential": (1.0, -1.0), "single_field": (1.0, 0.0)},
)
# eps_jk scales the one active field, on whichever level jk drives
_TWO_QUBIT = (two_qubit.LABELS, ("eps_jk",), np.ones((1, len(two_qubit.LABELS))), {"two_qubit": (1.0,)})

GATES = {
    # ideal values: the elementary gate is -i|e><e| + i|b><b| + |d><d|
    "elementary": Gate(lambda theta, phi, jk: qutrit.loops((theta,), phi), (0,), *_QUTRIT),
    # composite2 is its square, -|e><e| - |b><b| + |d><d|: repetition
    # cancels the first-order stretch but not the tilt
    "composite2": Gate(lambda theta, phi, jk: qutrit.loops((theta,), phi), (0, 0), *_QUTRIT),
    # composite4 runs the mirrored-angle pair first and the theta pair last:
    # the mirrored angle reverses the sign of the first-order tilt, so both
    # error channels cancel to leading order
    "composite4": Gate(lambda theta, phi, jk: qutrit.loops((math.pi - theta, theta), phi), (0, 0, 1, 1), *_QUTRIT),
    # the two-qubit elementary gate is -i|a><a| + i|jk><jk| + rest unchanged
    "twoqubit_elementary": Gate(lambda theta, phi, jk: two_qubit.loops((jk,)), (0,), *_TWO_QUBIT),
    # and its square flips the sign of |jk> and |a>
    "twoqubit_composite": Gate(lambda theta, phi, jk: two_qubit.loops((jk,)), (0, 0), *_TWO_QUBIT),
}
# aliases: sweeps have always called the elementary gates "single"
GATES["single"] = GATES["elementary"]
GATES["twoqubit_single"] = GATES["twoqubit_elementary"]


@dataclass(frozen=True)
class ScalingFit:
    samples: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float


def default_epsilon_grid(points: int = 12) -> tuple[float, ...]:
    """Log-spaced grid over [1e-3, 10^-1.5].

    The lower edge keeps fourth-order infidelities (around eps^4) above
    the double-precision floor; the upper edge stays below where
    higher-order terms start bending the power law.
    """
    if not isinstance(points, numbers.Integral) or isinstance(points, bool):
        raise ValueError(f"points must be an integer, got {points!r}")
    return tuple(float(e) for e in np.logspace(-3.0, -1.5, points))


def sweep_samples(gate: Gate, error_mode: str, epsilons, theta, phi, jk="11") -> list[tuple[float, float]]:
    """(eps, infidelity) points in grid order, floor points included.

    ``error_mode`` names one of the gate's ``error_modes``, the error row
    of a unit eps.  Every gate, the ideal (the zero row) first, comes from
    one call of the gate's batched builder, so the grid shares its evolutions.
    """
    if error_mode not in gate.error_modes:
        raise ValueError(f"error mode {error_mode!r} does not fit a gate with modes {sorted(gate.error_modes)}")
    eps = tuple(epsilons)
    if not eps or not all(0 < e < 1 for e in eps):
        raise ValueError("epsilons must be a nonempty list of values in (0, 1)")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly increasing")
    gates = gate.build(theta, phi, jk, np.outer((0.0,) + eps, gate.error_modes[error_mode]))
    infidelities = 1.0 - _fidelities(gates[0], gates[1:])
    return list(zip(eps, infidelities.tolist()))


def fit_power_law(samples) -> ScalingFit:
    """Least-squares line through (log eps, log infidelity).

    Points at or below the infidelity floor are excluded, not clamped;
    fewer than two surviving points is a degenerate fit.
    """
    kept = [(e, f) for e, f in samples if f > INFIDELITY_FLOOR]
    if len(kept) < 2:
        raise DegenerateFitError(
            f"only {len(kept)} sweep points above the {INFIDELITY_FLOOR} floor"
        )
    x = np.log(np.array([e for e, _ in kept]))
    y = np.log(np.array([f for _, f in kept]))
    # least squares in closed form, about the means of x and y
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0:
        raise DegenerateFitError("every kept sweep point has the same epsilon")
    slope = float(dx @ dy) / sxx
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(dy @ dy)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        samples=tuple(kept),
        slope=slope,
        intercept=float(y.mean() - slope * x.mean()),
        r_squared=r_squared,
    )

