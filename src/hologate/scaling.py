"""Gate fidelity, systematic-error sweeps, and scaling-order fits.

The robustness claim under test is an exponent: plain holonomic gates
lose fidelity at second order in the pulse-strength error, the composite
constructions at fourth order.  Sweeps evaluate infidelity over a
log-spaced error grid and fit a single power law; the slope of the
log-log fit is the measured order.
"""

from __future__ import annotations

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
    u = linalg.as_complex_matrix(u_ideal)
    v = linalg.as_complex_matrix(v_actual)
    if u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(_fidelities(u, v))


def _fidelities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """gate_fidelity of one ideal (d, d) against a stack of gates (..., d, d)."""
    return np.abs(np.einsum("ij,...ij->...", u.conj(), v)) / np.vdot(u, u).real


@dataclass(frozen=True)
class Gate:
    """One gate of the scheme: the only way the package builds a gate.

    ``recipe`` (``pulses.Recipe``) lists the gate's distinct loops and the
    order they run in, and ``loops(recipe, theta, phi, jk, models)`` is its
    family's map from error models to each loop's drive field (models,
    loops, d) (``qutrit.loops`` or ``two_qubit.loops``), which
    ``pulses.loop_schedule`` drives.  The last of the ``labels`` is the
    auxiliary level and the others span the holonomy subspace;
    ``error_modes`` maps a sweep mode to the ``error_model`` of one eps.
    """

    recipe: pulses.Recipe
    loops: Callable[..., np.ndarray]
    labels: tuple[str, ...]
    error_model: type
    error_modes: dict[str, Callable[[float], object]]

    def build(self, theta, phi, jk, models, envelope="square", steps=1) -> np.ndarray:
        """One gate per error model (None for ideal), shape (len(models), d, d).

        Each distinct loop of every model is evolved once, as its own batch
        entry; the gate is the ``linalg.product`` of their unitaries in ``order``.
        """
        field = self.loops(self.recipe, theta, phi, jk, models)
        unitaries = linalg.evolve(pulses.loop_schedule(field[..., None, :], envelope, steps))
        return linalg.product(unitaries[:, list(self.recipe.order)])

    def schedule(self, theta, phi, jk, model=None) -> linalg.Schedule:
        """The loops under one error model back to back in time order, square pulses.

        With no model this is the schedule check-holonomy certifies.
        """
        field = self.loops(self.recipe, theta, phi, jk, (model,))
        return pulses.loop_schedule(field[0, list(self.recipe.order)], "square", 1)

    def subspace_basis(self) -> np.ndarray:
        return np.eye(len(self.labels), dtype=complex)[:-1]


QUTRIT_MODES = {
    "common": lambda eps: qutrit.ErrorModel(eps, eps),
    "differential": lambda eps: qutrit.ErrorModel(eps, -eps),
    "single_field": lambda eps: qutrit.ErrorModel(eps, 0.0),
}


def _qutrit_gate(recipe) -> Gate:
    return Gate(recipe, qutrit.loops, qutrit.BASIS_LABELS, qutrit.ErrorModel, QUTRIT_MODES)


def _two_qubit_gate(recipe) -> Gate:
    error_modes = {"two_qubit": two_qubit.TwoQubitErrorModel}
    return Gate(recipe, two_qubit.loops, two_qubit.LABELS, two_qubit.TwoQubitErrorModel, error_modes)


GATES = {
    "elementary": _qutrit_gate(qutrit.ELEMENTARY),
    "composite2": _qutrit_gate(qutrit.COMPOSITE_TWO),
    "composite4": _qutrit_gate(qutrit.COMPOSITE_FOUR),
    "twoqubit_elementary": _two_qubit_gate(two_qubit.ELEMENTARY),
    "twoqubit_composite": _two_qubit_gate(two_qubit.COMPOSITE),
}
# aliases: sweeps have always called the elementary gates "single"
GATES["single"] = GATES["elementary"]
GATES["twoqubit_single"] = GATES["twoqubit_elementary"]


@dataclass(frozen=True)
class SweepSpec:
    """One error sweep: which gate, which error channel, which grid.

    error_mode names one of the gate's ``error_modes``, which fixes how a
    single scalar eps feeds the error model.
    """

    gate_kind: str
    theta: float
    phi: float
    error_mode: str
    epsilons: tuple[float, ...]
    jk: str = "11"

    def __post_init__(self):
        if self.gate_kind not in GATES:
            raise ValueError(f"unknown gate kind {self.gate_kind!r}")
        if self.error_mode not in GATES[self.gate_kind].error_modes:
            raise ValueError(
                f"error mode {self.error_mode!r} does not fit gate kind {self.gate_kind!r}"
            )
        eps = tuple(self.epsilons)
        if not eps or not all(0 < e < 1 for e in eps):
            raise ValueError("epsilons must be a nonempty list of values in (0, 1)")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")


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
    return tuple(float(e) for e in np.logspace(-3.0, -1.5, points))


def sweep_samples(spec: SweepSpec) -> list[tuple[float, float]]:
    """(eps, infidelity) points in grid order, floor points included.

    Every gate, the ideal (no error model) first, comes from one call of
    the gate's batched builder, so the grid shares its evolutions.
    """
    gate = GATES[spec.gate_kind]
    mode = gate.error_modes[spec.error_mode]
    models = [None] + [mode(eps) for eps in spec.epsilons]
    gates = gate.build(spec.theta, spec.phi, spec.jk, models)
    infidelities = 1.0 - _fidelities(gates[0], gates[1:])
    return list(zip(spec.epsilons, infidelities.tolist()))


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

