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

from . import linalg, qutrit, two_qubit

# Below this the infidelity is double-precision noise, not physics.
INFIDELITY_FLOOR = 1e-14


class DegenerateFitError(RuntimeError):
    """Raised when every sweep point sits at the floating-point floor."""


@dataclass(frozen=True)
class FidelityResult:
    value: float

    @property
    def infidelity(self) -> float:
        return 1.0 - self.value


def gate_fidelity(u_ideal: np.ndarray, v_actual: np.ndarray) -> FidelityResult:
    """Trace overlap |Tr(U^dag V)| / Tr(U^dag U), global-phase invariant."""
    u = linalg.as_complex_matrix(u_ideal)
    v = linalg.as_complex_matrix(v_actual)
    if u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return FidelityResult(value=float(_fidelities(u, v)))


def _fidelities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """gate_fidelity of one ideal (d, d) against a stack of gates (..., d, d)."""
    return np.abs(np.einsum("ij,...ij->...", u.conj(), v)) / np.vdot(u, u).real


@dataclass(frozen=True)
class Gate:
    """One gate of the scheme, as the CLI and the sweeps use it.

    Both callables come from the gate's recipe (``pulses.Recipe``): its
    distinct loops and the order they run in.  build(theta, phi, jk,
    models, segments) makes one gate per error model (None for ideal) from
    one evolution of the distinct loops; schedule(theta, phi, jk) runs the
    ideal loops back to back in time order at ``DEFAULT_SEGMENTS``, as
    check-holonomy certifies it on the span of the ``subspace`` levels.
    ``error_modes`` maps a sweep mode to the ``error_model`` of one eps;
    three-level gates also report the rotated (excited, bright, dark) frame.
    """

    build: Callable[..., np.ndarray]
    schedule: Callable[[float, float, str], linalg.Schedule]
    labels: tuple[str, ...]
    subspace: tuple[str, ...]
    error_model: type
    error_modes: dict[str, Callable[[float], object]]
    rotated_frame: bool

    def subspace_basis(self) -> np.ndarray:
        return np.eye(len(self.labels), dtype=complex)[[self.labels.index(s) for s in self.subspace]]


QUTRIT_MODES = {
    "common": lambda eps: qutrit.ErrorModel(eps, eps),
    "differential": lambda eps: qutrit.ErrorModel(eps, -eps),
    "single_field": lambda eps: qutrit.ErrorModel(eps, 0.0),
}


def _qutrit_gate(recipe) -> Gate:
    return Gate(
        build=lambda theta, phi, jk, models, segments: qutrit.gates(
            recipe, qutrit.BrightDarkFrame(theta, phi), models, segments
        ),
        schedule=lambda theta, phi, jk: qutrit.loop_schedule(
            recipe, theta, phi, (None,), ordered=True
        ),
        labels=qutrit.BASIS_LABELS,
        subspace=("0", "1"),
        error_model=qutrit.ErrorModel,
        error_modes=QUTRIT_MODES,
        rotated_frame=True,
    )


def _two_qubit_gate(recipe) -> Gate:
    return Gate(
        build=lambda theta, phi, jk, models, segments: two_qubit.gates(recipe, jk, models, segments),
        schedule=lambda theta, phi, jk: two_qubit.loop_schedule(recipe, jk, (None,), ordered=True),
        labels=two_qubit.LABELS,
        subspace=two_qubit.COMPUTATIONAL_LABELS,
        error_model=two_qubit.TwoQubitErrorModel,
        error_modes={"two_qubit": two_qubit.TwoQubitErrorModel},
        rotated_frame=False,
    )


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


def sweep_gates(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """The ideal gate and the error-affected gate at every sweep point.

    Every gate, the ideal (no error model) first, comes from one call of
    the gate's batched builder, so the grid shares its evolutions.
    Returns (ideal (d, d), actual (n_eps, d, d)).
    """
    gate = GATES[spec.gate_kind]
    mode = gate.error_modes[spec.error_mode]
    models = [None] + [mode(eps) for eps in spec.epsilons]
    gates = gate.build(spec.theta, spec.phi, spec.jk, models, qutrit.DEFAULT_SEGMENTS)
    return gates[0], gates[1:]


def sweep_samples(spec: SweepSpec) -> list[tuple[float, float]]:
    """(eps, infidelity) points in grid order, floor points included."""
    ideal, actual = sweep_gates(spec)
    infidelities = 1.0 - _fidelities(ideal, actual)
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


def run_sweep(spec: SweepSpec) -> ScalingFit:
    return fit_power_law(sweep_samples(spec))
