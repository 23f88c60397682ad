"""Gate fidelity, systematic-error sweeps, and scaling-order fits.

The robustness claim under test is an exponent: plain holonomic gates
lose fidelity at second order in the pulse-strength error, the composite
constructions at fourth order.  Sweeps evaluate infidelity over a
log-spaced error grid and fit a single power law; the slope of the
log-log fit is the measured order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, qutrit, two_qubit

GATE_KINDS = ("single", "composite2", "composite4", "twoqubit_single", "twoqubit_composite")
ERROR_MODES = ("common", "differential", "single_field", "two_qubit")

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
class SweepSpec:
    """One error sweep: which gate, which error channel, which grid.

    error_mode fixes how a single scalar eps feeds the error model:
    common (eps0 = eps1 = eps), differential (eps0 = eps = -eps1),
    single_field (eps0 = eps, eps1 = 0), two_qubit (eps_jk = eps).
    """

    gate_kind: str
    theta: float
    phi: float
    error_mode: str
    epsilons: tuple[float, ...]
    jk: str = "11"

    def __post_init__(self):
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.gate_kind!r}")
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"unknown error mode {self.error_mode!r}")
        eps = tuple(self.epsilons)
        if not eps or not all(0 < e < 1 for e in eps):
            raise ValueError("epsilons must be a nonempty list of values in (0, 1)")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")
        two_qubit_kind = self.gate_kind.startswith("twoqubit")
        if two_qubit_kind != (self.error_mode == "two_qubit"):
            raise ValueError(
                f"error mode {self.error_mode!r} does not fit gate kind {self.gate_kind!r}"
            )


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


def one_qubit_model(mode: str, eps: float) -> qutrit.ErrorModel:
    if mode == "common":
        return qutrit.ErrorModel(eps, eps)
    if mode == "differential":
        return qutrit.ErrorModel(eps, -eps)
    if mode == "single_field":
        return qutrit.ErrorModel(eps, 0.0)
    raise ValueError(f"{mode!r} is not a one-qubit error mode")


def sweep_gates(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """The ideal gate and the error-affected gate at every sweep point.

    Every gate, the ideal (no error model) first, comes from one call of
    the gate module's batched builder, the one its single-gate builder
    calls with one model, so the grid shares its evolutions.  Returns
    (ideal (d, d), actual (n_eps, d, d)).
    """
    if spec.gate_kind.startswith("twoqubit"):
        models = [None] + [two_qubit.TwoQubitErrorModel(eps) for eps in spec.epsilons]
        if spec.gate_kind == "twoqubit_single":
            gates = two_qubit.error_gates(spec.jk, models)
        else:
            gates = two_qubit.composite_gates(spec.jk, models)
        return gates[0], gates[1:]

    frame = qutrit.BrightDarkFrame(spec.theta, spec.phi)
    models = [None] + [one_qubit_model(spec.error_mode, eps) for eps in spec.epsilons]
    if spec.gate_kind == "single":
        gates = qutrit.error_gates(frame, models)
    elif spec.gate_kind == "composite2":
        gates = qutrit.composite_two_gates(frame, models)
    else:
        gates = qutrit.composite_four_gates(frame, models)
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
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        samples=tuple(kept),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
    )


def run_sweep(spec: SweepSpec) -> ScalingFit:
    return fit_power_law(sweep_samples(spec))


def order_ratio_test(gate_builder, eps: float) -> float:
    """infidelity(eps) / infidelity(eps/2); near 2^n for an order-n law.

    ``gate_builder`` maps a scalar error to a gate matrix; the ideal
    reference is the zero-error gate.
    """
    if eps < 1e-7:
        raise DegenerateFitError("eps too small, infidelities would sit at the floor")
    ideal = gate_builder(0.0)
    infid_full = gate_fidelity(ideal, gate_builder(eps)).infidelity
    infid_half = gate_fidelity(ideal, gate_builder(eps / 2.0)).infidelity
    if infid_full <= INFIDELITY_FLOOR or infid_half <= INFIDELITY_FLOOR:
        raise DegenerateFitError("infidelity at the floating-point floor")
    return infid_full / infid_half


def residual_norm_ratio(frame: qutrit.BrightDarkFrame, eps: float) -> float:
    """Norm ratio of the commutator-product residual at eps vs eps/2."""
    if eps < 1e-7:
        raise DegenerateFitError("eps too small for a meaningful residual ratio")
    full = linalg.frobenius_norm(qutrit.bch_residual(frame, eps))
    half = linalg.frobenius_norm(qutrit.bch_residual(frame, eps / 2.0))
    if half == 0:
        raise DegenerateFitError("residual vanished at half eps")
    return full / half
