"""Certify that a pulse schedule implements a holonomic gate.

Two conditions are checked on the evolution of the computational subspace:
(i) the subspace returns to itself at the final time (its projector closes
the loop), and (ii) the dynamical phase vanishes throughout, i.e. every
element <b(t)|H|c(t)> of the generator between evolved basis states is zero.
A segment's generator commutes with its propagator, so each element is
constant over the segment: the states at the segment boundaries decide both
conditions exactly.  Residuals for (ii) are in units of the peak Rabi
frequency, so one dimensionless tolerance covers schedules of any strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class EvolutionTrace:
    """Subspace evolution under a piecewise-constant schedule, at its segment boundaries.

    levels holds the sorted register levels that some generator couples or
    some basis vector occupies, as ``linalg.exponentials`` returns them; the
    other levels stay exactly zero and are not stored.  states has shape
    (n_basis, n_segments + 1, n_levels): boundary k holds each basis vector
    at the start of segment k, the last one the final state.  generators
    has shape (n_segments, n_levels, n_levels).
    """

    levels: np.ndarray
    states: np.ndarray
    generators: np.ndarray

    @property
    def n_segments(self) -> int:
        return len(self.generators)

    def projector(self, boundary: int) -> np.ndarray:
        vecs = self.states[:, boundary, :]
        return vecs.T @ vecs.conj()


@dataclass(frozen=True)
class HolonomyReport:
    cond1_residual: float
    cond2_max: float
    passed: bool
    tolerance: float


def trace_evolution(
    schedule: linalg.Schedule, subspace_basis, samples_per_segment: int = 128
) -> EvolutionTrace:
    """Propagate an orthonormal subspace basis through an unbatched schedule.

    Each segment is exponentiated once, on the coupled and occupied
    levels, and the states are kept at every boundary.  samples_per_segment
    must be at least 1 and changes nothing: no state inside a segment is needed.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if schedule.generators.ndim != 3 or schedule.areas.ndim != 1:
        raise ValueError("a trace follows one schedule, not a batch")
    basis = np.array([np.asarray(v, dtype=complex) for v in subspace_basis])
    if basis.ndim != 2 or len(basis) == 0:
        raise ValueError(f"subspace basis must hold at least one vector, got shape {basis.shape}")
    if not np.linalg.norm(basis.conj() @ basis.T - np.eye(len(basis))) <= 1e-10:  # NaN fails it too
        raise ValueError("subspace basis is not orthonormal")
    if basis.shape[1] != schedule.generators.shape[-1]:
        raise ValueError("basis dimension does not match schedule generators")
    levels, steps = linalg.exponentials(schedule, basis)
    states = np.empty((len(basis), len(steps) + 1, len(levels)), dtype=complex)
    states[:, 0, :] = basis[:, levels]
    for k, step in enumerate(steps):
        states[:, k + 1, :] = states[:, k, :] @ step.T
    return EvolutionTrace(levels=levels, states=states, generators=schedule.generators[:, levels[:, None], levels])


def peak_rabi(trace: EvolutionTrace) -> float:
    """Largest spectral norm among the schedule generators."""
    return float(np.max(np.abs(np.linalg.eigvalsh(trace.generators))))


def check_holonomy(trace: EvolutionTrace, tolerance: float = 1e-8) -> HolonomyReport:
    """Evaluate loop closure and dynamical-phase residuals for a trace."""
    cond1 = float(np.linalg.norm(trace.projector(-1) - trace.projector(0)))
    # every <b_k| G_k |c_k> over the states b_k, c_k at the start of segment k
    starts = trace.states[:, :-1, :]
    worst = float(np.max(np.abs(np.einsum("bkx,kxy,cky->kbc", starts.conj(), trace.generators, starts))))
    scale = peak_rabi(trace)
    cond2 = worst / scale if scale > 0 else worst
    return HolonomyReport(cond1, cond2, cond1 <= tolerance and cond2 <= tolerance, tolerance)


def grassmannian_midpoint_check(trace: EvolutionTrace) -> float:
    """Subspace displacement at the boundary of a two-segment loop.

    For the standard elementary schedule the bright direction has fully
    rotated into the excited level at the half-way point, so the
    projector sits maximally far from its origin before the second
    segment brings it back.
    """
    if trace.n_segments != 2:
        raise ValueError("midpoint check expects a two-segment trace")
    return float(np.linalg.norm(trace.projector(1) - trace.projector(0)))
