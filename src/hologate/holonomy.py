"""Certify that a pulse schedule implements a holonomic gate.

Two conditions are checked numerically on a sampled evolution of the
computational subspace: (i) the subspace returns to itself at the final
time (the projector built from the evolved basis closes its loop), and
(ii) the dynamical phase vanishes throughout, i.e. every matrix element
of the instantaneous generator between evolved basis states stays zero.
Residuals for (ii) are reported in units of the peak Rabi frequency so
one dimensionless tolerance covers schedules of any strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled subspace evolution under a piecewise-constant schedule.

    states has shape (n_basis, n_samples, dim): evolved copies of each
    subspace basis vector.  generators has shape (n_segments, dim, dim),
    one per segment, and segment_index[i] is the segment in force at
    sample i (sample 0 belongs to segment 0, and a boundary sample to the
    segment that just ended).  segment_boundaries are sample indices
    closing each segment; the last one is the final sample.
    """

    times: np.ndarray
    states: np.ndarray
    generators: np.ndarray
    segment_index: np.ndarray
    segment_boundaries: tuple[int, ...]

    @property
    def n_segments(self) -> int:
        return len(self.segment_boundaries)

    def projector(self, sample: int) -> np.ndarray:
        vecs = self.states[:, sample, :]
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

    Each segment is subdivided into samples_per_segment equal-area slices
    and the states are stored after every slice.
    """
    n = samples_per_segment
    if n < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if schedule.generators.ndim != 3 or schedule.areas.ndim != 1:
        raise ValueError("a trace follows one schedule, not a batch")
    basis = np.array([np.asarray(v, dtype=complex) for v in subspace_basis])
    gram = basis.conj() @ basis.T
    if linalg.frobenius_norm(gram - np.eye(len(basis))) > 1e-10:
        raise ValueError("subspace basis is not orthonormal")
    generators, areas = schedule.generators, schedule.areas
    n_segments, dim = schedule.n_segments, generators.shape[-1]
    if basis.shape[1] != dim:
        raise ValueError("basis dimension does not match schedule generators")

    slice_steps = linalg.exponentials(linalg.Schedule(generators, areas / n))
    # one sequential sum of area / n per slice, as a running clock would add them
    times = np.cumsum(np.concatenate(([0.0], np.repeat(areas / n, n))))
    states = np.empty((len(basis), 1 + n_segments * n, dim), dtype=complex)
    states[:, 0, :] = basis
    for s, power in enumerate(slice_steps):
        # seg[:, j] is the state j slices into the segment, seg[:, 0] its start;
        # each round fills the next k slices from the first k by step^m
        seg = states[:, s * n : (s + 1) * n + 1, :]
        m = 1
        while m <= n:
            k = min(m, n + 1 - m)
            seg[:, m : m + k, :] = seg[:, :k, :] @ power.T
            m *= 2
            if m <= n:
                power = power @ power

    return EvolutionTrace(
        times=times,
        states=states,
        generators=generators,
        segment_index=np.concatenate(([0], np.repeat(np.arange(n_segments), n))),
        segment_boundaries=tuple(range(n, n_segments * n + 1, n)),
    )


def peak_rabi(trace: EvolutionTrace) -> float:
    """Largest spectral norm among the schedule generators."""
    return float(np.max(np.abs(np.linalg.eigvalsh(trace.generators))))


def check_holonomy(trace: EvolutionTrace, tolerance: float = 1e-8) -> HolonomyReport:
    """Evaluate loop closure and dynamical-phase residuals for a trace."""
    n_samples = trace.states.shape[1]
    cond1 = linalg.frobenius_distance(
        trace.projector(n_samples - 1), trace.projector(0)
    )

    scale = peak_rabi(trace)
    worst = 0.0
    start = 0
    for gen, stop in zip(trace.generators, trace.segment_boundaries):
        # rows[b, i] is basis vector b at sample i of this segment's block
        rows = trace.states[:, start : stop + 1, :]
        left = (rows.conj() @ gen).transpose(1, 0, 2)
        elements = left @ rows.transpose(1, 2, 0)
        worst = max(worst, float(np.max(np.abs(elements))))
        start = stop + 1
    cond2 = worst / scale if scale > 0 else worst

    passed = cond1 <= tolerance and cond2 <= tolerance
    return HolonomyReport(
        cond1_residual=cond1, cond2_max=cond2, passed=passed, tolerance=tolerance
    )


def grassmannian_midpoint_check(trace: EvolutionTrace) -> float:
    """Subspace displacement at the boundary of a two-segment loop.

    For the standard elementary schedule the bright direction has fully
    rotated into the excited level at the half-way point, so the
    projector sits maximally far from its origin before the second
    segment brings it back.
    """
    if trace.n_segments != 2:
        raise ValueError("midpoint check expects a two-segment trace")
    mid = trace.segment_boundaries[0]
    return linalg.frobenius_distance(trace.projector(mid), trace.projector(0))
