"""Pulse segments and envelope time-slicing.

A segment drives a fixed Hermitian generator direction for a given total
area A = integral of Omega(t) dt.  Because the direction never changes
inside a segment, the segment unitary depends on A alone; the envelope
shape only redistributes area over time.  The slicing below makes that
statement testable: any envelope, sliced and re-multiplied, must land on
the single-exponential result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import linalg

ENVELOPES = ("square", "sine_squared")


@dataclass(frozen=True)
class PulseSegment:
    """One constant-direction drive interval.

    area      target integral of the Rabi envelope, radians; must be > 0
    phi0      laser phase selecting the generator direction
    envelope  "square" or "sine_squared"
    steps     number of equal-time slices used when building the unitary
    """

    area: float
    phi0: float
    envelope: str = "square"
    steps: int = 1

    def __post_init__(self):
        if self.area <= 0:
            raise ValueError(f"segment area must be positive, got {self.area}")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def default_segments(envelope: str = "square", steps: int | None = None):
    """The area-pi/2 segment pair of an elementary gate: drive phase pi/2, then 0."""
    if steps is None:
        steps = 1 if envelope == "square" else 32
    return tuple(
        PulseSegment(area=math.pi / 2, phi0=phi0, envelope=envelope, steps=steps)
        for phi0 in (math.pi / 2, 0.0)
    )


DEFAULT_SEGMENTS = default_segments()


def elementary_segments(segments) -> tuple[PulseSegment, PulseSegment]:
    """Check the two nominal area-pi/2 segments of an elementary gate."""
    segments = tuple(segments)
    if len(segments) != 2:
        raise ValueError("elementary gate takes exactly two segments")
    for seg in segments:
        if abs(seg.area - math.pi / 2) > 1e-12:
            raise ValueError("elementary segments must have nominal area pi/2")
    return segments


def slice_areas(segment: PulseSegment) -> np.ndarray:
    """Per-slice areas for ``segment.steps`` equal-time slices.

    The slices sum to ``segment.area`` up to rounding; the last slice
    absorbs the closure so downstream products see the exact total.
    """
    # fraction of the area accumulated by scaled time u in [0, 1]
    frac = np.linspace(0.0, 1.0, segment.steps + 1)
    if segment.envelope == "sine_squared":
        # Omega(t) ~ sin^2(pi u); integral is u - sin(2 pi u)/(2 pi).
        frac = frac - np.sin(2 * np.pi * frac) / (2 * np.pi)
    areas = segment.area * np.diff(frac)
    areas[-1] += segment.area - float(np.sum(areas))
    return areas


@dataclass(frozen=True)
class Recipe:
    """A gate as elementary loops run back to back.

    ``loops`` maps the gate's parameter (a bright angle, or a two-qubit
    level label) to the parameters of its distinct loops, and ``order``
    lists loop indices in time order, first in time first.
    """

    loops: Callable[..., tuple]
    order: tuple[int, ...]

    def fold(self, unitaries: np.ndarray) -> np.ndarray:
        """The gate from loop unitaries (models, loops, d, d): one (d, d) per model.

        Later loops multiply on the left, folded from the last in time:
        order (0, 0, 1, 1) gives ((U1 @ U1) @ U0) @ U0.
        """
        gate = unitaries[:, self.order[-1]]
        for k in reversed(self.order[:-1]):
            gate = gate @ unitaries[:, k]
        return gate


def loop_schedule(generators, stretch, segments, order=None) -> linalg.Schedule:
    """Every envelope slice of a batch of elementary loops, as one schedule.

    ``generators`` (..., n_loops, n_segments, d, d) hold each loop's
    unit-envelope segment generators, first in time first.  Each segment
    contributes ``segment.steps`` slices that repeat its generator, with
    the areas of ``slice_areas`` times the loop's ``stretch`` (..., n_loops),
    as an envelope-strength error scales them.  The result keeps the batch
    axes, loops included.  With ``order``, the batch holds one error model
    and the result is its loops back to back in that order, unbatched.
    """
    segments = tuple(segments)
    gens = np.asarray(generators)
    if gens.ndim < 4 or gens.shape[-3] != len(segments):
        raise ValueError(f"need one generator per segment, got {gens.shape} for {len(segments)}")
    gens = np.repeat(gens, [seg.steps for seg in segments], axis=-3)
    areas = np.concatenate([slice_areas(seg) for seg in segments])
    areas = np.asarray(stretch, dtype=float)[..., None] * areas
    if order is not None:
        gens = gens[..., list(order), :, :, :].reshape((-1,) + gens.shape[-2:])
        areas = areas[..., list(order), :].reshape(-1)
    return linalg.Schedule(gens, areas)
