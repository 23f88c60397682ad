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


def cumulative_area_fraction(u: np.ndarray | float, envelope: str) -> np.ndarray | float:
    """Fraction of the total area accumulated by scaled time u in [0, 1]."""
    if envelope == "square":
        return u
    if envelope == "sine_squared":
        # Omega(t) ~ sin^2(pi u); integral is u - sin(2 pi u)/(2 pi).
        return u - np.sin(2 * np.pi * np.asarray(u)) / (2 * np.pi)
    raise ValueError(f"unknown envelope {envelope!r}")


def slice_areas(segment: PulseSegment) -> np.ndarray:
    """Per-slice areas for ``segment.steps`` equal-time slices.

    The slices sum to ``segment.area`` up to rounding; the last slice
    absorbs the closure so downstream products see the exact total.
    """
    grid = np.linspace(0.0, 1.0, segment.steps + 1)
    frac = np.asarray(cumulative_area_fraction(grid, segment.envelope), dtype=float)
    areas = segment.area * np.diff(frac)
    areas[-1] += segment.area - float(np.sum(areas))
    return areas


def slice_schedule(generators, segments, stretch=1.0) -> linalg.Schedule:
    """Every envelope slice of a segment list, as one schedule.

    ``generators`` has shape (..., n_segments, d, d), one unit-envelope
    generator per segment, with optional leading batch axes.  Each segment
    contributes ``segment.steps`` slices that repeat its generator, with
    the areas of ``slice_areas`` times ``stretch`` (a scalar or an array
    over the batch axes, as an envelope-strength error scales them).
    """
    segments = tuple(segments)
    gens = np.asarray(generators)
    if gens.ndim < 3 or gens.shape[-3] != len(segments):
        raise ValueError(f"need one generator per segment, got {gens.shape} for {len(segments)}")
    gens = np.repeat(gens, [seg.steps for seg in segments], axis=-3)
    areas = np.concatenate([slice_areas(seg) for seg in segments])
    return linalg.Schedule(gens, np.asarray(stretch, dtype=float)[..., None] * areas)
