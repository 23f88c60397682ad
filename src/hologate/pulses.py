"""Pulse shapes and envelope time-slicing.

Every gate is built from one elementary loop: two segments of area pi/2,
at the drive phases ``DRIVE_PHASES``.  A segment drives a fixed Hermitian
generator direction, so its unitary depends on its total area
A = integral of Omega(t) dt alone; the envelope shape only redistributes
area over time.  A pulse shape is therefore just (envelope, steps), and
the slicing below makes that statement testable: any envelope, sliced and
re-multiplied, must land on the single-exponential result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import linalg

ENVELOPES = ("square", "sine_squared")

# the two segments of an elementary loop, first in time first
DRIVE_PHASES = (math.pi / 2, 0.0)
SEGMENT_AREA = math.pi / 2


def slice_areas(envelope: str, steps: int) -> np.ndarray:
    """Per-slice areas of one area-pi/2 segment cut into ``steps`` equal-time slices.

    The slices sum to pi/2 up to rounding; the last slice absorbs the
    closure so downstream products see the exact total.
    """
    if envelope not in ENVELOPES:
        raise ValueError(f"unknown envelope {envelope!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # fraction of the area accumulated by scaled time u in [0, 1]
    frac = np.linspace(0.0, 1.0, steps + 1)
    if envelope == "sine_squared":
        # Omega(t) ~ sin^2(pi u); integral is u - sin(2 pi u)/(2 pi).
        frac = frac - np.sin(2 * np.pi * frac) / (2 * np.pi)
    areas = SEGMENT_AREA * np.diff(frac)
    areas[-1] += SEGMENT_AREA - float(np.sum(areas))
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


def loop_schedule(generators, stretch, envelope: str, steps: int, order=None) -> linalg.Schedule:
    """Every envelope slice of a batch of elementary loops, as one schedule.

    ``generators`` (..., n_loops, n_segments, d, d) hold each loop's
    unit-envelope segment generators, first in time first.  Each segment
    contributes ``steps`` slices that repeat its generator, with the areas
    of ``slice_areas`` times the loop's ``stretch`` (..., n_loops), as an
    envelope-strength error scales them.  The result keeps the batch axes,
    loops included.  With ``order``, the batch holds one error model and
    the result is its loops back to back in that order, unbatched.
    """
    gens = np.asarray(generators)
    if gens.ndim < 4:
        raise ValueError(f"need (..., loops, segments, d, d) generators, got {gens.shape}")
    areas = np.tile(slice_areas(envelope, steps), gens.shape[-3])
    gens = np.repeat(gens, steps, axis=-3)
    areas = np.asarray(stretch, dtype=float)[..., None] * areas
    if order is not None:
        gens = gens[..., list(order), :, :, :].reshape((-1,) + gens.shape[-2:])
        areas = areas[..., list(order), :].reshape(-1)
    return linalg.Schedule(gens, areas)
