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
import numbers

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
    if not isinstance(steps, numbers.Integral) or isinstance(steps, bool):
        raise ValueError(f"steps must be an integer, got {steps!r}")
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


def loop_schedule(field, envelope: str, steps: int) -> linalg.Schedule:
    """Every envelope slice of elementary loops run back to back, as one schedule.

    Loop k drives ``field[..., k, :]`` (..., n_loops, d), each level's
    unnormalised coupling to the last, auxiliary level (whose entry must
    be zero): its segments run e^{i phi0} |f><last| + h.c. at the drive phases
    ``DRIVE_PHASES``, each in ``steps`` slices with the areas of
    ``slice_areas``.  The loops run in k order, first in time first, and
    the result keeps the leading batch axes.
    """
    field = np.asarray(field, dtype=complex)
    if field.ndim < 2:
        raise ValueError(f"need (..., loops, d) drive fields, got shape {field.shape}")
    d = field.shape[-1]
    if field[..., -1:].any():  # NaN counts as nonzero
        raise ValueError(f"the auxiliary level {d - 1} has no drive field: field[..., -1] must be 0")
    areas = np.tile(slice_areas(envelope, steps), len(DRIVE_PHASES) * field.shape[-2])
    # e^{i phi0} f_i (..., loops, segments, 1, d - 1), on every level but the last
    column = np.exp(1j * np.array(DRIVE_PHASES))[:, None, None] * field[..., None, None, :-1]
    gens = np.zeros(column.shape[:-2] + (steps, d, d), dtype=complex)
    gens[..., :-1, -1] = column
    gens[..., -1, :-1] = column.conj()
    return linalg.Schedule(gens.reshape(field.shape[:-2] + (areas.size, d, d)), areas)
