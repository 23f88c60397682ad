"""Two-qubit holonomic gates on a five-level model space.

The working basis is (|00>, |01>, |10>, |11>, |a>) where |a> is an
ancillary level orthogonal to the computational span.  A drive couples
one chosen computational state |jk> to |a>, reusing the one-qubit
two-segment loop with |jk> playing the bright state: ``loops`` gives that
ideal drive field.  Squaring the elementary gate yields a diagonal
entangling gate (CZ-class for jk=11).

The error is a single fractional deviation eps_jk of the one active
Rabi frequency, which each ``scaling.GATES`` entry of this family applies
as the factor 1 + eps_jk: with only one field there is no analog of the
bright-angle tilt, so the repetition alone cancels the leading error.
"""

from __future__ import annotations

import numpy as np

COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
LABELS = COMPUTATIONAL_LABELS + ("a",)


def loops(labels) -> np.ndarray:
    """The ideal drive field of a loop on each computational level |jk>: its row, (loops, 5)."""
    for jk in labels:
        if jk not in COMPUTATIONAL_LABELS:
            raise ValueError(f"{jk!r} is not a computational label")
    return np.eye(len(LABELS))[[LABELS.index(jk) for jk in labels]]
