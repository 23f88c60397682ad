"""Two-qubit holonomic gates on a five-level model space.

The working basis is (|00>, |01>, |10>, |11>, |a>) where |a> is an
ancillary level orthogonal to the computational span.  A drive couples
one chosen computational state |jk> to |a>, reusing the one-qubit
two-segment recipe with |jk> playing the bright state.  Squaring the
elementary gate yields a diagonal entangling gate (CZ-class for jk=11).

The error model is a single fractional deviation eps_jk of the one
active Rabi frequency: with only one field there is no analog of the
bright-angle tilt, so the repetition alone cancels the leading error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pulses

DIM = 5
COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
ANCILLA_LABEL = "a"
LABELS = COMPUTATIONAL_LABELS + (ANCILLA_LABEL,)


@dataclass(frozen=True)
class TwoQubitErrorModel:
    """Fractional deviation of the single active Rabi frequency."""

    eps_jk: float

    def __post_init__(self):
        if not abs(self.eps_jk) < 1:
            raise ValueError(f"|eps_jk| must be < 1, got {self.eps_jk}")


# ideal values: the elementary gate is -i|a><a| + i|jk><jk| + rest unchanged,
# and its square flips the sign of |jk> and |a>
ELEMENTARY = pulses.Recipe(lambda jk: (jk,), (0,))
COMPOSITE = pulses.Recipe(lambda jk: (jk,), (0, 0))


def loops(recipe: pulses.Recipe, theta, phi, jk: str, models):
    """Each loop's drive field under each error model (None for no error).

    Returns the (1 + eps_jk)|jk> rows, (models, loops, 5), of a loop
    that drives its level |jk> alone; ``theta`` and ``phi`` are unused.
    """
    if jk not in COMPUTATIONAL_LABELS:
        raise ValueError(f"{jk!r} is not a computational label")
    rows = np.eye(DIM)[[LABELS.index(label) for label in recipe.loops(jk)]]
    amplitudes = np.array([1.0 + (m.eps_jk if m else 0.0) for m in models])
    return amplitudes[:, None, None] * rows
