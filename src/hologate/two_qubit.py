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

from . import linalg, pulses

DIM = 5
COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
ANCILLA_LABEL = "a"
LABELS = COMPUTATIONAL_LABELS + (ANCILLA_LABEL,)


def label_index(label: str) -> int:
    try:
        return LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown level label {label!r}") from None


@dataclass(frozen=True)
class TwoQubitErrorModel:
    """Fractional deviation of the single active Rabi frequency."""

    eps_jk: float

    def __post_init__(self):
        if not abs(self.eps_jk) < 1:
            raise ValueError(f"|eps_jk| must be < 1, got {self.eps_jk}")


def segment_generator(jk: str, phi0: float) -> np.ndarray:
    """Single-field generator e^{i phi0}|jk><a| + h.c. at unit envelope."""
    if jk not in COMPUTATIONAL_LABELS:
        raise ValueError(f"{jk!r} is not a computational label")
    a = label_index(ANCILLA_LABEL)
    h = np.zeros((DIM, DIM), dtype=complex)
    h[label_index(jk), a] = np.exp(1j * phi0)
    return h + h.conj().T


# ideal values: the elementary gate is -i|a><a| + i|jk><jk| + rest unchanged,
# and its square flips the sign of |jk> and |a>
ELEMENTARY = pulses.Recipe(lambda jk: (jk,), (0,))
COMPOSITE = pulses.Recipe(lambda jk: (jk,), (0, 0))


def loop_schedule(
    recipe: pulses.Recipe, jk: str, models, envelope="square", steps=1, ordered=False
) -> linalg.Schedule:
    """Every envelope slice of a recipe's loops under each error model (None for no error).

    Each model stretches every segment area by 1 + eps_jk.  Batched over
    (models, loops); with ``ordered``, one model's loops in the recipe's
    time order (``pulses.loop_schedule``).
    """
    loops = recipe.loops(jk)
    phases = pulses.DRIVE_PHASES
    gens = np.array([[segment_generator(label, phi0) for phi0 in phases] for label in loops])
    stretch = np.array([[1.0 + (m.eps_jk if m else 0.0)] * len(loops) for m in models])
    return pulses.loop_schedule(gens, stretch, envelope, steps, recipe.order if ordered else None)
