"""Composite holonomic gate simulation and verification.

Gates on a three-level Lambda system (and a five-level two-qubit model)
are built from two-segment holonomic loops, concatenated into composite
sequences that cancel systematic pulse-strength errors, certified
against the holonomy conditions, and optionally embedded in
decoherence-free ion-register encodings.  ``scaling.GATES`` is the one
table of gates.
"""

from .linalg import Schedule, evolve, expm_hermitian, frobenius_distance
from .qutrit import BrightDarkFrame, ErrorModel, effective_error_params
from .scaling import FidelityResult, ScalingFit, SweepSpec, gate_fidelity

__version__ = "0.1.0"

__all__ = [
    "BrightDarkFrame",
    "ErrorModel",
    "FidelityResult",
    "ScalingFit",
    "Schedule",
    "SweepSpec",
    "effective_error_params",
    "evolve",
    "expm_hermitian",
    "frobenius_distance",
    "gate_fidelity",
]
