"""Composite holonomic gate simulation and verification.

Gates on a three-level Lambda system (and a five-level two-qubit model)
are built from two-segment holonomic loops, concatenated into composite
sequences that cancel systematic pulse-strength errors, certified
against the holonomy conditions, and optionally embedded in
decoherence-free ion-register encodings.
"""

from .linalg import Schedule, evolve, expm_hermitian, frobenius_distance
from .pulses import PulseSegment
from .qutrit import (
    BrightDarkFrame,
    ErrorModel,
    bch_residual,
    composite_four,
    composite_two,
    effective_error_params,
    elementary_gate,
    elementary_gate_with_error,
    logical_rotation_target,
)
from .scaling import FidelityResult, ScalingFit, SweepSpec, gate_fidelity, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BrightDarkFrame",
    "ErrorModel",
    "FidelityResult",
    "PulseSegment",
    "ScalingFit",
    "Schedule",
    "SweepSpec",
    "bch_residual",
    "composite_four",
    "composite_two",
    "effective_error_params",
    "elementary_gate",
    "elementary_gate_with_error",
    "evolve",
    "expm_hermitian",
    "frobenius_distance",
    "gate_fidelity",
    "logical_rotation_target",
    "run_sweep",
]
