"""Composite holonomic gate simulation and verification.

Gates on a three-level Lambda system (and a five-level two-qubit model)
are built from two-segment holonomic loops, concatenated into composite
sequences that cancel systematic pulse-strength errors, certified
against the holonomy conditions, and optionally embedded in
decoherence-free ion-register encodings.  ``scaling.GATES`` is the one
table of gates.  The API is the submodules (``from hologate import
scaling``); importing the package alone loads none of them.
"""

__version__ = "0.1.0"
