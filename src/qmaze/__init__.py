"""Grover-style amplitude-amplification solver for perfect mazes.

Layers: classical maze model and fitness reference, a gate-level
reversible-circuit construction of the fitness oracle, an exact
statevector engine for the amplification dynamics, and the adaptive
cutoff loop that ratchets the oracle threshold to the optimum.

The package root imports nothing: callers import the submodule they use,
e.g. ``from qmaze.adaptive import run_adaptive``.
"""

__version__ = "0.1.0"
