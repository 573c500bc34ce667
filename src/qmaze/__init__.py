"""Grover-style amplitude-amplification solver for perfect mazes.

Layers: classical maze model and fitness reference, a gate-level
reversible-circuit construction of the fitness oracle, an exact
statevector engine for the amplification dynamics, and the adaptive
cutoff loop that ratchets the oracle threshold to the optimum.
"""

from .adaptive import (
    CutoffTrace,
    Policy,
    SearchConfig,
    Status,
    Strictness,
    run_adaptive,
    update_cutoff,
)
from .codec import decode_index, encode_direction, encode_path, path_count
from .engine import (
    GroverGeometry,
    PathState,
    apply_diffuser,
    apply_oracle,
    grover_iterate,
    measure,
    optimal_rounds,
    prepare_uniform,
    rotation_spectrum,
)
from .fitness import FitnessLandscape, FitnessSpec, Formula, landscape, make_spec
from .maze import (
    Direction,
    Maze,
    MazeFormatError,
    SimMode,
    Trajectory,
    generate_maze,
    parse_maze,
    serialize_maze,
    shortest_path_length,
    simulate_path,
    transition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
