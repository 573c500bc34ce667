from __future__ import annotations

import numpy as np
import pytest

from qmaze.fitness import FitnessLandscape
from qmaze.maze import Maze
from reference import trie_automaton

# The canonical 2x2 example: start (0,0), goal (1,1), unique solution S->E.
# Passages: (0,0)-(1,0), (1,0)-(1,1), (0,0)-(0,1).
EXAMPLE_SIDES = ((0b0110, 0b0001), (0b1100, 0b0001))


@pytest.fixture
def example_maze() -> Maze:
    return Maze(size=2, open_sides=EXAMPLE_SIDES, start=(0, 0), goal=(1, 1))


@pytest.fixture
def landscape_of():
    """Build a landscape from hand-written values on a trie automaton, its histogram counted by ``np.unique``."""

    def build(n: int, values) -> FitnessLandscape:
        levels, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
        return FitnessLandscape(n, *trie_automaton(n, values), levels, counts.astype(np.int64))

    return build
