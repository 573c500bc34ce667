"""Classical fitness reference: the ground truth the circuits are checked against.

A path scores C minus the squared Euclidean distance from its end cell to
the goal. Two formula variants exist: the power-of-two offset C = 2**r
(the default) and the linear offset C = 2m used in small worked examples.

:func:`fitness` scores one path by walking it with ``simulate_path``; that
scalar walk is the reference the landscape is tested against. The
landscape is the path automaton of ``maze.path_automaton`` with a fitness
on each row: a path scores the value of the row its n moves reach. A
forward count over the table gives the number of paths on each value, and
the 4**n per-path ``values``, one gather per move, are built only when read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codec
from .maze import Maze, SimMode, end_histogram, end_values, path_automaton, simulate_path


class Formula(enum.Enum):
    MAIN = "maintext"
    APPENDIX = "appendix"


@dataclass(frozen=True)
class FitnessSpec:
    """Offset constant and sim mode."""

    offset: int  # C
    mode: SimMode


def make_spec(m: int, formula: Formula = Formula.MAIN, mode: SimMode = SimMode.WALL_AWARE) -> FitnessSpec:
    """Fitness spec for an m x m maze.

    MAIN picks the smallest power of two strictly above 2*(m-1)**2 (so the
    maximum fitness C is attained exactly at the goal and m=2 gives C=4);
    APPENDIX uses C = 2m.
    """
    if m < 2:
        raise ValueError(f"maze size must be >= 2, got {m}")
    if formula is Formula.MAIN:
        return FitnessSpec(offset=1 << (2 * (m - 1) ** 2).bit_length(), mode=mode)
    return FitnessSpec(offset=2 * m, mode=mode)


def fitness(maze: Maze, path, spec: FitnessSpec) -> int:
    """Score one direction sequence. May be negative under WALL_BLIND."""
    end = simulate_path(maze, path, spec.mode).end
    gi, gj = maze.goal
    d = (end[0] - gi) ** 2 + (end[1] - gj) ** 2
    return spec.offset - d


@dataclass(frozen=True)
class FitnessLandscape:
    """Fitness of every length-n path as a path automaton, and its histogram.

    ``table[row, move]`` is the row one move leads to; a path's fitness is
    ``row_values`` at the row its n moves reach from ``start``.
    """

    n: int
    table: np.ndarray  # (rows, 4) intp
    row_values: np.ndarray  # int64, one per row
    start: int
    levels: np.ndarray  # the distinct path fitness values, ascending
    counts: np.ndarray  # int64 paths per level, each >= 1

    @property
    def f_max(self) -> int:
        return int(self.levels[-1])

    @cached_property
    def values(self) -> np.ndarray:
        """Fitness of every path, indexed by the path encoding: shape (4**n,), int64; built on first read."""
        return end_values(self.n, self.table, self.row_values, self.start)

    @cached_property
    def moves(self) -> list[list[int]]:
        """``table`` as nested lists of Python ints, for walks one path at a time."""
        return self.table.tolist()

    def value(self, index: int) -> int:
        """Fitness of the path with code ``index``, read along its n moves, first move in the top bits."""
        row, moves = self.start, self.moves
        for shift in range(2 * self.n - 2, -1, -2):
            row = moves[row][index >> shift & 3]
        return int(self.row_values[row])


def landscape(maze: Maze, n: int, spec: FitnessSpec) -> FitnessLandscape:
    """The fitness landscape over all 4**n paths, without a 4**n pass.

    Raises ValueError if n is negative or above ``codec.MAX_PATH_LENGTH``.
    """
    codec.path_count(n)
    goal = np.array(maze.goal)
    automaton = path_automaton(maze, n, spec.mode, lambda cells, _: spec.offset - ((cells - goal) ** 2).sum(axis=1))
    return FitnessLandscape(n, *automaton, *end_histogram(n, *automaton))
