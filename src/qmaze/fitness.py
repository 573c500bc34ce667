"""Classical fitness reference: the ground truth the circuits are checked against.

A path scores C minus the squared Euclidean distance from its end cell to
the goal. Two formula variants exist: the power-of-two offset C = 2**r
(the default) and the linear offset C = 2m used in small worked examples.

:func:`fitness` scores one path by walking it with ``simulate_path``; that
scalar walk is the reference the landscape is tested against. The
landscape scores all 4**n paths at once: gathers over the cell /
frozen-cell transition table of ``maze.path_end_histogram``, one per move,
the last of which reads a per-row fitness array. A forward count over the
same table gives the number of paths on each value without a 4**n pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import codec
from .maze import Maze, SimMode, path_end_histogram, simulate_path


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
    """Fitness of every length-n path, indexed by the path encoding, and its histogram."""

    n: int
    values: np.ndarray  # shape (4**n,), int64
    levels: np.ndarray  # the distinct fitness values, ascending
    counts: np.ndarray  # int64 paths per level, each >= 1

    @property
    def f_max(self) -> int:
        return int(self.levels[-1])


def landscape(maze: Maze, n: int, spec: FitnessSpec) -> FitnessLandscape:
    """Tabulate fitness over all 4**n paths.

    Raises ValueError if n is negative or above ``codec.MAX_PATH_LENGTH``.
    """
    codec.path_count(n)
    goal = np.array(maze.goal)
    values, levels, counts = path_end_histogram(
        maze, n, spec.mode, lambda cells, _: spec.offset - ((cells - goal) ** 2).sum(axis=1)
    )
    return FitnessLandscape(n=n, values=values, levels=levels, counts=counts)

