"""Perfect m x m mazes: generation, transition function, path simulation.

A maze's open passages form a spanning tree over the grid, so exactly one
simple path joins any two cells. Three simulation modes cover the three
movement semantics used elsewhere in the package: WALL_AWARE respects
walls and the grid boundary, BOUNDS_ONLY respects the boundary alone, and
WALL_BLIND is unchecked coordinate arithmetic (what the reversible fitness
circuit computes).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Direction(Enum):
    """One cardinal move. Row index i grows southward, column j eastward."""

    N = (-1, 0)
    E = (0, 1)
    S = (1, 0)
    W = (0, -1)

    @property
    def delta(self) -> tuple[int, int]:
        return self.value

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.N: Direction.S,
    Direction.S: Direction.N,
    Direction.E: Direction.W,
    Direction.W: Direction.E,
}

# Hex-digit wall bits used by the file format: set bit = open side.
_SIDE_BIT = {Direction.N: 8, Direction.E: 4, Direction.S: 2, Direction.W: 1}


class SimMode(Enum):
    WALL_AWARE = "wall-aware"
    BOUNDS_ONLY = "bounds"
    WALL_BLIND = "blind"


class MazeFormatError(ValueError):
    """A maze file violates the format or a structural invariant."""


@dataclass(frozen=True)
class Maze:
    """Immutable perfect maze: size, per-cell open sides, start and goal.

    ``open_sides[i][j]`` is a bitmask over _SIDE_BIT. Construction
    validates symmetry, the spanning-tree property, closed border sides,
    and start/goal placement.
    """

    size: int
    open_sides: tuple[tuple[int, ...], ...]
    start: tuple[int, int]
    goal: tuple[int, int]

    def __post_init__(self):
        m = self.size
        if m < 2:
            raise ValueError(f"maze size must be >= 2, got {m}")
        if len(self.open_sides) != m or any(len(row) != m for row in self.open_sides):
            raise MazeFormatError(f"wall grid is not {m}x{m}")
        for cell in (self.start, self.goal):
            if not self.in_grid(cell):
                raise MazeFormatError(f"start/goal cell {cell} outside the grid")
        if self.start == self.goal:
            raise MazeFormatError("start and goal must differ")
        self._validate_walls()

    def _validate_walls(self):
        m = self.size
        passages = 0
        for i in range(m):
            for j in range(m):
                for d in Direction:
                    if not self.is_open((i, j), d):
                        continue
                    di, dj = d.delta
                    ni, nj = i + di, j + dj
                    if not self.in_grid((ni, nj)):
                        raise MazeFormatError(f"open border wall at {(i, j)} side {d.name}")
                    if not self.is_open((ni, nj), d.opposite):
                        raise MazeFormatError(
                            f"wall openness not symmetric: {(i, j)} {d.name} vs "
                            f"{(ni, nj)} {d.opposite.name}"
                        )
                    passages += 1
        passages //= 2  # each passage seen from both sides
        if passages != m * m - 1:
            raise MazeFormatError(
                f"passage graph is not a tree: {passages} passages, expected {m * m - 1}"
            )
        # m^2 - 1 edges + connectivity <=> spanning tree.
        seen = {self.start}
        frontier = deque([self.start])
        while frontier:
            cell = frontier.popleft()
            for d in Direction:
                if self.is_open(cell, d):
                    nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        if len(seen) != m * m:
            raise MazeFormatError(
                f"passage graph is not a tree: only {len(seen)} of {m * m} cells reachable"
            )

    def in_grid(self, cell: tuple[int, int]) -> bool:
        i, j = cell
        return 0 <= i < self.size and 0 <= j < self.size

    def is_open(self, cell: tuple[int, int], d: Direction) -> bool:
        i, j = cell
        return bool(self.open_sides[i][j] & _SIDE_BIT[d])


@dataclass(frozen=True)
class Trajectory:
    """Cells visited by a simulated path, plus where it first got blocked.

    ``cells`` always has n+1 entries; after the first blocked step the
    position freezes, so trailing entries repeat the last legal cell.
    ``fail_step`` is the 1-based index of the first blocked move, or None.
    """

    cells: tuple[tuple[int, int], ...]
    fail_step: int | None = field(default=None)

    @property
    def end(self) -> tuple[int, int]:
        return self.cells[-1]

    @property
    def valid(self) -> bool:
        return self.fail_step is None


def generate_maze(
    m: int,
    seed: int,
    start: tuple[int, int] | None = None,
    goal: tuple[int, int] | None = None,
) -> Maze:
    """Carve a perfect maze with a seeded recursive backtracker.

    Deterministic for a fixed (m, seed). Start defaults to (0, 0) and goal
    to (m-1, m-1).
    """
    if m < 2:
        raise ValueError(f"maze size must be >= 2, got {m}")
    rng = random.Random(seed)
    sides = [[0] * m for _ in range(m)]
    visited = [[False] * m for _ in range(m)]
    stack = [(0, 0)]
    visited[0][0] = True
    directions = list(Direction)
    while stack:
        i, j = stack[-1]
        candidates = []
        for d in directions:
            ni, nj = i + d.delta[0], j + d.delta[1]
            if 0 <= ni < m and 0 <= nj < m and not visited[ni][nj]:
                candidates.append((d, ni, nj))
        if not candidates:
            stack.pop()
            continue
        d, ni, nj = candidates[rng.randrange(len(candidates))]
        sides[i][j] |= _SIDE_BIT[d]
        sides[ni][nj] |= _SIDE_BIT[d.opposite]
        visited[ni][nj] = True
        stack.append((ni, nj))
    return Maze(
        size=m,
        open_sides=tuple(tuple(row) for row in sides),
        start=start if start is not None else (0, 0),
        goal=goal if goal is not None else (m - 1, m - 1),
    )


def transition(
    maze: Maze, cell: tuple[int, int], d: Direction, mode: SimMode
) -> tuple[int, int] | None:
    """One move from ``cell``; None means blocked.

    WALL_AWARE blocks on closed walls and the boundary, BOUNDS_ONLY on the
    boundary alone, WALL_BLIND never blocks (the result may leave the grid).
    """
    i, j = cell
    di, dj = d.delta
    nxt = (i + di, j + dj)
    if mode is SimMode.WALL_BLIND:
        return nxt
    if not maze.in_grid(nxt):
        return None
    if mode is SimMode.WALL_AWARE and not maze.is_open(cell, d):
        return None
    return nxt


def path_end_values(maze: Maze, n: int, mode: SimMode, row_value) -> np.ndarray:
    """A per-row quantity read where each length-``n`` path stops, by path code.

    A path automaton: the rows of its transition table are the cells plus a
    frozen copy of each cell, entered on a blocked move and never left; the
    columns are the directions in ``Direction`` order, which is codec's
    two-bit code order N=0, E=1, S=2, W=3. Every entry comes from
    :func:`transition`. WALL_BLIND rows span the offset grid of side
    ``m + 2n``, which holds every cell reachable in n moves. Because the
    first move sits in the most significant bits, appending one move to
    every path is the gather ``state = table[state].reshape(-1)``.

    ``row_value(cells, frozen)`` gets the (i, j) cell of every row as an
    (R, 2) int64 array and a bool array marking the frozen rows, and returns
    one value per row. A path is blocked (``simulate_path(...).valid`` is
    False) iff it ends in a frozen row. ``n`` is not range-checked here;
    see ``codec.path_count``.
    """
    pad = n if mode is SimMode.WALL_BLIND else 0
    side = maze.size + 2 * pad
    live = [(i - pad, j - pad) for i in range(side) for j in range(side)]
    row_of = {cell: r for r, cell in enumerate(live)}
    count = len(live)
    table = np.empty((2 * count, len(Direction)), dtype=np.intp)
    for r, cell in enumerate(live):
        for col, d in enumerate(Direction):
            # Blocked moves go to the frozen copy; so would a blind move off
            # the offset grid, which is never taken within n moves.
            table[r, col] = row_of.get(transition(maze, cell, d, mode), count + r)
    table[count:] = np.arange(count, 2 * count)[:, None]
    cells = np.array(live + live, dtype=np.int64)
    values = np.asarray(row_value(cells, np.arange(2 * count) >= count))
    state = np.array([row_of[maze.start]], dtype=np.intp)
    if n == 0:
        return values[state]
    for _ in range(n - 1):
        state = table[state].reshape(-1)
    # The last move gathers the values themselves, so no 4**n array of
    # row numbers is ever built.
    return values[table][state].reshape(-1)


def simulate_path(maze: Maze, path, mode: SimMode) -> Trajectory:
    """Walk ``path`` from the start cell, freezing at the first blocked move."""
    pos = maze.start
    cells = [pos]
    fail_step = None
    for step, d in enumerate(path, start=1):
        if fail_step is None:
            nxt = transition(maze, pos, d, mode)
            if nxt is None:
                fail_step = step
            else:
                pos = nxt
        cells.append(pos)
    return Trajectory(cells=tuple(cells), fail_step=fail_step)


def shortest_path_length(maze: Maze, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Length of the unique tree path between two cells (BFS over passages)."""
    for cell in (a, b):
        if not maze.in_grid(cell):
            raise ValueError(f"cell {cell} outside the grid")
    if a == b:
        return 0
    dist = {a: 0}
    frontier = deque([a])
    while frontier:
        cell = frontier.popleft()
        for d in Direction:
            if maze.is_open(cell, d):
                nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                if nxt not in dist:
                    dist[nxt] = dist[cell] + 1
                    if nxt == b:
                        return dist[nxt]
                    frontier.append(nxt)
    raise AssertionError("tree invariant violated: cell unreachable")


def tree_path(maze: Maze, a: tuple[int, int], b: tuple[int, int]) -> tuple[Direction, ...]:
    """The unique direction sequence from a to b along open passages."""
    parent: dict[tuple[int, int], tuple[tuple[int, int], Direction]] = {}
    frontier = deque([a])
    seen = {a}
    while frontier:
        cell = frontier.popleft()
        if cell == b:
            break
        for d in Direction:
            if maze.is_open(cell, d):
                nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (cell, d)
                    frontier.append(nxt)
    steps = []
    cell = b
    while cell != a:
        prev, d = parent[cell]
        steps.append(d)
        cell = prev
    return tuple(reversed(steps))


def serialize_maze(maze: Maze) -> str:
    """Canonical text form; see :func:`parse_maze` for the format."""
    lines = [
        f"{maze.size} {maze.start[0]} {maze.start[1]} {maze.goal[0]} {maze.goal[1]}"
    ]
    for row in maze.open_sides:
        lines.append("".join(format(cell, "x") for cell in row))
    return "\n".join(lines) + "\n"


def parse_maze(text: str) -> Maze:
    """Parse the maze file format.

    Line 1: ``m i_s j_s i_f j_f`` (decimal). Then m lines of m hex digits;
    digit bits 8/4/2/1 mark the open N/E/S/W sides of that cell. Symmetry,
    closed borders, and the spanning-tree property are validated.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MazeFormatError("empty maze file")
    header = lines[0].split()
    if len(header) != 5:
        raise MazeFormatError("header must be 'm i_s j_s i_f j_f'")
    try:
        m, si, sj, gi, gj = (int(tok) for tok in header)
    except ValueError:
        raise MazeFormatError("header fields must be decimal integers") from None
    if m < 2:
        raise MazeFormatError(f"maze size must be >= 2, got {m}")
    if len(lines) != 1 + m:
        raise MazeFormatError(f"expected {m} grid rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != m:
            raise MazeFormatError(f"grid row '{ln}' must have {m} hex digits")
        try:
            rows.append(tuple(int(ch, 16) for ch in ln))
        except ValueError:
            raise MazeFormatError(f"grid row '{ln}' contains a non-hex digit") from None
    return Maze(size=m, open_sides=tuple(rows), start=(si, sj), goal=(gi, gj))
