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

# Per direction, in Direction order: (di, dj, own side bit, neighbour's side
# bit). The hot loops index this instead of hashing enum members.
_STEPS = tuple((*d.delta, _SIDE_BIT[d], _SIDE_BIT[d.opposite]) for d in Direction)


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
        rows = self.open_sides
        passages = 0
        for i, row in enumerate(rows):
            for j, sides in enumerate(row):
                for k, (di, dj, bit, back) in enumerate(_STEPS):
                    if not sides & bit:
                        continue
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < m and 0 <= nj < m):
                        d = list(Direction)[k]
                        raise MazeFormatError(f"open border wall at {(i, j)} side {d.name}")
                    if not rows[ni][nj] & back:
                        d = list(Direction)[k]
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
        frontier = [self.start]
        for i, j in frontier:  # the loop reaches cells appended during it
            for di, dj, bit, _ in _STEPS:
                if rows[i][j] & bit and (nxt := (i + di, j + dj)) not in seen:
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


def generate_maze(m: int, seed: int) -> Maze:
    """Carve a perfect maze with a seeded recursive backtracker.

    Deterministic for a fixed (m, seed). Start is (0, 0) and goal (m-1, m-1);
    the carve does not depend on them, so ``dataclasses.replace`` places them
    elsewhere.
    """
    if m < 2:
        raise ValueError(f"maze size must be >= 2, got {m}")
    rng = random.Random(seed)
    # Cell (i, j) is c = (i + 1) * w + j + 1 in a grid with a border ring
    # marked visited, so the ring stands in for the bounds checks.
    w = m + 2
    visited = [True] * (w * w)
    for i in range(1, m + 1):
        visited[i * w + 1 : i * w + m + 1] = [False] * m
    sides = [0] * (w * w)
    steps = [(di * w + dj, bit, back) for di, dj, bit, back in _STEPS]
    stack = [w + 1]
    visited[w + 1] = True
    while stack:
        c = stack[-1]
        candidates = [(c + off, bit, back) for off, bit, back in steps if not visited[c + off]]
        if not candidates:
            stack.pop()
            continue
        nxt, bit, back = candidates[rng.randrange(len(candidates))]
        sides[c] |= bit
        sides[nxt] |= back
        visited[nxt] = True
        stack.append(nxt)
    return Maze(
        size=m,
        # A list, not a generator, so tuple() allocates the final size rather than resizing a guess.
        open_sides=tuple([tuple(sides[i * w + 1 : i * w + m + 1]) for i in range(1, m + 1)]),
        start=(0, 0),
        goal=(m - 1, m - 1),
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


def path_automaton(maze: Maze, n: int, mode: SimMode, row_value) -> tuple[np.ndarray, np.ndarray, int]:
    """The path automaton's transition table, its per-row values and its start row.

    The rows of the table are the cells plus a frozen copy of each cell,
    entered on a blocked move and never left; the columns are the directions
    in ``Direction`` order, which is codec's two-bit code order N=0, E=1,
    S=2, W=3. The table is built vectorised, one broadcast over all rows and
    directions, and pinned to :func:`transition` by test. WALL_BLIND rows
    span the offset grid of side ``m + 2n``, which holds every cell
    reachable in n moves.

    ``row_value(cells, frozen)`` gets the (i, j) cell of every row as an
    (R, 2) int64 array and a bool array marking the frozen rows, and returns
    one value per row. A path is blocked (``simulate_path(...).fail_step`` is
    not None) iff it ends in a frozen row.
    """
    pad = n if mode is SimMode.WALL_BLIND else 0
    side = maze.size + 2 * pad
    count = side * side
    rows = np.arange(count)
    live = np.stack(np.divmod(rows, side), axis=1)  # offset-grid (i + pad, j + pad)
    di, dj, bit, _ = np.array(_STEPS).T
    ti, tj = live[:, :1] + di, live[:, 1:] + dj
    # Blocked moves go to the frozen copy; so would a blind move off the
    # offset grid, which is never taken within n moves.
    ok = (0 <= ti) & (ti < side) & (0 <= tj) & (tj < side)
    if mode is SimMode.WALL_AWARE:
        ok &= (np.array(maze.open_sides).reshape(-1, 1) & bit) != 0
    table = np.empty((2 * count, len(Direction)), dtype=np.intp)
    table[:count] = np.where(ok, ti * side + tj, count + rows[:, None])
    table[count:] = (count + rows)[:, None]
    cells = np.concatenate([live, live]).astype(np.int64) - pad
    values = np.asarray(row_value(cells, np.arange(2 * count) >= count))
    return table, values, (maze.start[0] + pad) * side + maze.start[1] + pad


def end_values(n: int, table: np.ndarray, values: np.ndarray, start: int) -> np.ndarray:
    """``values`` at the row each of the 4**n length-``n`` paths from ``start`` reaches, by path code.

    Because the first move sits in the most significant bits, appending one
    move to every path is the gather ``state = table.take(state, axis=0).reshape(-1)``
    (``take`` on axis 0 copies whole rows, several times faster here than
    fancy indexing).
    """
    state = np.array([start], dtype=np.intp)
    if n == 0:
        return values[state]
    for _ in range(n - 1):
        state = table.take(state, axis=0).reshape(-1)
    # The last move gathers the values themselves, so no 4**n array of
    # row numbers is ever built.
    return values[table].take(state, axis=0).reshape(-1)


def end_histogram(n: int, table: np.ndarray, values: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values the length-``n`` paths from ``start`` end on, ascending, and the paths on each (>= 1).

    Counted forward over the table, one ``bincount`` per move, not over 4**n paths, in float64. That is
    exact while every count is below 2**53, so for n <= 26: the counts after a step sum to 4**step.
    ``fitness.landscape`` stops at ``codec.MAX_PATH_LENGTH``, below that bound.
    """
    reach = np.zeros(values.size)
    reach[start] = 1.0
    for _ in range(n):
        reach = np.bincount(table.ravel(), weights=reach.repeat(table.shape[1]), minlength=values.size)
    low = values.min()
    counts = np.bincount(values - low, weights=reach)
    levels = np.flatnonzero(counts)
    return levels + low, counts[levels].astype(np.int64)


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
            # A list, not a generator, as in generate_maze.
            rows.append(tuple([int(ch, 16) for ch in ln]))
        except ValueError:
            raise MazeFormatError(f"grid row '{ln}' contains a non-hex digit") from None
    return Maze(size=m, open_sides=tuple(rows), start=(si, sj), goal=(gi, gj))
