"""Maze model: generation invariants, transition semantics, file round-trips."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze.maze import (
    Direction,
    Maze,
    MazeFormatError,
    SimMode,
    end_values,
    generate_maze,
    parse_maze,
    path_automaton,
    serialize_maze,
    simulate_path,
    transition,
)
from reference import shortest_path_length, tree_path


def open_passages(maze: Maze) -> set[frozenset]:
    edges = set()
    for i in range(maze.size):
        for j in range(maze.size):
            for d in Direction:
                if maze.is_open((i, j), d):
                    ni, nj = i + d.delta[0], j + d.delta[1]
                    edges.add(frozenset({(i, j), (ni, nj)}))
    return edges


def count_simple_paths(maze: Maze, a, b) -> int:
    """Brute-force DFS enumeration of simple paths between two cells."""
    total = 0
    stack = [(a, {a})]
    while stack:
        cell, seen = stack.pop()
        if cell == b:
            total += 1
            continue
        for d in Direction:
            if maze.is_open(cell, d):
                nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}))
    return total


def test_generate_2x2_has_three_passages():
    maze = generate_maze(2, seed=7)
    assert len(open_passages(maze)) == 3


def test_generate_deterministic():
    assert generate_maze(2, seed=7).open_sides == generate_maze(2, seed=7).open_sides
    assert generate_maze(6, seed=3).open_sides == generate_maze(6, seed=3).open_sides


def test_generate_rejects_small_m():
    with pytest.raises(ValueError):
        generate_maze(1, seed=0)


def test_generated_8x8_unique_paths_everywhere():
    maze = generate_maze(8, seed=1)
    assert len(open_passages(maze)) == 63
    cells = list(itertools.product(range(8), repeat=2))
    # Tree property: exactly one simple path between every cell pair.
    for a, b in itertools.combinations(cells, 2):
        assert count_simple_paths(maze, a, b) == 1


@pytest.mark.parametrize("m", range(2, 17))
def test_generated_maze_is_spanning_tree_every_size(m):
    for seed in (0, 1, 99):
        maze = generate_maze(m, seed)  # Maze.__post_init__ enforces the invariants
        assert len(open_passages(maze)) == m * m - 1


@settings(max_examples=20, deadline=None)
@given(m=st.integers(2, 16), seed=st.integers(0, 2**63 - 1))
def test_generated_maze_is_spanning_tree_random_seeds(m, seed):
    maze = generate_maze(m, seed)
    assert len(open_passages(maze)) == m * m - 1


def test_generated_mazes_golden_digest():
    # Pins the carve's exact random.Random call sequence: any change to it
    # alters some seeded maze, and with it every seeded CLI output.
    digest = hashlib.sha256()
    for m in range(2, 17):
        for seed in range(20):
            digest.update(serialize_maze(generate_maze(m, seed)).encode())
    assert digest.hexdigest() == "fc5a75867924cb193ec3a67c8dfdb27de1ec57d9657fa8c5e2ef5e86bfa8da5a"


@pytest.mark.parametrize("m", range(2, 10))
def test_path_end_values_matches_transition_from_every_start(m):
    # The vectorised transition table against the scalar walk, exhaustively.
    base = generate_maze(m, seed=m)
    for start in itertools.product(range(m), repeat=2):
        goal = (m - 1, m - 1) if start != (m - 1, m - 1) else (0, 0)
        maze = Maze(m, base.open_sides, start, goal)
        for mode in SimMode:
            for n in (1, 2):
                end_i = end_values(n, *path_automaton(maze, n, mode, lambda cells, _: cells[:, 0]))
                end_j = end_values(n, *path_automaton(maze, n, mode, lambda cells, _: cells[:, 1]))
                frozen = end_values(n, *path_automaton(maze, n, mode, lambda _, frozen: frozen))
                for u, path in enumerate(itertools.product(list(Direction), repeat=n)):
                    traj = simulate_path(maze, path, mode)
                    assert (end_i[u], end_j[u]) == traj.end, (start, mode, n, path)
                    assert frozen[u] == (traj.fail_step is not None), (start, mode, n, path)


def test_transition_wall_aware(example_maze):
    assert transition(example_maze, (0, 0), Direction.S, SimMode.WALL_AWARE) == (1, 0)
    assert transition(example_maze, (0, 1), Direction.S, SimMode.WALL_AWARE) is None
    assert transition(example_maze, (0, 0), Direction.N, SimMode.WALL_AWARE) is None


def test_transition_bounds_only(example_maze):
    assert transition(example_maze, (0, 0), Direction.N, SimMode.BOUNDS_ONLY) is None
    # Walls are ignored: (0,1) south is closed but in-grid.
    assert transition(example_maze, (0, 1), Direction.S, SimMode.BOUNDS_ONLY) == (1, 1)


def test_transition_wall_blind(example_maze):
    assert transition(example_maze, (0, 0), Direction.N, SimMode.WALL_BLIND) == (-1, 0)
    assert transition(example_maze, (1, 1), Direction.E, SimMode.WALL_BLIND) == (1, 2)


def test_simulate_path_reaches_goal(example_maze):
    traj = simulate_path(example_maze, [Direction.S, Direction.E], SimMode.WALL_AWARE)
    assert traj.end == (1, 1)
    assert traj.fail_step is None
    assert traj.cells == ((0, 0), (1, 0), (1, 1))


def test_simulate_empty_path(example_maze):
    traj = simulate_path(example_maze, [], SimMode.WALL_AWARE)
    assert traj.end == example_maze.start
    assert traj.fail_step is None


def test_simulate_freezes_after_block(example_maze):
    traj = simulate_path(example_maze, [Direction.N, Direction.N], SimMode.BOUNDS_ONLY)
    assert traj.fail_step == 1
    assert traj.end == (0, 0)
    # Appending more moves never changes the end cell.
    longer = simulate_path(
        example_maze, [Direction.N, Direction.N, Direction.S, Direction.E], SimMode.BOUNDS_ONLY
    )
    assert longer.end == traj.end
    assert longer.fail_step == 1


def test_wall_aware_never_leaves_reachable_set():
    maze = generate_maze(4, seed=11)
    reachable = {maze.start}
    frontier = [maze.start]
    while frontier:
        cell = frontier.pop()
        for d in Direction:
            if maze.is_open(cell, d):
                nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
    for u in range(4**3):
        dirs = [list(Direction)[(u >> (2 * k)) & 3] for k in range(3)]
        traj = simulate_path(maze, dirs, SimMode.WALL_AWARE)
        assert set(traj.cells) <= reachable


def test_shortest_path_length(example_maze):
    assert shortest_path_length(example_maze, (0, 0), (0, 0)) == 0
    assert shortest_path_length(example_maze, (0, 0), (1, 1)) == 2


def test_shortest_path_matches_enumeration_oracle():
    maze = generate_maze(8, seed=1)
    for a, b in [((0, 0), (7, 7)), ((3, 2), (5, 6)), ((0, 7), (7, 0))]:
        steps = tree_path(maze, a, b)
        assert shortest_path_length(maze, a, b) == len(steps)
        assert simulate_path(
            Maze(maze.size, maze.open_sides, a, b), steps, SimMode.WALL_AWARE
        ).end == b


def test_tree_path_rejects_cell_outside_grid():
    maze = generate_maze(3, seed=0)
    for a, b in [((0, 0), (5, 5)), ((-1, 0), (2, 2))]:
        with pytest.raises(ValueError, match="outside the grid"):
            tree_path(maze, a, b)


def test_serialize_parse_round_trip():
    maze = replace(generate_maze(16, seed=9), goal=(3, 12))
    text = serialize_maze(maze)
    back = parse_maze(text)
    assert back.open_sides == maze.open_sides
    assert back.start == maze.start and back.goal == maze.goal
    assert serialize_maze(back) == text


def test_parse_rejects_cycle():
    # Ring over all four cells: 4 passages over 4 cells -> a cycle, not a tree.
    text = "2 0 0 1 1\n63\nc9\n"
    with pytest.raises(MazeFormatError, match="not a tree"):
        parse_maze(text)


def test_parse_rejects_asymmetric_walls():
    # (0,0) open E but (0,1) closed W.
    text = "2 0 0 1 1\n42\n81\n"
    with pytest.raises(MazeFormatError, match="symmetric|border"):
        parse_maze(text)


def test_parse_rejects_open_border():
    text = "2 0 0 1 1\ne1\nc1\n"
    with pytest.raises(MazeFormatError, match="border"):
        parse_maze(text)


def test_parse_rejects_bad_start():
    text = "2 0 0 2 2\n61\nc1\n"
    with pytest.raises(MazeFormatError, match="outside"):
        parse_maze(text)


def test_parse_rejects_malformed_header():
    with pytest.raises(MazeFormatError, match="header"):
        parse_maze("2 0 0 1\n61\nc1\n")


def test_parse_rejects_unreachable_cell():
    # 8 symmetric passages, so the count check passes: a 4-cycle in the
    # top-left block plus one spur each to (0,2), (1,2), (2,0) and (2,1).
    # (2,2) is cut off.
    text = "3 0 0 2 2\n671\nef1\n880\n"
    with pytest.raises(MazeFormatError, match="only 8 of 9 cells reachable"):
        parse_maze(text)
