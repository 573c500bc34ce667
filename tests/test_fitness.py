"""Fitness reference: offset/width selection, worked values, landscape properties.

The hand-walk oracle below re-simulates paths with independent dictionary
lookups so landscape checks never reuse the production simulation code.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze import codec
from qmaze.adaptive import Strictness, marked_for_cutoff
from qmaze.fitness import Formula, fitness, landscape, landscape_to_csv, make_spec
from qmaze.maze import (
    Direction,
    Maze,
    SimMode,
    generate_maze,
    path_end_values,
    shortest_path_length,
    simulate_path,
    tree_path,
)

DELTAS = {Direction.N: (-1, 0), Direction.E: (0, 1), Direction.S: (1, 0), Direction.W: (0, -1)}


def hand_fitness(maze: Maze, path, c: int) -> int:
    """Independent wall-aware walk: step, check bounds and wall bit, freeze."""
    side_bit = {Direction.N: 8, Direction.E: 4, Direction.S: 2, Direction.W: 1}
    i, j = maze.start
    frozen = False
    for d in path:
        if frozen:
            continue
        di, dj = DELTAS[d]
        ni, nj = i + di, j + dj
        inside = 0 <= ni < maze.size and 0 <= nj < maze.size
        if not inside or not (maze.open_sides[i][j] & side_bit[d]):
            frozen = True
            continue
        i, j = ni, nj
    return c - ((i - maze.goal[0]) ** 2 + (j - maze.goal[1]) ** 2)


def test_make_spec_main():
    spec = make_spec(2)
    assert (spec.offset, spec.exponent) == (4, 2)
    spec = make_spec(4)
    assert (spec.offset, spec.exponent) == (32, 5)
    assert 2**spec.exponent == spec.offset > 2 * (4 - 1) ** 2


def test_make_spec_appendix():
    spec = make_spec(2, Formula.APPENDIX)
    assert spec.offset == 4
    assert spec.exponent == 3  # enough bits for values 0..4
    assert make_spec(5, Formula.APPENDIX).offset == 10


def test_worked_example_fitness(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    path = codec.decode_index(0b1001, 2)
    assert fitness(example_maze, path, spec) == 4


def test_fitness_is_offset_at_goal(example_maze):
    spec = make_spec(2)
    assert fitness(example_maze, [Direction.S, Direction.E], spec) == spec.offset


def test_landscape_matches_hand_simulation(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    scape = landscape(example_maze, 2, spec)
    for u in range(16):
        assert scape.values[u] == hand_fitness(example_maze, codec.decode_index(u, 2), 4)
    assert scape.f_max == 4
    assert list(scape.argmax_set) == [0b1001]


def test_landscape_wall_blind_allows_negative(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    scape = landscape(example_maze, 2, spec)
    # (N,N) ends at (-2,0): distance 9+1, fitness 4-10.
    assert scape.values[0b0000] == -6
    assert scape.values.min() == -6


def test_landscape_max_equals_tree_path_fitness():
    maze = generate_maze(4, seed=0)  # seed picked for a 6-step solution
    spec = make_spec(4)
    n = shortest_path_length(maze, maze.start, maze.goal)
    assert n == 6
    scape = landscape(maze, n, spec)
    assert scape.f_max == spec.offset
    assert scape.values[codec.encode_path(tree_path(maze, maze.start, maze.goal))] == spec.offset


def test_padded_tree_path_attains_max():
    # n >= l_min with even slack: pad the tree path with a back-and-forth pair.
    maze = generate_maze(3, seed=2)
    spec = make_spec(3)
    base = list(tree_path(maze, maze.start, maze.goal))
    back = next(d for d in Direction if maze.is_open(maze.goal, d))
    padded = base + [back, back.opposite]
    assert fitness(maze, padded, spec) == spec.offset
    scape = landscape(maze, len(padded), spec)
    assert scape.f_max == spec.offset


def test_fitness_bounded_and_max_iff_goal():
    # Wall-aware endpoints stay in-grid: fitness <= C with equality exactly
    # on the paths whose trajectory ends at the goal.
    maze = generate_maze(3, seed=4)
    spec = make_spec(3)
    scape = landscape(maze, 3, spec)
    assert (scape.values <= spec.offset).all()
    at_goal = {
        u
        for u in range(scape.values.size)
        if simulate_path(maze, codec.decode_index(u, 3), SimMode.WALL_AWARE).end == maze.goal
    }
    assert {u for u in range(scape.values.size) if scape.values[u] == spec.offset} == at_goal


def test_landscape_length_zero_edge(example_maze):
    # A single empty path scoring C minus the start-goal distance.
    spec = make_spec(2)
    scape = landscape(example_maze, 0, spec)
    assert scape.values.shape == (1,)
    assert scape.values[0] == spec.offset - 2


def test_marked_set_strictness(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    scape = landscape(example_maze, 2, spec)
    assert marked_for_cutoff(scape, scape.f_max, Strictness.STRICT).size == 0
    assert marked_for_cutoff(scape, -10, Strictness.STRICT).size == 16
    # Independent second-pass count.
    want = sum(1 for v in scape.values if v > 2)
    assert marked_for_cutoff(scape, 2, Strictness.STRICT).size == want


def test_marked_set_monotone(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    scape = landscape(example_maze, 2, spec)
    for lo, hi in [(-5, 0), (0, 2), (2, 3), (3, 4)]:
        hi_set = marked_for_cutoff(scape, hi, Strictness.STRICT)
        assert set(hi_set) <= set(marked_for_cutoff(scape, lo, Strictness.STRICT))


def test_appendix_formula_value(example_maze):
    spec = make_spec(2, Formula.APPENDIX, SimMode.WALL_AWARE)
    assert fitness(example_maze, [Direction.S, Direction.E], spec) == 4


def test_landscape_csv_shape(example_maze):
    spec = make_spec(2)
    text = landscape_to_csv(landscape(example_maze, 2, spec))
    lines = text.strip().splitlines()
    assert lines[0] == "index,bits,path,fitness"
    assert len(lines) == 17
    assert lines[1 + 0b1001] == "9,1001,SE,4"


def test_make_spec_rejects_small_maze():
    with pytest.raises(ValueError):
        make_spec(1)


def test_landscape_purity(example_maze):
    spec = make_spec(2)
    a = landscape(example_maze, 3, spec).values
    b = landscape(example_maze, 3, spec).values
    assert np.array_equal(a, b)


@st.composite
def maze_and_length(draw):
    m = draw(st.integers(2, 5))
    cells = [(i, j) for i in range(m) for j in range(m)]
    start, goal = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    maze = generate_maze(m, draw(st.integers(0, 2**16)), start=start, goal=goal)
    return maze, draw(st.integers(0, 6))


@settings(max_examples=25, deadline=None)
@given(maze_and_length(), st.sampled_from(list(SimMode)), st.sampled_from(list(Formula)))
def test_landscape_matches_scalar_reference(case, mode, formula):
    # The path automaton against the per-path walk it replaces.
    maze, n = case
    spec = make_spec(maze.size, formula, mode)
    values = landscape(maze, n, spec).values
    blocked = path_end_values(maze, n, mode, lambda _, frozen: frozen)
    assert values.dtype == np.int64 and values.shape == blocked.shape == (4**n,)
    for u in range(4**n):
        path = codec.decode_index(u, n)
        assert values[u] == fitness(maze, path, spec), (u, n, mode)
        assert blocked[u] == (not simulate_path(maze, path, mode).valid), (u, n, mode)


@pytest.mark.parametrize("n", [-1, codec.MAX_PATH_LENGTH + 1])
def test_landscape_rejects_out_of_range_length(example_maze, n):
    with pytest.raises(ValueError):
        landscape(example_maze, n, make_spec(2))
