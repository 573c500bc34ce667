"""Fitness reference: offset/width selection, worked values, landscape properties.

The hand-walk oracle below re-simulates paths with independent dictionary
lookups so landscape checks never reuse the production simulation code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze import codec
from qmaze.adaptive import Strictness, marked_count, marked_for_cutoff, marked_paths
from qmaze.fitness import Formula, fitness, landscape, make_spec
from qmaze.maze import (
    Direction,
    Maze,
    SimMode,
    end_histogram,
    end_values,
    generate_maze,
    path_automaton,
    simulate_path,
    transition,
)
from reference import encode_path, shortest_path_length, tree_path

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
    assert make_spec(2).offset == 4
    assert make_spec(4).offset == 32
    for m in range(2, 40):
        c = make_spec(m).offset
        # The smallest power of two strictly above 2*(m-1)**2.
        assert c & (c - 1) == 0 and c > 2 * (m - 1) ** 2 >= c // 2


def test_make_spec_appendix():
    spec = make_spec(2, Formula.APPENDIX)
    assert spec.offset == 4
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
    assert list(np.flatnonzero(scape.values == scape.f_max)) == [0b1001]


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
    assert scape.values[encode_path(tree_path(maze, maze.start, maze.goal))] == spec.offset


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
    maze = replace(generate_maze(m, draw(st.integers(0, 2**16))), start=start, goal=goal)
    return maze, draw(st.integers(0, 6))


@settings(max_examples=25, deadline=None)
@given(maze_and_length(), st.sampled_from(list(SimMode)), st.sampled_from(list(Formula)))
def test_landscape_matches_scalar_reference(case, mode, formula):
    # The path automaton against the per-path walk it replaces.
    maze, n = case
    spec = make_spec(maze.size, formula, mode)
    values = landscape(maze, n, spec).values
    blocked = end_values(n, *path_automaton(maze, n, mode, lambda _, frozen: frozen))
    assert values.dtype == np.int64 and values.shape == blocked.shape == (4**n,)
    for u in range(4**n):
        path = codec.decode_index(u, n)
        assert values[u] == fitness(maze, path, spec), (u, n, mode)
        assert blocked[u] == (simulate_path(maze, path, mode).fail_step is not None), (u, n, mode)


@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("m", range(2, 9))
def test_histogram_counts_every_path(m, mode):
    # The forward count over the automaton against a count of the 4**n values.
    spec = make_spec(m, Formula.MAIN, mode)
    for n in range(0, 10):
        scape = landscape(generate_maze(m, seed=10 * m + n), n, spec)
        levels, counts = np.unique(scape.values, return_counts=True)
        assert scape.levels.dtype == scape.counts.dtype == np.int64
        assert np.array_equal(scape.levels, levels), (m, n, mode)
        assert np.array_equal(scape.counts, counts), (m, n, mode)
        assert scape.f_max == scape.values.max()
    if mode is SimMode.WALL_BLIND:
        assert scape.levels[0] < 0  # the count reaches negative values too


def _blind_histogram(maze: Maze, n: int, offset: int) -> list[tuple[int, int]]:
    """The wall-blind (value, paths) pairs in Python ints, from a closed form, not the automaton.

    An n-step walk ends at displacement (x, y) in C(n, (n+x+y)/2)·C(n, (n+x-y)/2)
    ways: in coordinates turned by 45 degrees it is two independent ±1 walks.
    """
    (si, sj), (gi, gj) = maze.start, maze.goal
    counts = Counter()
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if abs(x) + abs(y) <= n and (n + x + y) % 2 == 0:
                value = offset - (si + x - gi) ** 2 - (sj + y - gj) ** 2
                counts[value] += comb(n, (n + x + y) // 2) * comb(n, (n + x - y) // 2)
    return sorted(counts.items())


HISTOGRAM_MAZES = [(2, 0), (5, 2), (8, 1)]  # (m, maze seed)


@pytest.mark.parametrize("n", [0, 1, 5, 10, 12])
@pytest.mark.parametrize("m, seed", HISTOGRAM_MAZES)
def test_blind_histogram_equals_the_closed_form(m, seed, n):
    # Past enumeration, an exact identity is what checks the counts.
    maze, spec = generate_maze(m, seed=seed), make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    scape = landscape(maze, n, spec)
    assert list(zip(scape.levels.tolist(), scape.counts.tolist())) == _blind_histogram(maze, n, spec.offset)


def test_end_histogram_is_exact_at_n26():
    """At n = 26 the counts sum to 4**26 = 2**52, so float64 still counts every path exactly.

    ``landscape`` stops at the path-length cap, so the automaton is built here directly.
    """
    m, n = 8, 26
    maze, spec = generate_maze(m, seed=1), make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    goal = np.array(maze.goal)
    automaton = path_automaton(maze, n, spec.mode, lambda cells, _: spec.offset - ((cells - goal) ** 2).sum(axis=1))
    levels, counts = end_histogram(n, *automaton)
    assert list(zip(levels.tolist(), counts.tolist())) == _blind_histogram(maze, n, spec.offset)


@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("m, seed", HISTOGRAM_MAZES)
def test_histogram_counts_sum_to_every_path_at_n12(m, seed, mode):
    n = 12
    scape = landscape(generate_maze(m, seed=seed), n, make_spec(m, Formula.MAIN, mode))
    assert sum(scape.counts.tolist()) == 4**n


def _cell_histogram(maze: Maze, n: int, mode: SimMode, offset: int) -> list[tuple[int, int]]:
    """The (value, paths) pairs in Python ints, counted per cell with ``transition``, not the automaton.

    A blocked move freezes the walk in its cell, so a count is kept per
    (cell, frozen) pair; a frozen cell keeps all four moves' paths.
    """
    reach = Counter({(maze.start, False): 1})
    for _ in range(n):
        step = Counter()
        for (cell, frozen), paths in reach.items():
            if frozen:
                step[cell, True] += 4 * paths
                continue
            for d in Direction:
                to = transition(maze, cell, d, mode)
                step[(cell, True) if to is None else (to, False)] += paths
        reach = step
    gi, gj = maze.goal
    counts = Counter()
    for ((i, j), _), paths in reach.items():
        counts[offset - (i - gi) ** 2 - (j - gj) ** 2] += paths
    return sorted(counts.items())


@pytest.mark.parametrize("mode", [SimMode.BOUNDS_ONLY, SimMode.WALL_AWARE])
@pytest.mark.parametrize("m, seed", HISTOGRAM_MAZES)
def test_a_second_count_equals_the_histogram(m, seed, mode):
    """A per-cell count in Python ints equals the landscape's at n = 12, and ``end_histogram``'s at n = 20 and 26.

    At n = 12, ``marked_paths``' suffix counts also mark what the histogram counts at every level.
    """
    maze, spec = generate_maze(m, seed=seed), make_spec(m, Formula.MAIN, mode)
    scape = landscape(maze, 12, spec)
    assert list(zip(scape.levels.tolist(), scape.counts.tolist())) == _cell_histogram(maze, 12, mode, spec.offset)
    for cutoff in (scape.levels - 1).tolist():
        assert marked_paths(scape, cutoff, Strictness.STRICT).k == marked_count(scape, cutoff, Strictness.STRICT)
    goal = np.array(maze.goal)
    for n in (20, 26):
        automaton = path_automaton(maze, n, mode, lambda cells, _: spec.offset - ((cells - goal) ** 2).sum(axis=1))
        levels, counts = end_histogram(n, *automaton)
        assert list(zip(levels.tolist(), counts.tolist())) == _cell_histogram(maze, n, mode, spec.offset), n


@pytest.mark.parametrize("n", [-1, codec.MAX_PATH_LENGTH + 1])
def test_landscape_rejects_out_of_range_length(example_maze, n):
    with pytest.raises(ValueError):
        landscape(example_maze, n, make_spec(2))
