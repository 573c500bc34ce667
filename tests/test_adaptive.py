"""Adaptive cutoff loop: trace invariants and convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze.adaptive import (
    GUESS_GROWTH,
    CutoffTrace,
    Policy,
    RoundRecord,
    SearchConfig,
    Status,
    Strictness,
    marked_for_cutoff,
    run_adaptive,
    update_cutoff,
)
from qmaze.engine import GroverGeometry, optimal_rounds
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import SimMode, generate_maze


@pytest.fixture
def example_scape(example_maze):
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    return landscape(example_maze, 2, spec)


def test_update_cutoff():
    assert update_cutoff(3, 5) == 5
    assert update_cutoff(5, 3) == 5
    assert update_cutoff(4, 4) == 4


@given(st.lists(st.integers(-5, 30), min_size=1, max_size=40), st.integers(-5, 5))
def test_cutoff_sequence_properties(observations, c1):
    f_max = max(max(observations), c1)
    cutoffs = [c1]
    for f in observations:
        cutoffs.append(update_cutoff(cutoffs[-1], min(f, f_max)))
    assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))
    assert cutoffs[-1] <= f_max
    strict = sum(1 for a, b in zip(cutoffs, cutoffs[1:]) if b > a)
    assert strict <= f_max - c1


def _first_round(scape, cutoff):
    config = SearchConfig(initial_cutoff=cutoff, strictness=Strictness.STRICT, max_rounds=1)
    return run_adaptive(scape, config).rounds[0]


def test_rounds_for_cutoff_quarter():
    # A quarter of the space marked -> theta = pi/6 -> exactly one round.
    from qmaze.fitness import FitnessLandscape

    values = np.array([1] * 12 + [5] * 4, dtype=np.int64)
    scape = FitnessLandscape(n=2, values=values)
    k = marked_for_cutoff(scape, 2, Strictness.STRICT).size
    assert k == 4
    first = _first_round(scape, 2)
    assert first.rounds == optimal_rounds(GroverGeometry(16, k)) == 1


def test_rounds_for_cutoff_counts_from_landscape(example_scape):
    # cutoff 2 marks the five 3-scores and the single 4 -> k counted exactly,
    # and the round count follows from that k alone.
    k2 = int(np.sum(example_scape.values > 2))
    assert marked_for_cutoff(example_scape, 2, Strictness.STRICT).size == k2 == 6
    first = _first_round(example_scape, 2)
    assert first.k == k2
    assert first.rounds == optimal_rounds(GroverGeometry(16, k2))
    k3 = int(np.sum(example_scape.values > 3))
    geometry = GroverGeometry(16, k3)
    first = _first_round(example_scape, 3)
    assert first.rounds == optimal_rounds(geometry) == 2
    assert k3 == first.k == 1 and geometry.theta == pytest.approx(np.arcsin(0.25))


def test_rounds_for_cutoff_degenerate(example_scape):
    # Above the maximum nothing is marked under either strictness.
    for strictness in Strictness:
        config = SearchConfig(initial_cutoff=example_scape.f_max + 1, strictness=strictness)
        trace = run_adaptive(example_scape, config)
        assert trace.status is Status.DEGENERATE
        assert not trace.rounds


def test_guessed_k_reproducible():
    # A 3x3 maze at n=4 gives many non-improving rounds, so the range grows.
    scape = landscape(generate_maze(3, seed=0), 4, make_spec(3))
    config = SearchConfig(policy=Policy.GUESSED_K, samples=1, max_rounds=32, seed=1)
    first = run_adaptive(scape, config)
    assert first.rounds == run_adaptive(scape, config).rounds
    escalation = 0
    for rec in first.rounds:
        assert 0 <= rec.rounds < max(1, math.ceil(GUESS_GROWTH**escalation))
        escalation = 0 if rec.new_cutoff > rec.cutoff else escalation + 1


def test_run_adaptive_example_converges(example_scape):
    trace = run_adaptive(example_scape, SearchConfig(initial_cutoff=0, seed=11))
    assert trace.status is Status.CONVERGED_OPTIMAL
    assert trace.best_index == 0b1001
    assert trace.best_fitness == 4


def test_run_adaptive_strict_at_max_is_degenerate(example_scape):
    config = SearchConfig(
        initial_cutoff=example_scape.f_max, strictness=Strictness.STRICT, seed=0
    )
    trace = run_adaptive(example_scape, config)
    assert trace.status is Status.DEGENERATE
    assert not trace.rounds


def test_run_adaptive_ge_at_max_amplifies_optima(example_scape):
    config = SearchConfig(
        initial_cutoff=example_scape.f_max, strictness=Strictness.GE_AT_MAX, seed=0
    )
    trace = run_adaptive(example_scape, config)
    assert trace.status is Status.CONVERGED_OPTIMAL
    assert trace.rounds[0].k == 1  # exactly the argmax set


@pytest.mark.parametrize("policy", list(Policy))
def test_strictness_matters_only_at_an_initial_cutoff_of_f_max(example_scape, policy):
    # The loop stops at the first sample that reaches f_max, so the cutoff
    # equals f_max at marking time only when the initial cutoff does.
    f_max = example_scape.f_max
    for cutoff in range(-2, f_max + 2):
        for seed in range(3):
            strict, ge = (
                run_adaptive(
                    example_scape,
                    SearchConfig(initial_cutoff=cutoff, policy=policy, strictness=s, seed=seed),
                )
                for s in (Strictness.STRICT, Strictness.GE_AT_MAX)
            )
            assert (strict == ge) == (cutoff != f_max), (cutoff, seed)


def test_persistence_of_optima(example_scape):
    argmax = set(example_scape.argmax_set.tolist())
    cutoff = example_scape.f_max
    for _ in range(5):  # cutoff is a fixed point of the update at f_max
        marked = marked_for_cutoff(example_scape, cutoff, Strictness.GE_AT_MAX)
        assert set(marked.tolist()) == argmax
        cutoff = update_cutoff(cutoff, example_scape.f_max)


def test_trace_records_consecutive_update(example_scape):
    trace = run_adaptive(
        example_scape, SearchConfig(initial_cutoff=0, samples=1, seed=3, max_rounds=50)
    )
    for a, b in zip(trace.rounds, trace.rounds[1:]):
        assert a.new_cutoff == update_cutoff(a.cutoff, a.outcome_fitness)
        assert b.cutoff == a.new_cutoff


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_invariants_random_mazes(seed):
    maze = generate_maze(3, seed=seed)
    scape = landscape(maze, 2, make_spec(3))
    trace = run_adaptive(scape, SearchConfig(seed=seed, max_rounds=24))
    cutoffs = trace.cutoffs()
    assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))
    assert all(r.new_cutoff <= scape.f_max for r in trace.rounds)
    assert trace.strict_increases() <= scape.f_max - 0


def test_monte_carlo_convergence_small():
    hits = 0
    runs = 40
    for i in range(runs):
        maze = generate_maze(3, seed=i)
        scape = landscape(maze, 4, make_spec(3))
        trace = run_adaptive(scape, SearchConfig(seed=500 + i, max_rounds=24))
        hits += int(trace.best_fitness == scape.f_max)
    assert hits >= runs * 0.9


def test_guessed_k_policy_still_converges():
    hits = 0
    for i in range(15):
        maze = generate_maze(3, seed=i)
        scape = landscape(maze, 3, make_spec(3))
        config = SearchConfig(policy=Policy.GUESSED_K, seed=i, max_rounds=40, samples=4)
        trace = run_adaptive(scape, config)
        hits += int(trace.best_fitness == scape.f_max)
    assert hits >= 12  # no optimality formula; empirical-only check


def test_white_box_round_hit_rate(example_scape):
    # One KNOWN_K round at cutoff 3 (k=1, r=2): empirical hit rate within
    # 3 sigma of sin^2((2r+1) theta) over 1200 bernoulli trials.
    p_want = GroverGeometry(16, 1).success_probability(2)
    hits = 0
    shots = 1200
    for i in range(shots):
        config = SearchConfig(initial_cutoff=3, samples=1, max_rounds=1, seed=20_000 + i)
        trace = run_adaptive(example_scape, config)
        hits += int(trace.rounds[0].outcome_fitness > 3)
    sigma = (p_want * (1 - p_want) / shots) ** 0.5
    assert abs(hits / shots - p_want) < 3 * sigma + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SearchConfig(samples=0)


def test_trace_helpers():
    rec = RoundRecord(1, 0, 4, 0.5, 1, 9, 4, 4)
    trace = CutoffTrace(rounds=[rec], status=Status.CONVERGED_OPTIMAL)
    assert trace.cutoffs() == [0]
    assert trace.strict_increases() == 1
