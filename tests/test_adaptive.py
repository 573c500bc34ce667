"""Adaptive cutoff loop: trace invariants and convergence."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze import adaptive
from qmaze.adaptive import (
    GUESS_GROWTH,
    CutoffTrace,
    Policy,
    RoundRecord,
    SearchConfig,
    Status,
    Strictness,
    marked_count,
    marked_for_cutoff,
    marked_paths,
    run_adaptive,
    update_cutoff,
)
from qmaze.engine import (
    GroverGeometry,
    grover_iterate,
    measure_shots,
    optimal_rounds,
    prepare_uniform,
)
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import SimMode, generate_maze
from reference import marked_indices, path_counts, statevector


def _cutoffs(trace: CutoffTrace) -> list[int]:
    return [r.cutoff for r in trace.rounds]


def _strict_increases(trace: CutoffTrace) -> int:
    return sum(r.new_cutoff > r.cutoff for r in trace.rounds)


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


def _rescan(scape, cutoff, strictness):
    """The marking rule written out: > cutoff, or >= under GE_AT_MAX at cutoff == f_max."""
    if strictness is Strictness.GE_AT_MAX and cutoff == scape.f_max:
        return np.flatnonzero(scape.values >= cutoff)
    return np.flatnonzero(scape.values > cutoff)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_narrowed_sets_equal_a_rescan(m, n):
    scape = landscape(generate_maze(m, seed=10 * m + n), n, make_spec(m))
    rng = np.random.default_rng(10 * m + n)
    low, f_max = int(scape.values.min()), scape.f_max
    for strictness in Strictness:
        sequences = [[f_max, f_max, f_max + 1], [low - 1, f_max - 1, f_max]]
        sequences.append([-(2**63) - 1, f_max - 1, 2**63 - 1, 10**30])  # outside int64, and cutoff + 1 crossing it
        sequences += [np.sort(rng.integers(low - 2, f_max + 3, size=6)).tolist() for _ in range(12)]
        for cutoffs in sequences:
            previous = None
            for cutoff in cutoffs:
                # Along a rising cutoff each set lies inside the one before, and
                # the set, its histogram count and its suffix counts' k all agree.
                want = _rescan(scape, cutoff, strictness)
                got = marked_for_cutoff(scape, cutoff, strictness)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (strictness, cutoffs, cutoff)
                assert marked_count(scape, cutoff, strictness) == want.size
                assert marked_paths(scape, cutoff, strictness).k == want.size
                assert previous is None or np.isin(want, previous).all()
                previous = want


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("mode", list(SimMode))
def test_suffix_counts_mark_the_rescanned_set(mode, n):
    # k read from the counts is the rescan's size, and the paths the counts mark,
    # read back through the automaton, are the rescan's paths.
    m = 2 + n % 4
    scape = landscape(generate_maze(m, seed=n), n, make_spec(m, Formula.MAIN, mode))
    low, f_max = int(scape.values.min()), scape.f_max
    cutoffs = [-(2**63) - 1, low - 2, low - 1, low, f_max - 1, f_max, f_max + 1, 2**63 - 1, 10**30]
    cutoffs += np.unique(scape.values).tolist()
    for strictness in Strictness:
        for cutoff in cutoffs:
            want = _rescan(scape, cutoff, strictness)
            counts = marked_paths(scape, cutoff, strictness)
            assert counts.n == n and counts.k == want.size, (strictness, cutoff)
            assert np.array_equal(marked_indices(counts), want), (strictness, cutoff)


def test_every_path_set_equals_a_rescan(landscape_of):
    varied = landscape(generate_maze(5, seed=3), 5, make_spec(5))
    flat = landscape_of(3, np.full(64, 7))
    cases = [(varied, int(varied.values.min()) - 1, Strictness.STRICT), (flat, 7, Strictness.GE_AT_MAX)]
    for scape, cutoff, strictness in cases:
        want = np.flatnonzero(scape.values >= cutoff)
        assert want.size == scape.values.size
        got = marked_for_cutoff(scape, cutoff, strictness)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(marked_indices(marked_paths(scape, cutoff, strictness)), want)


@pytest.mark.parametrize("policy", list(Policy))
def test_a_search_holds_no_amplitude_array(policy):
    # The benchmark's search landscape. A landscape holds its automaton's 128 rows
    # and a round two levels and suffix counts over those rows; neither builds the
    # 4**n values. Landscape and search peaked at 84-91 KB, where one 4**9 float64
    # state is 2 MiB, so the bound does not grow with 4**n.
    maze = generate_maze(8, seed=6)
    run_adaptive(landscape(maze, 9, make_spec(8)), SearchConfig(policy=policy))  # warm-up
    for seed in range(3):
        tracemalloc.start()
        try:
            scape = landscape(maze, 9, make_spec(8))
            run_adaptive(scape, SearchConfig(seed=seed, policy=policy))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 192 * 1024, (seed, peak)
        assert "values" not in vars(scape)


def test_rounds_without_an_iterate_skip_the_call(monkeypatch):
    scape = landscape(generate_maze(6, seed=2), 5, make_spec(6))
    skipped = 0
    for policy in Policy:
        for seed in range(5):
            config = SearchConfig(policy=policy, seed=seed)
            want = run_adaptive(scape, config)
            calls = []

            def counted(state, marked, rounds):
                calls.append(rounds)
                return grover_iterate(state, marked, rounds)

            with monkeypatch.context() as patch:
                patch.setattr(adaptive, "grover_iterate", counted)
                assert run_adaptive(scape, config) == want
            assert calls == [rec.rounds for rec in want.rounds if rec.rounds]
            skipped += len(want.rounds) - len(calls)
    assert skipped > 0


def test_only_rounds_with_an_iterate_build_a_marked_set(monkeypatch):
    scape = landscape(generate_maze(6, seed=2), 5, make_spec(6))
    f_max = scape.f_max
    built = 0
    for policy in Policy:
        for strictness in Strictness:
            for cutoff0, seed in [(0, 0), (0, 1), (0, 2), (f_max - 2, 3), (f_max, 4)]:
                config = SearchConfig(initial_cutoff=cutoff0, policy=policy, strictness=strictness, seed=seed)
                want = run_adaptive(scape, config)
                calls = []

                def counted(scape_, cutoff, strictness_):
                    calls.append(cutoff)
                    return marked_paths(scape_, cutoff, strictness_)

                def rescan(*args):
                    raise AssertionError("the loop builds no index set")

                with monkeypatch.context() as patch:
                    patch.setattr(adaptive, "marked_paths", counted)
                    patch.setattr(adaptive, "marked_for_cutoff", rescan)
                    assert run_adaptive(scape, config) == want
                # One set of counts per cutoff that has a round with an iterate.
                expected = []
                for rec in want.rounds:
                    if rec.rounds and (not expected or expected[-1] != rec.cutoff):
                        expected.append(rec.cutoff)
                assert calls == expected, config
                for rec in want.rounds:
                    assert rec.k == _rescan(scape, rec.cutoff, strictness).size, (config, rec)
                built += len(calls)
    assert built > 0


def test_rounds_for_cutoff_quarter(landscape_of):
    # A quarter of the space marked -> theta = pi/6 -> exactly one round.
    scape = landscape_of(2, [1] * 12 + [5] * 4)
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
    argmax = set(np.flatnonzero(example_scape.values == example_scape.f_max).tolist())
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
    cutoffs = _cutoffs(trace)
    assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))
    assert all(r.new_cutoff <= scape.f_max for r in trace.rounds)
    assert _strict_increases(trace) <= scape.f_max - 0


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
    assert _cutoffs(trace) == [0]
    assert _strict_increases(trace) == 1


def _statevector_run(scape, config):
    """Reference loop: every round re-marks, prepares a fresh uniform state
    and samples its full statevector from all 4**n Born probabilities."""
    rng = np.random.default_rng(config.seed)
    trace = CutoffTrace()
    cutoff, escalation = config.initial_cutoff, 0
    for t in range(1, config.max_rounds + 1):
        marked = marked_for_cutoff(scape, cutoff, config.strictness)
        if marked.size == 0:
            trace.status = Status.DEGENERATE
            break
        geometry = GroverGeometry(scape.values.size, marked.size)
        if config.policy is Policy.KNOWN_K:
            r = optimal_rounds(geometry)
        else:
            r = int(rng.integers(0, max(1, math.ceil(GUESS_GROWTH**escalation))))
        state = statevector(grover_iterate(prepare_uniform(scape.n), path_counts(scape.n, marked), r))
        shots = measure_shots(state, rng, config.samples)
        shot_fitness = scape.values[shots]
        f_star = int(shot_fitness.max())
        outcome = int(shots[shot_fitness == f_star].min())
        new_cutoff = update_cutoff(cutoff, f_star)
        trace.rounds.append(
            RoundRecord(t, cutoff, marked.size, geometry.theta, r, outcome, f_star, new_cutoff)
        )
        if trace.best_fitness is None or f_star > trace.best_fitness or (
            f_star == trace.best_fitness and outcome < trace.best_index
        ):
            trace.best_index, trace.best_fitness = outcome, f_star
        if f_star == scape.f_max:
            trace.status = Status.CONVERGED_OPTIMAL
            break
        escalation = 0 if new_cutoff > cutoff else escalation + 1
        cutoff = new_cutoff
    return trace


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("mode", list(SimMode))
def test_run_adaptive_matches_statevector_loop(mode, n):
    scape = landscape(generate_maze(4, seed=n), n, make_spec(4, Formula.MAIN, mode))
    for policy in Policy:
        for strictness in Strictness:
            for cutoff0 in (0, scape.f_max):
                for seed in range(5):
                    config = SearchConfig(
                        initial_cutoff=cutoff0, policy=policy, strictness=strictness, seed=seed
                    )
                    assert run_adaptive(scape, config) == _statevector_run(scape, config), config


def _traces_digest(traces):
    digest = hashlib.sha256()
    for trace in traces:
        rounds = [astuple(rec) for rec in trace.rounds]
        record = (trace.status.value, trace.best_index, trace.best_fitness, rounds)
        digest.update(repr(record).encode())
    return digest.hexdigest()


def test_solver_scale_traces_are_pinned():
    # The benchmark's search landscape: 8x8 maze seed 6, n = 9 (262,144 paths).
    # The digest was computed with the statevector loop above, which samples
    # every round from all 4**n Born probabilities.
    scape = landscape(generate_maze(8, seed=6), 9, make_spec(8))
    configs = [SearchConfig(seed=s) for s in range(4)]
    configs += [SearchConfig(seed=s, policy=Policy.GUESSED_K) for s in range(8)]
    traces = [run_adaptive(scape, config) for config in configs]
    assert _traces_digest(traces) == (
        "d4fd6c2c1bdea6a9672dbf2da43050e0eddff5eea427a599eed26448e2887c3b"
    )
