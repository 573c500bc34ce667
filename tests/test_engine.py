"""Amplitude dynamics vs the closed rotation form, exact at small sizes."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmaze import engine
from qmaze.adaptive import Strictness, marked_for_cutoff, marked_paths
from qmaze.engine import (
    DegenerateGeometryError,
    GroverGeometry,
    PathState,
    TwoLevelState,
    apply_diffuser,
    apply_oracle,
    grover_iterate,
    measure_shots,
    optimal_rounds,
    prepare_uniform,
)
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import SimMode, generate_maze
from reference import marked_indices, path_counts, rotation_block, rotation_spectrum, statevector

ATOL_NORM = 1e-12
ATOL_DYNAMICS = 1e-9


def test_uniform_amplitudes_exact():
    for n in range(0, 9):
        state = prepare_uniform(n)
        assert state.dim == 4**n
        assert state.amps.dtype == np.float64
        assert np.all(state.amps == 1.0 / 2**n)  # exact in double precision
        assert abs(np.linalg.norm(state.amps) - 1.0) < ATOL_NORM
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError):
            state.amps[0] = 0.0


def test_oracle_identity_on_empty_marked():
    state = prepare_uniform(2)
    assert np.array_equal(apply_oracle(state, []).amps, state.amps)


def test_oracle_all_marked_is_global_sign():
    state = prepare_uniform(2)
    flipped = apply_oracle(state, np.arange(16))
    assert np.array_equal(flipped.amps, -state.amps)
    assert abs(np.linalg.norm(flipped.amps) - 1.0) < ATOL_NORM


def test_oracle_negates_one_amplitude():
    state = apply_oracle(prepare_uniform(2), [9])
    assert state.amps[9] == -0.25
    assert np.all(state.amps[np.arange(16) != 9] == 0.25)


def test_marked_probability_counts_a_repeat_once():
    assert prepare_uniform(1).marked_probability([0, 0, 0, 0, 0]) == 0.25
    assert prepare_uniform(1).marked_probability([3, 0, 3]) == 0.5
    assert prepare_uniform(1).marked_probability(3) == prepare_uniform(1).marked_probability([3]) == 0.25


@pytest.mark.parametrize("marked", [[-1], [4], [0, 99]])
def test_marked_probability_rejects_out_of_range(marked):
    with pytest.raises(ValueError):
        prepare_uniform(1).marked_probability(marked)


def test_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_oracle(prepare_uniform(1), [4])


def test_diffuser_fixes_uniform_state():
    state = prepare_uniform(3)
    assert np.allclose(apply_diffuser(state).amps, state.amps, atol=ATOL_NORM)


def test_diffuser_matches_hand_calculation():
    # n=1, one negated amplitude: mean = (3*0.5 - 0.5)/4 = 0.25,
    # entries map a -> 2*0.25 - a.
    state = apply_oracle(prepare_uniform(1), [2])
    out = apply_diffuser(state)
    want = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    assert np.allclose(out.amps, want, atol=ATOL_NORM)


def test_diffuser_is_involution():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = PathState(n=2, amps=amps)
    twice = apply_diffuser(apply_diffuser(state))
    assert np.allclose(twice.amps, state.amps, atol=ATOL_NORM)


def test_oracle_is_involution():
    state = prepare_uniform(2)
    twice = apply_oracle(apply_oracle(state, [3, 7]), [3, 7])
    assert np.allclose(twice.amps, state.amps, atol=ATOL_NORM)


def _iterate(n, marked, rounds):
    """``grover_iterate`` from the uniform state on the paths with codes ``marked``."""
    return grover_iterate(prepare_uniform(n), path_counts(n, marked), rounds)


def test_iterate_zero_rounds_probability():
    geometry = GroverGeometry(16, 5)
    state = statevector(_iterate(2, np.arange(5), 0))
    assert abs(state.marked_probability(np.arange(5)) - 5 / 16) < ATOL_DYNAMICS
    assert abs(geometry.success_probability(0) - 5 / 16) < ATOL_DYNAMICS


def test_iterate_closed_form_example():
    # n=2, k=1, r=2: sin^2(5 * arcsin(1/4)).
    want = math.sin(5 * math.asin(0.25)) ** 2
    state = statevector(_iterate(2, [9], 2))
    assert abs(state.marked_probability([9]) - want) < ATOL_DYNAMICS


def test_iterate_full_marked_set_stays_certain():
    for r in range(4):
        state = statevector(_iterate(1, np.arange(4), r))
        assert abs(state.marked_probability(np.arange(4)) - 1.0) < ATOL_DYNAMICS


@pytest.mark.parametrize("marked", [[99], [4], [15], [0, 3, 4], [3, 9, 0], [0, 3, 63], 4])
@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_iterate_rejects_out_of_range(marked, rounds):
    # Each set holds a code >= 4, outside the n = 1 state's [0, 4): a set of longer paths.
    longer = path_counts(next(n for n in range(2, 5) if 4**n > np.max(marked)), marked)
    assert longer.n > 1
    with pytest.raises(ValueError, match="paths of length"):
        grover_iterate(prepare_uniform(1), longer, rounds)
    with pytest.raises(ValueError, match="paths of length"):
        grover_iterate(prepare_uniform(longer.n + 1), longer, rounds)


def test_iterate_rejects_negative_rounds():
    with pytest.raises(ValueError):
        _iterate(1, [0], -1)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_iterate_rejects_a_state_that_is_not_a_broadcast(n, rounds):
    ramp = np.linspace(1, 2, 4**n)
    for state in (_contiguous(prepare_uniform(n)), PathState(n=n, amps=ramp / np.linalg.norm(ramp))):
        with pytest.raises(ValueError, match="stride 0"):
            grover_iterate(state, path_counts(n, [0]), rounds)


def test_iterate_rejects_a_broadcast_other_than_the_uniform_state():
    # The levels are functions of (n, k, r) for the 2**-n start alone.
    for n in (0, 2):
        a0 = 2.0**-n
        for value in (-a0, a0 / 2, np.complex128(1j * a0), np.complex128(-a0)):
            state = PathState(n=n, amps=np.broadcast_to(value, (4**n,)))
            for rounds in (0, 1, 5):
                with pytest.raises(ValueError, match="stride 0"):
                    grover_iterate(state, path_counts(n, [0]), rounds)
        # A complex broadcast of 2**-n holds the same amplitudes as the uniform state.
        state = PathState(n=n, amps=np.broadcast_to(np.complex128(a0), (4**n,)))
        assert grover_iterate(state, path_counts(n, [0]), 3) == _iterate(n, [0], 3)


@st.composite
def iterate_cases(draw):
    """A path length, a marked list (repeats allowed) and a round count."""
    n = draw(st.integers(0, 4))
    big_n = 4**n
    index = st.integers(0, big_n - 1)
    with_repeats = st.lists(index, max_size=big_n + 4)
    marked = draw(
        st.one_of(
            with_repeats,
            st.sets(index).map(sorted),
            with_repeats.map(lambda extra: list(range(big_n)) + extra),
        )
    )
    return n, np.array(marked, dtype=np.int64), draw(st.integers(0, 64))


@given(iterate_cases())
def test_iterate_matches_stepwise_reference(case):
    n, marked, rounds = case
    want = prepare_uniform(n)
    for _ in range(rounds):
        want = apply_diffuser(apply_oracle(want, marked))
    got = statevector(_iterate(n, marked, rounds))
    assert got.amps.dtype == want.amps.dtype == np.float64
    assert np.allclose(got.amps, want.amps, rtol=0, atol=ATOL_NORM)


def three_step_iterate(state, marked, rounds):
    """Reference iterate in three output passes: a - beta, negate when r is odd, + beta_r."""
    if rounds == 0:
        return state
    idx = np.unique(np.asarray(marked, dtype=np.int64))
    amps = state.amps
    big_n, k = state.dim, idx.size
    in_m, in_u = max(k, 1), max(big_n - k, 1)
    marked_sum = amps[idx].sum()
    alpha = marked_sum / in_m
    beta = (amps.sum() - marked_sum) / in_u
    angle = 2 * rounds * GroverGeometry(big_n, k).theta
    c, s = math.cos(angle), math.sin(angle)
    x, y = math.sqrt(k) * alpha, math.sqrt(big_n - k) * beta
    alpha_r = (x * c + y * s) / math.sqrt(in_m)
    beta_r = (y * c - x * s) / math.sqrt(in_u)
    out = amps - beta
    if rounds % 2:
        np.negative(out, out=out)
    out += beta_r
    out[idx] = amps[idx] + (alpha_r - alpha)
    return PathState(n=state.n, amps=out)


@given(iterate_cases())
def test_iterate_matches_three_step_formula_exactly(case):
    n, marked, rounds = case
    got = statevector(_iterate(n, marked, rounds))
    assert np.array_equal(got.amps, three_step_iterate(prepare_uniform(n), marked, rounds).amps)


def _contiguous(state):
    return PathState(n=state.n, amps=state.amps.copy())


def _marked_sets(n):
    """Prefix sets with k in {0, 1, N-1, N}, then random sorted sets of sizes 1, N/4, N/2 and N-1."""
    big_n = 4**n
    rng = np.random.default_rng(100 + n)
    sets = [np.arange(k) for k in sorted({0, 1, big_n - 1, big_n})]
    for k in sorted({1, big_n // 4, big_n // 2, big_n - 1} - {0}):
        sets.append(np.sort(rng.choice(big_n, size=k, replace=False)))
    return sets


@pytest.mark.parametrize("n", range(0, 7))
def test_uniform_iterate_equals_a_contiguous_copy_bit_for_bit(n):
    uniform = prepare_uniform(n)
    copy = _contiguous(uniform)
    for marked in _marked_sets(n):
        counts = path_counts(n, marked)
        for r in range(41):
            got = statevector(grover_iterate(uniform, counts, r)).amps
            want = three_step_iterate(copy, marked, r).amps
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (n, marked.size, r)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (n, marked.size, r)


def test_uniform_start_has_no_unmarked_term():
    # A general constant start a0 leaves (-1)**r * (a0 - beta) on the unmarked level. From
    # 2**-n the unmarked mean beta is a0 exactly whenever an unmarked path exists (k < N), so
    # the term is an exact zero and dropping it changes no bit; at k = N no path has that level.
    for n in range(0, 7):
        a0, big_n = 2.0**-n, 4**n
        for k in range(big_n):
            beta = (big_n * a0 - k * a0) / (big_n - k)
            assert a0 - beta == 0.0 and beta - a0 == 0.0, (n, k)


@pytest.mark.parametrize("n", range(0, 7))
def test_iterate_output_has_one_level_on_the_marked_set_and_one_on_the_rest(n):
    # The reference has one level on the marked set and one on the rest, so the
    # iterate's two levels and its marked paths are the whole state.
    for marked in _marked_sets(n):
        rest = np.setdiff1d(np.arange(4**n), marked)
        counts = path_counts(n, marked)
        for r in range(41):
            got = grover_iterate(prepare_uniform(n), counts, r)
            assert got.marked is counts and np.array_equal(marked_indices(got.marked), marked)
            want = three_step_iterate(_contiguous(prepare_uniform(n)), marked, r).amps
            assert np.unique(want[marked]).size <= 1, (n, marked.size, r)
            assert np.unique(want[rest]).size <= 1, (n, marked.size, r)
            assert np.array_equal(statevector(got).amps, want), (n, marked.size, r)


@pytest.mark.parametrize("n", range(0, 5))
def test_uniform_state_reads_like_a_contiguous_copy(n):
    uniform = prepare_uniform(n)
    copy = _contiguous(uniform)
    assert np.linalg.norm(uniform.amps) == np.linalg.norm(copy.amps)
    assert np.array_equal(uniform.probabilities(), copy.probabilities())
    assert np.array_equal(apply_diffuser(uniform).amps, apply_diffuser(copy).amps)
    for marked in _marked_sets(n):
        assert np.array_equal(apply_oracle(uniform, marked).amps, apply_oracle(copy, marked).amps)
        assert uniform.marked_probability(marked) == copy.marked_probability(marked)
        # The closed form, Generator.choice and the two-level sampler at r = 0.
        states = (uniform, copy, grover_iterate(uniform, path_counts(n, marked), 0))
        gens = [np.random.default_rng(7) for _ in states]
        got, *want = (measure_shots(s, g, 5) for s, g in zip(states, gens))
        for other in want:
            assert np.array_equal(got, other), (n, marked.size)
        assert gens[0].random() == gens[1].random() == gens[2].random()


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_across_sizes(n):
    big_n = 4**n
    ks = sorted({1, 2, big_n // 4, big_n // 2, big_n - 1})
    for k in ks:
        geometry = GroverGeometry(big_n, k)
        r_star = optimal_rounds(geometry)
        marked = np.arange(k)
        state = prepare_uniform(n)
        for r in range(0, 3 * max(1, r_star) + 1):
            assert (
                abs(state.marked_probability(marked) - geometry.success_probability(r))
                < ATOL_DYNAMICS
            ), (n, k, r)
            assert abs(np.linalg.norm(state.amps) - 1.0) < ATOL_NORM
            state = apply_diffuser(apply_oracle(state, marked))


def test_two_dimensional_confinement():
    n, k = 3, 5
    marked = np.arange(k)
    state = prepare_uniform(n)
    unmarked = np.setdiff1d(np.arange(4**n), marked)
    for _ in range(10):
        state = apply_diffuser(apply_oracle(state, marked))
        assert np.ptp(state.amps[marked].real) < 1e-10
        assert np.ptp(state.amps[unmarked].real) < 1e-10
        assert np.max(np.abs(state.amps.imag)) < 1e-12


def test_optimal_rounds_formula():
    assert optimal_rounds(GroverGeometry(16, 4)) == 1  # theta = pi/6
    assert optimal_rounds(GroverGeometry(16, 1)) == 2
    assert optimal_rounds(GroverGeometry(16, 16)) == 0  # theta = pi/2
    with pytest.raises(DegenerateGeometryError):
        optimal_rounds(GroverGeometry(16, 0))


def test_optimal_rounds_exact_quarter():
    # k = N/4: theta = pi/6, one round rotates exactly onto the marked axis.
    geometry = GroverGeometry(16, 4)
    assert abs(geometry.success_probability(1) - 1.0) < ATOL_DYNAMICS


@pytest.mark.parametrize("n", [2, 3, 4])
def test_optimal_rounds_near_argmax(n):
    # Scan the first rotation period only: sin^2((2r+1) theta) is periodic,
    # so unbounded scans eventually land arbitrarily close to 1 again.
    big_n = 4**n
    for k in sorted({1, 2, big_n // 4, big_n // 2, big_n - 1}):
        geometry = GroverGeometry(big_n, k)
        r_star = optimal_rounds(geometry)
        probs = [geometry.success_probability(r) for r in range(2 * r_star + 2)]
        argmax = int(np.argmax(probs))
        assert abs(argmax - r_star) <= 1, (n, k)
        # The floor form never overshoots pi/2, so everything below r* is worse.
        assert all(probs[r] <= probs[r_star] + ATOL_DYNAMICS for r in range(r_star))


def test_measure_basis_state_deterministic():
    amps = np.zeros(16, dtype=complex)
    amps[9] = 1.0
    state = PathState(n=2, amps=amps)
    assert all(measure_shots(state, np.random.default_rng(seed), 1)[0] == 9 for seed in range(5))


def test_measure_uniform_frequencies():
    state = prepare_uniform(1)
    samples = measure_shots(state, np.random.default_rng(12345), 40000)
    freq = np.bincount(samples, minlength=4) / 40000
    assert np.all(np.abs(freq - 0.25) < 0.01)


def test_measure_post_grover_frequency():
    state = _iterate(2, [9], 2)
    want = GroverGeometry(16, 1).success_probability(2)
    samples = measure_shots(state, np.random.default_rng(99), 10000)
    assert abs(np.mean(samples == 9) - want) < 0.01


def test_measure_seed_reproducible():
    state = prepare_uniform(3)
    assert np.array_equal(measure_shots(state, np.random.default_rng(5), 100), measure_shots(state, np.random.default_rng(5), 100))


def _grover_cases(n):
    """Grover states from the uniform state, with their sorted marked sets and r.

    Prefix and random marked sets of sizes 1, N-1, N, N/4 and N/2, each at
    r in {0, 1, 2, r_opt, r_opt + 3}; k = N/4 at r = 1 puts almost all the
    mass on the marked set.
    """
    big_n = 4**n
    rng = np.random.default_rng(n)
    for k in sorted({1, big_n - 1, big_n, big_n // 4, big_n // 2}):
        for marked in (np.arange(k), np.sort(rng.choice(big_n, size=k, replace=False))):
            rounds = {0, 1, 2}
            if k:
                r_opt = optimal_rounds(GroverGeometry(big_n, k))
                rounds |= {r_opt, r_opt + 3}
            for r in sorted(rounds):
                yield _iterate(n, marked, r), marked, r


def _end_cases(n):
    """Grover states whose marked sets of sizes 1, 2 and N/2 hold index 0, N - 1 or both.

    The N/2 set scatters N/2 - 2 random interior paths, so many subtrees of the
    code tree hold both marked and unmarked paths.
    """
    big_n = 4**n
    inner = np.random.default_rng(n).choice(np.arange(1, big_n - 1), big_n // 2 - 2, replace=False)
    for marked in ([0], [big_n - 1], [0, big_n - 1], np.sort(np.r_[0, inner, big_n - 1])):
        marked = np.asarray(marked, dtype=np.int64)
        counts = path_counts(n, marked)
        r_opt = optimal_rounds(GroverGeometry(big_n, marked.size))
        for r in sorted({0, 1, 2, r_opt}):
            yield grover_iterate(prepare_uniform(n), counts, r), marked, r


@pytest.mark.parametrize("n", range(0, 10))
def test_two_level_shots_match_reference(n):
    cases = _grover_cases(n) if n < 8 else _end_cases(n)
    for state, marked, r in cases:
        for shots in (1, 5):
            for seed in range(3):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = measure_shots(state, fast, shots)
                want = measure_shots(statevector(state), ref, shots)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, marked.size, r, shots, seed)
                assert fast.random() == ref.random()  # the same draws were used


def _bisection_shots(state, gen, shots):
    """The two-level sampler over the sorted marked indices, bisecting every step: the descent's reference.

    Each shot inverts F(i) = w_m*c(i) + w_u*(i + 1 - c(i)), c(i) = #marked <= i,
    for the smallest i with F(i) > u*F(N-1): a bisection over the marked
    indices, then one over the unmarked gap before the first that passes.
    """

    def first(lo, hi, above):
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid + 1, hi)
        return lo

    marked = marked_indices(state.marked)
    big_n, k = 4**state.n, marked.size
    w_m = _weight(state.on) if k else 0.0
    w_u = _weight(state.off) if k < big_n else 0.0

    def cdf(i, c):
        return w_m * c + w_u * (i + 1 - c)

    out = np.empty(shots, dtype=np.int64)
    for shot, target in enumerate((gen.random(shots) * cdf(big_n - 1, k)).tolist()):
        c = first(0, k, lambda j: cdf(int(marked[j]), j + 1) > target)
        lo = int(marked[c - 1]) + 1 if c else 0
        hi = int(marked[c]) if c < k else big_n - 1
        out[shot] = first(lo, hi, lambda i: cdf(i, c) > target)
    return out


def _weight(level):
    """|level|**2 taken from a one-entry array, as ``PathState.probabilities`` computes it."""
    return float((np.abs(np.array([level])) ** 2)[0])


@st.composite
def uniform_shot_cases(draw):
    """n, a marked set (empty, random or every path), a shot count and a seed."""
    n = draw(st.integers(0, 6))
    big_n = 4**n
    marked = draw(
        st.one_of(
            st.just([]),
            st.sets(st.integers(0, big_n - 1), max_size=64).map(sorted),
            st.just(list(range(big_n))),
        )
    )
    return n, marked, draw(st.integers(1, 9)), draw(st.integers(0, 2**63))


@given(uniform_shot_cases())
def test_uniform_shots_in_closed_form_match_the_bisection(case):
    # The closed form against Generator.choice on a contiguous copy, against
    # the two-level sampler with both levels 2**-n, and against the bisection.
    n, marked, shots, seed = case
    for value in (np.float64(2.0**-n), np.complex128(2.0**-n)):
        start = PathState(n=n, amps=np.broadcast_to(value, (4**n,)))
        two_level = TwoLevelState(path_counts(n, marked), value, value)
        gens = [np.random.default_rng(seed) for _ in range(4)]
        got, *want = (measure_shots(s, g, shots) for s, g in zip((start, _contiguous(start), two_level), gens))
        want.append(_bisection_shots(two_level, gens[3], shots))
        for other in want:
            assert got.dtype == other.dtype
            assert np.array_equal(got, other)
        assert len({g.random() for g in gens}) == 1  # the same draws were used


class _ChoiceCounter(np.random.Generator):
    """A seeded generator that counts its ``choice`` calls."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_only_the_uniform_broadcast_skips_the_descent(n, monkeypatch):
    # A 2**-n broadcast PathState takes the closed form; any other PathState goes
    # to Generator.choice, and every TwoLevelState descends, even at 2**-n on both levels.
    calls = []
    descend = engine._descent_shots
    monkeypatch.setattr(engine, "_descent_shots", lambda *args: calls.append(args) or descend(*args))
    big_n = 4**n
    marked = path_counts(n, np.arange(0, big_n, 2))
    starts = [
        (np.broadcast_to(np.float64(2.0**-n), (big_n,)), False),
        (np.broadcast_to(np.complex128(2.0**-n), (big_n,)), False),
        (np.full(big_n, 2.0**-n), True),
        (np.broadcast_to(np.float64(-(2.0**-n)), (big_n,)), True),
        (np.broadcast_to(np.float64(2.0 ** -(n + 1)), (big_n,)), True),
        (np.broadcast_to(np.float64(0.3), (big_n,)), True),
    ]
    for amps, chooses in starts:
        gen = _ChoiceCounter()
        measure_shots(PathState(n=n, amps=amps), gen, 3)
        assert not calls
        assert gen.choices == chooses, (amps[0], amps.strides)
    for state in (TwoLevelState(marked, 2.0**-n, 2.0**-n), grover_iterate(prepare_uniform(n), marked, 0)):
        gen = _ChoiceCounter()
        measure_shots(state, gen, 3)
        assert calls and not gen.choices
        calls.clear()


def _descent_cases():
    """Two-level states: Grover states at n 1-7 and r in {1, 2, 3, 7, 20, 100},
    states with no weight on one level or random levels, and k = 1 at n = 9
    after r = 401."""
    rng = np.random.default_rng(27)
    for n in range(1, 8):
        big_n = 4**n
        for k in sorted({1, 2, big_n // 4, big_n // 2, big_n - 1, int(rng.integers(1, big_n))}):
            marked = np.sort(rng.choice(big_n, size=k, replace=False))
            for r in (1, 2, 3, 7, 20, 100):
                yield _iterate(n, marked, r)
            for a_marked, a_rest in ((1, 0), (0, 1), (rng.random(), rng.random())):
                yield _two_level_state(n, marked, a_marked, a_rest)
    yield _iterate(9, [123_456], 401)


def test_descent_matches_the_index_set_inversion():
    zero_level = {"marked": 0, "rest": 0}
    for case, state in enumerate(_descent_cases()):
        marked, reference = marked_indices(state.marked), statevector(state)
        probs = reference.probabilities()
        zero_level["marked"] += marked.size > 0 and probs[marked[0]] == 0
        zero_level["rest"] += marked.size < reference.dim and np.delete(probs, marked).max() == 0
        fast, ref = np.random.default_rng(case), np.random.default_rng(case)
        got = measure_shots(state, fast, 40)
        assert np.array_equal(got, _bisection_shots(state, ref, 40)), (state.n, marked.size)
        assert fast.random() == ref.random()  # the same draws were used
    assert zero_level["marked"] and zero_level["rest"]


def _small_landscapes():
    """Landscapes of 3x3 and 4x4 mazes at n 1-6 in every sim mode."""
    for n in range(1, 7):
        for mode in SimMode:
            m = 3 + n % 2
            yield landscape(generate_maze(m, seed=n), n, make_spec(m, Formula.MAIN, mode))


def test_descent_at_every_threshold_matches_the_inversion_and_the_statevector():
    # Each landscape's marked sets at every cutoff below f_max and at f_max under
    # GE_AT_MAX, sampled after r iterates: shot for shot as the index-set
    # inversion draws them, and as Generator.choice draws from the statevector
    # stepped by oracle and diffuser from the uniform state.
    checked = 0
    for scape in _small_landscapes():
        uniform = prepare_uniform(scape.n)
        for cutoff in np.unique(np.r_[scape.levels - 1, scape.f_max]).tolist():
            indices = marked_for_cutoff(scape, cutoff, Strictness.GE_AT_MAX)
            stepped = uniform
            for r in range(1, 21):
                stepped = apply_diffuser(apply_oracle(stepped, indices))
                if r not in (1, 2, 3, 7, 20):
                    continue
                state = grover_iterate(uniform, marked_paths(scape, cutoff, Strictness.GE_AT_MAX), r)
                gens = [np.random.default_rng(checked) for _ in range(3)]
                got = measure_shots(state, gens[0], 7)
                assert np.array_equal(got, _bisection_shots(state, gens[1], 7)), (scape.n, cutoff, r)
                assert np.array_equal(got, measure_shots(stepped, gens[2], 7)), (scape.n, cutoff, r)
                assert len({g.random() for g in gens}) == 1  # the same draws were used
                checked += 1
    assert checked > 500


class _FixedDraws(np.random.Generator):
    """A generator whose ``random`` returns the given draws."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.draws.size
        return self.draws.copy()


def _choice_by_hand(state, draws):
    """Generator.choice's inversion: cumsum, divide by the last entry, search right."""
    probs = state.probabilities()
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(draws, side="right")


def _two_level_state(n, marked, a_marked, a_rest):
    """Complex levels a_marked and a_rest on a sorted marked set, scaled to norm 1."""
    amps = np.full(4**n, a_rest, dtype=np.complex128)
    amps[marked] = a_marked
    norm = np.linalg.norm(amps)
    return TwoLevelState(path_counts(n, marked), np.complex128(a_marked) / norm, np.complex128(a_rest) / norm)


@pytest.mark.parametrize("n", range(0, 7))
def test_two_level_shots_at_extreme_draws(n):
    draws = [0.0, np.nextafter(1.0, 0.0)]
    cases = [state for state, _, _ in _grover_cases(n)]
    # Zero weight on one level: the ends of the distribution must skip it.
    for k in sorted({1, 4**n // 2, 4**n - 1} - {0, 4**n}):
        marked = np.sort(np.random.default_rng(k).choice(4**n, size=k, replace=False))
        cases.append(_two_level_state(n, marked, 1, 0))
        cases.append(_two_level_state(n, marked, 0, 1))
    for state in cases:
        reference = statevector(state)
        got = measure_shots(state, _FixedDraws(draws), 2)
        assert np.array_equal(got, _choice_by_hand(reference, draws)), (n, state.marked.k)
        assert np.all(reference.probabilities()[got] > 0)


@pytest.mark.parametrize(
    ("on", "off"),
    [
        (np.float64(0.42672114373024106), np.float64(0.5221459136721442)),
        (np.complex128(0.496621556292265 + 0.24551948182149674j), np.complex128(0.4806548359172628)),
    ],
    ids=["float", "complex"],
)
def test_two_level_weights_square_the_levels_as_probabilities_does(on, off):
    # For these levels a numpy scalar's ** 2, or Python's abs of a complex, is an ulp off
    # the array's |x|**2, and the draw at F(0) / F(N-1), the first step of the
    # distribution, then lands on the other side of it.
    state = TwoLevelState(path_counts(1, [0]), on, off)
    reference = statevector(state)
    probs = reference.probabilities()
    assert float(np.abs(on) ** 2) != probs[0] or abs(complex(on)) ** 2 != probs[0]
    draws = [probs[0] / (probs[0] + 3 * probs[1])]
    got = measure_shots(state, _FixedDraws(draws), 1)
    assert np.array_equal(got, _bisection_shots(state, _FixedDraws(draws), 1))
    assert np.array_equal(got, _choice_by_hand(reference, draws))


def test_rotation_spectrum_half_marked():
    eig = rotation_spectrum(GroverGeometry(16, 8))
    assert np.allclose(sorted(eig, key=lambda z: z.imag), [-1j, 1j], atol=ATOL_DYNAMICS)


def test_rotation_spectrum_closed_form():
    geometry = GroverGeometry(16, 3)
    eig = rotation_spectrum(geometry)
    want = [cmath.exp(-2j * geometry.theta), cmath.exp(2j * geometry.theta)]
    assert np.allclose(eig, want, atol=ATOL_DYNAMICS)
    assert abs(np.prod(eig) - 1.0) < ATOL_DYNAMICS  # rotation determinant


def test_rotation_block_matches_matrix():
    geometry = GroverGeometry(64, 5)
    t2 = 2 * geometry.theta
    want = np.array(
        [[math.cos(t2), -math.sin(t2)], [math.sin(t2), math.cos(t2)]]
    )
    assert np.allclose(rotation_block(geometry), want, atol=ATOL_DYNAMICS)


def test_rotation_spectrum_degenerate():
    with pytest.raises(DegenerateGeometryError):
        rotation_spectrum(GroverGeometry(16, 0))
    with pytest.raises(DegenerateGeometryError):
        rotation_spectrum(GroverGeometry(16, 16))


def test_state_shape_guard():
    with pytest.raises(ValueError):
        PathState(n=2, amps=np.zeros(15, dtype=complex))
    with pytest.raises(ValueError):
        GroverGeometry(16, 17)

