"""Amplitude dynamics vs the closed rotation form, exact at small sizes."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmaze.engine import (
    DegenerateGeometryError,
    GroverGeometry,
    PathState,
    apply_diffuser,
    apply_oracle,
    grover_iterate,
    measure,
    measure_shots,
    optimal_rounds,
    prepare_uniform,
    rotation_block,
    rotation_spectrum,
)

ATOL_NORM = 1e-12
ATOL_DYNAMICS = 1e-9


def test_uniform_amplitudes_exact():
    for n in range(0, 9):
        state = prepare_uniform(n)
        assert state.dim == 4**n
        assert state.amps.dtype == np.float64
        assert np.all(state.amps == 1.0 / 2**n)  # exact in double precision
        assert abs(state.norm() - 1.0) < ATOL_NORM
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
    assert abs(flipped.norm() - 1.0) < ATOL_NORM


def test_oracle_negates_one_amplitude():
    state = apply_oracle(prepare_uniform(2), [9])
    assert state.amps[9] == -0.25
    assert np.all(state.amps[np.arange(16) != 9] == 0.25)


def test_marked_probability_counts_a_repeat_once():
    assert prepare_uniform(1).marked_probability([0, 0, 0, 0, 0]) == 0.25
    assert prepare_uniform(1).marked_probability([3, 0, 3]) == 0.5


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


def test_iterate_zero_rounds_probability():
    geometry = GroverGeometry(16, 5)
    state = grover_iterate(prepare_uniform(2), np.arange(5), 0)
    assert abs(state.marked_probability(np.arange(5)) - 5 / 16) < ATOL_DYNAMICS
    assert abs(geometry.success_probability(0) - 5 / 16) < ATOL_DYNAMICS


def test_iterate_closed_form_example():
    # n=2, k=1, r=2: sin^2(5 * arcsin(1/4)).
    want = math.sin(5 * math.asin(0.25)) ** 2
    state = grover_iterate(prepare_uniform(2), [9], 2)
    assert abs(state.marked_probability([9]) - want) < ATOL_DYNAMICS


def test_iterate_full_marked_set_stays_certain():
    for r in range(4):
        state = grover_iterate(prepare_uniform(1), np.arange(4), r)
        assert abs(state.marked_probability(np.arange(4)) - 1.0) < ATOL_DYNAMICS


@pytest.mark.parametrize("marked", [[99], [4], [-1], [0, 3, 4], [3, 9, 0], [3, -1, 0], 4])
@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_iterate_rejects_out_of_range(marked, rounds):
    # [3, 9, 0] and [3, -1, 0] are unsorted, with the bad index in the middle; 4 is a scalar.
    with pytest.raises(ValueError):
        grover_iterate(prepare_uniform(1), marked, rounds)


@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_iterate_takes_a_scalar_index(rounds):
    state = prepare_uniform(1)
    got = grover_iterate(state, 3, rounds)
    assert np.array_equal(got.amps, grover_iterate(state, [3], rounds).amps)
    assert state.marked_probability(3) == state.marked_probability([3])


@pytest.mark.parametrize("rounds", range(6))
def test_iterate_counts_a_repeated_index_once(rounds):
    state = prepare_uniform(2)
    got = grover_iterate(state, [5, 1, 5, 5], rounds)
    assert np.array_equal(got.amps, grover_iterate(state, [1, 5], rounds).amps)


def test_iterate_rejects_negative_rounds():
    with pytest.raises(ValueError):
        grover_iterate(prepare_uniform(1), [0], -1)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_iterate_rejects_a_state_that_is_not_a_broadcast(n, rounds):
    ramp = np.linspace(1, 2, 4**n)
    for state in (_contiguous(prepare_uniform(n)), PathState(n=n, amps=ramp / np.linalg.norm(ramp))):
        with pytest.raises(ValueError, match="stride 0"):
            grover_iterate(state, [0], rounds)


@st.composite
def iterate_cases(draw):
    """A constant start, a marked list, and a round count.

    The start is the uniform state or a complex broadcast of 2**-n times
    1, -1, 1j or -1j, whose sums are exact like the uniform state's.
    """
    n = draw(st.integers(0, 4))
    big_n = 4**n
    state = prepare_uniform(n)
    if draw(st.booleans()):
        phase = draw(st.sampled_from([1, -1, 1j, -1j]))
        state = PathState(n=n, amps=np.broadcast_to(np.complex128(phase * 2.0**-n), (big_n,)))
    index = st.integers(0, big_n - 1)
    with_repeats = st.lists(index, max_size=big_n + 4)
    marked = draw(
        st.one_of(
            with_repeats,
            st.sets(index).map(sorted),
            with_repeats.map(lambda extra: list(range(big_n)) + extra),
        )
    )
    return state, np.array(marked, dtype=np.int64), draw(st.integers(0, 64))


@given(iterate_cases())
def test_iterate_matches_stepwise_reference(case):
    state, marked, rounds = case
    want = state
    for _ in range(rounds):
        want = apply_diffuser(apply_oracle(want, marked))
    got = grover_iterate(state, marked, rounds)
    assert got.amps.dtype == want.amps.dtype == state.amps.dtype
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
    state, marked, rounds = case
    got = grover_iterate(state, marked, rounds)
    assert np.array_equal(got.amps, three_step_iterate(state, marked, rounds).amps)


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
        for r in range(41):
            got = grover_iterate(uniform, marked, r).amps
            want = three_step_iterate(copy, marked, r).amps
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (n, marked.size, r)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (n, marked.size, r)


@pytest.mark.parametrize("n", range(0, 7))
def test_iterate_output_has_one_level_on_the_marked_set_and_one_on_the_rest(n):
    # measure_shots(..., marked=...) reads the weights of exactly these two levels.
    complex_start = np.broadcast_to(np.complex128(-1j * 2.0**-n), (4**n,))
    starts = (prepare_uniform(n), PathState(n=n, amps=complex_start))
    for marked in _marked_sets(n):
        rest = np.setdiff1d(np.arange(4**n), marked)
        for state in starts:
            for r in range(41):
                amps = grover_iterate(state, marked, r).amps
                assert np.unique(amps[marked]).size <= 1, (n, marked.size, r)
                assert np.unique(amps[rest]).size <= 1, (n, marked.size, r)


@pytest.mark.parametrize("n", range(0, 5))
def test_uniform_state_reads_like_a_contiguous_copy(n):
    uniform = prepare_uniform(n)
    copy = _contiguous(uniform)
    assert uniform.norm() == copy.norm()
    assert np.array_equal(uniform.probabilities(), copy.probabilities())
    assert np.array_equal(apply_diffuser(uniform).amps, apply_diffuser(copy).amps)
    for marked in _marked_sets(n):
        assert np.array_equal(apply_oracle(uniform, marked).amps, apply_oracle(copy, marked).amps)
        assert uniform.marked_probability(marked) == copy.marked_probability(marked)
        for two_level in (None, marked):
            gens = np.random.default_rng(7), np.random.default_rng(7)
            got, want = (measure_shots(s, g, 5, marked=two_level) for s, g in zip((uniform, copy), gens))
            assert np.array_equal(got, want), (n, marked.size, two_level is None)
            assert gens[0].random() == gens[1].random()


def test_complex_broadcast_state_stays_complex():
    state = PathState(n=2, amps=np.broadcast_to(np.complex128(0.25j), (16,)))
    marked = np.array([3, 9])
    want = state
    for r in range(6):
        got = grover_iterate(state, marked, r)
        assert got.amps.dtype == np.complex128
        assert np.array_equal(got.amps, three_step_iterate(_contiguous(state), marked, r).amps)
        assert np.allclose(got.amps, want.amps, rtol=0, atol=ATOL_NORM)
        want = apply_diffuser(apply_oracle(want, marked))


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
            assert abs(state.norm() - 1.0) < ATOL_NORM
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
    assert all(measure(state, seed) == 9 for seed in range(5))


def test_measure_uniform_frequencies():
    state = prepare_uniform(1)
    samples = measure_shots(state, 12345, 40000)
    freq = np.bincount(samples, minlength=4) / 40000
    assert np.all(np.abs(freq - 0.25) < 0.01)


def test_measure_post_grover_frequency():
    state = grover_iterate(prepare_uniform(2), [9], 2)
    want = GroverGeometry(16, 1).success_probability(2)
    samples = measure_shots(state, 99, 10000)
    assert abs(np.mean(samples == 9) - want) < 0.01


def test_measure_seed_reproducible():
    state = prepare_uniform(3)
    assert np.array_equal(measure_shots(state, 5, 100), measure_shots(state, 5, 100))


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
                yield grover_iterate(prepare_uniform(n), marked, r), marked, r


def _end_cases(n):
    """Grover states whose marked sets of sizes 1, 2 and N/2 hold index 0, N - 1 or both."""
    big_n = 4**n
    inner = np.random.default_rng(n).choice(np.arange(1, big_n - 1), big_n // 2 - 2, replace=False)
    for marked in ([0], [big_n - 1], [0, big_n - 1], np.sort(np.r_[0, inner, big_n - 1])):
        marked = np.asarray(marked, dtype=np.int64)
        r_opt = optimal_rounds(GroverGeometry(big_n, marked.size))
        for r in sorted({0, 1, 2, r_opt}):
            yield grover_iterate(prepare_uniform(n), marked, r), marked, r


@pytest.mark.parametrize("n", range(0, 10))
def test_two_level_shots_match_reference(n):
    cases = _grover_cases(n) if n < 8 else _end_cases(n)
    for state, marked, r in cases:
        for shots in (1, 5):
            for seed in range(3):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = measure_shots(state, fast, shots, marked=marked)
                want = measure_shots(state, ref, shots)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, marked.size, r, shots, seed)
                assert fast.random() == ref.random()  # the same draws were used


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
    amps = np.full(4**n, a_rest, dtype=np.complex128)
    amps[marked] = a_marked
    return PathState(n=n, amps=amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(0, 7))
def test_two_level_shots_at_extreme_draws(n):
    draws = [0.0, np.nextafter(1.0, 0.0)]
    cases = [(state, marked) for state, marked, _ in _grover_cases(n)]
    # Zero weight on one level: the ends of the distribution must skip it.
    for k in sorted({1, 4**n // 2, 4**n - 1} - {0, 4**n}):
        marked = np.sort(np.random.default_rng(k).choice(4**n, size=k, replace=False))
        cases.append((_two_level_state(n, marked, 1, 0), marked))
        cases.append((_two_level_state(n, marked, 0, 1), marked))
    for state, marked in cases:
        got = measure_shots(state, _FixedDraws(draws), 2, marked=marked)
        assert np.array_equal(got, _choice_by_hand(state, draws)), (n, marked.size)
        assert np.all(state.probabilities()[got] > 0)


@pytest.mark.parametrize("marked", [[-1, 2], [0, 4]])
def test_two_level_shots_reject_out_of_range(marked):
    with pytest.raises(ValueError):
        measure_shots(prepare_uniform(1), 0, 1, marked=marked)


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

