"""Exact amplitude-amplification simulator over the path register.

A ``PathState`` holds 4**n amplitudes indexed by encoded paths.
``prepare_uniform`` makes them real float64, since the start, the oracle
and the diffuser are all real; every operation also accepts a complex
state and keeps it complex. The uniform state is one float64 broadcast
over all 4**n entries: a read-only zero-stride view that allocates nothing.
The oracle is diagonal (marked amplitudes get a sign flip), the diffuser
is inversion about the mean, and their composition rotates the state by
2*theta inside the two-dimensional span of the marked and unmarked
superpositions, with theta = arcsin(sqrt(k/N)). A search starts every
round from the uniform state, which lies in that span, so
``grover_iterate`` takes only that state and applies r iterates by
rotating in the span (Boyer, Brassard, Hoyer and Tapp,
arXiv:quant-ph/9605034): the two levels, one on the marked paths and one
on the rest, are scalar functions of (n, k, r). The marked set is a
``PathCounts``: per-row suffix counts over a path automaton, which give k
and, for the sampler, the number of marked paths under every node of the
4-ary code tree. ``measure_shots`` samples a ``TwoLevelState`` by
descending that tree, as counting-based uniform generation does (Jerrum,
Valiant and Vazirani, TCS 43, 1986), with no 4**n array. The
statevector, ``apply_oracle`` then ``apply_diffuser`` on a ``PathState``
and ``Generator.choice`` over its Born probabilities, is the reference
only, which the iterate and the sampler are tested against. Operations
never modify their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec


@dataclass(frozen=True)
class PathState:
    """Amplitudes over all 4**n basis paths; L2 norm 1."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (codec.path_count(self.n),):
            raise ValueError(f"state must have 4**{self.n} amplitudes")

    @property
    def dim(self) -> int:
        return self.amps.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def marked_probability(self, marked) -> float:
        """Born probability of the marked set; a repeated index counts once."""
        idx = _marked_indices(self, marked)
        return float(np.sum(np.abs(self.amps[idx]) ** 2))


@dataclass(frozen=True)
class PathCounts:
    """A set of length-n paths, counted over a path automaton.

    ``table[row][move]`` is the row that one move leads to, and
    ``counts[s][row]`` is how many of the 4**s move sequences from ``row``
    lie in the set; the paths start at row ``start``, so the set holds
    ``counts[n][start]`` paths. Both are lists of Python ints.
    """

    table: list[list[int]]
    counts: list[list[int]]
    start: int

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def k(self) -> int:
        return self.counts[-1][self.start]


@dataclass(frozen=True)
class TwoLevelState:
    """Amplitude ``on`` on each path of ``marked`` and ``off`` on every other path of length ``marked.n``."""

    marked: PathCounts
    on: float | complex
    off: float | complex

    @property
    def n(self) -> int:
        return self.marked.n


@dataclass(frozen=True)
class GroverGeometry:
    """The (N, k, theta) triple governing the rotation dynamics."""

    num_states: int
    num_marked: int

    def __post_init__(self):
        if not 0 <= self.num_marked <= self.num_states:
            raise ValueError("marked count must lie in [0, N]")

    @property
    def theta(self) -> float:
        return math.asin(math.sqrt(self.num_marked / self.num_states))

    @property
    def degenerate(self) -> bool:
        return self.num_marked == 0

    def success_probability(self, rounds: int) -> float:
        """Closed-form marked probability after ``rounds`` iterations."""
        return math.sin((2 * rounds + 1) * self.theta) ** 2


class DegenerateGeometryError(ValueError):
    """Nothing is marked: the oracle is the identity and rotation is undefined."""


def prepare_uniform(n: int) -> PathState:
    """Uniform superposition: every amplitude exactly 1/2**n.

    The amplitudes are one float64 broadcast over 4**n entries, a read-only
    view with stride 0; writing to it raises ValueError.
    """
    return PathState(n=n, amps=np.broadcast_to(np.float64(2.0**-n), (codec.path_count(n),)))


def _marked_indices(state: PathState, marked) -> np.ndarray:
    """Marked basis indices as sorted unique int64, each checked to lie in [0, dim).

    A set that is already sorted and unique takes one sortedness pass in place
    of np.unique, which costs more; once sorted, the ends alone bound every index.
    """
    idx = np.asarray(marked, dtype=np.int64).ravel()
    if np.any(idx[1:] <= idx[:-1]):
        idx = np.unique(idx)
    if idx.size and (idx[0] < 0 or idx[-1] >= state.dim):
        raise ValueError("marked index out of range")
    return idx


def apply_oracle(state: PathState, marked) -> PathState:
    """Negate the amplitudes of the marked basis states (a repeat flips once)."""
    idx = _marked_indices(state, marked)
    amps = state.amps.copy()
    amps[idx] = -amps[idx]
    return PathState(n=state.n, amps=amps)


def apply_diffuser(state: PathState) -> PathState:
    """Inversion about the mean: a -> 2*mean(a) - a."""
    mean = state.amps.mean()
    return PathState(n=state.n, amps=2 * mean - state.amps)


def grover_iterate(state: PathState, marked: PathCounts, rounds: int) -> TwoLevelState:
    """Apply (diffuser . oracle) ``rounds`` times to ``prepare_uniform``'s state.

    The state must be the 2**-n broadcast with stride 0 that
    ``prepare_uniform`` returns, and ``marked`` a set of paths of the same
    length n; anything else raises ValueError, at every ``rounds``. Only
    ``marked.k`` enters the levels, which ``uniform_levels`` computes; the
    result equals r-fold ``apply_diffuser(apply_oracle(.))`` up to rounding,
    for k = 0 and k = N as well.
    """
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    n = state.n
    if state.amps.strides != (0,) or state.amps[0] != 2.0**-n:
        raise ValueError("grover_iterate needs prepare_uniform's state: a 2**-n broadcast with stride 0")
    if marked.n != n:
        raise ValueError(f"marked set holds paths of length {marked.n}, the state's are {n}")
    return TwoLevelState(marked, *uniform_levels(n, marked.k, rounds))


def uniform_levels(n: int, k: int, rounds: int) -> tuple[float, float]:
    """The marked and unmarked amplitudes after ``rounds`` iterates from the uniform state, with k of 4**n paths marked.

    With a0 = 2**-n, the means on the k marked paths and on the rest are
    alpha = k*a0/k and beta = (N*a0 - k*a0)/(N-k), and r iterates rotate
    (x, y) = (sqrt(k)*alpha, sqrt(N-k)*beta) by 2*r*theta to (x_r, y_r).
    The marked level is a0 + (alpha_r - alpha) and the unmarked one beta_r
    (a0 on both for r = 0). Both means are exact for a0 = 2**-n, so the
    unmarked term (-1)**r * (a0 - beta) of a general constant start is
    exactly 0 here whenever an unmarked path exists, and the levels are bit
    for bit those of the same decomposition summed over a contiguous copy
    of the state.
    """
    a0 = 2.0**-n
    if rounds == 0:
        return a0, a0
    big_n = 4**n
    # max(., 1) gives an empty level mean 0; it weighs nothing in the sampler.
    in_m, in_u = max(k, 1), max(big_n - k, 1)
    marked_sum = k * a0
    alpha = marked_sum / in_m
    beta = (big_n * a0 - marked_sum) / in_u
    angle = 2 * rounds * GroverGeometry(big_n, k).theta
    c, s = math.cos(angle), math.sin(angle)
    x, y = math.sqrt(k) * alpha, math.sqrt(big_n - k) * beta
    alpha_r = (x * c + y * s) / math.sqrt(in_m)
    beta_r = (y * c - x * s) / math.sqrt(in_u)
    return a0 + (alpha_r - alpha), beta_r


def optimal_rounds(geometry: GroverGeometry) -> int:
    """Iteration count maximizing the marked probability: floor(pi/(4*theta) - 1/2).

    A 1e-9 nudge keeps exact-rotation cases (e.g. k = N/4, theta = pi/6,
    where the argument is the integer 1) from flooring one step low on a
    one-ulp rounding error.
    """
    if geometry.degenerate:
        raise DegenerateGeometryError("no marked states: rotation angle is zero")
    return max(0, math.floor(math.pi / (4 * geometry.theta) - 0.5 + 1e-9))


def measure_shots(state: PathState | TwoLevelState, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Sample many basis indices; deterministic for a seeded generator.

    A ``PathState`` is sampled by ``Generator.choice`` over its Born
    probabilities, the reference for any state, except a 2**-n broadcast
    such as ``prepare_uniform``'s: every weight is the power of two 4**-n,
    so the smallest i with cumulative weight (i + 1) * 4**-n > u is exactly
    floor(u * 4**n), the index ``choice`` returns for the same draw u. A
    ``TwoLevelState`` is sampled by descending the 4-ary code tree of its
    marked set, in O(shots * n) steps with no 4**n array. Every path draws
    ``rng.random(shots)`` and returns the smallest index whose cumulative
    weight exceeds the draw's share of the total, so a seed gives the same
    shots from the two-level state as from its statevector unless a draw
    lands within rounding of a step of the distribution.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if isinstance(state, TwoLevelState):
        return _descent_shots(state, rng, shots)
    if state.amps.strides == (0,) and state.amps[0] == 2.0**-state.n:
        return (rng.random(shots) * state.dim).astype(np.int64)
    probs = state.probabilities()
    probs = probs / probs.sum()  # guard rounding drift at the 1e-16 level
    return rng.choice(state.dim, size=shots, p=probs)


def _weight(level: float | complex) -> float:
    """|level|**2, bit for bit as ``PathState.probabilities`` computes it; a numpy scalar's ``** 2`` is not."""
    a = float(np.abs(level))
    return a * a


def _descent_shots(state: TwoLevelState, gen: np.random.Generator, shots: int) -> np.ndarray:
    """Invert F(i) = w_m*c(i) + w_u*(i + 1 - c(i)), c(i) = #marked <= i, per shot, by descent.

    F is non-decreasing in floating point, since + and * round monotonically,
    and flat across zero-weight indices, so the smallest i with
    F(i) > u*F(N-1) always has weight > 0. Each shot walks down the code
    tree, first move as the most significant digit: at each node it enters
    the first child whose last index i has F(i) above the target, with c(i)
    summed from the counts. Every index before that child has F at most the
    target and the child's last index is above it, so the walk ends on that
    smallest i, the one the statevector's inversion returns. Some child
    always passes: F(N-1) exceeds u*F(N-1) for every draw u < 1, and the
    child entered one level up passed at its own last index.
    """
    marked = state.marked
    table, counts = marked.table, marked.counts
    n, k = marked.n, marked.k
    big_n = 4**n
    w_m = _weight(state.on) if k else 0.0
    w_u = _weight(state.off) if k < big_n else 0.0
    out = np.empty(shots, dtype=np.int64)
    for shot, target in enumerate((gen.random(shots) * (w_m * k + w_u * (big_n - k))).tolist()):
        row, index, c = marked.start, 0, 0
        for s in range(n - 1, -1, -1):
            size, below = 4**s, counts[s]
            for child in table[row]:
                after, index = c + below[child], index + size
                if w_m * after + w_u * (index - after) > target:
                    break
                c = after
            index -= size
            row = child
        out[shot] = index
    return out
