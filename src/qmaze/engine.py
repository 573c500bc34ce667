"""Exact amplitude-amplification simulator over the path register.

Holds 4**n amplitudes indexed by encoded paths. ``prepare_uniform`` makes
them real float64, since the start, the oracle and the diffuser are all
real; every operation also accepts a complex state and keeps it complex.
The uniform state is one float64 broadcast over all 4**n entries: a
read-only zero-stride view that allocates nothing.
The oracle is diagonal (marked amplitudes get a sign flip), the diffuser
is inversion about the mean, and their composition rotates the state by
2*theta inside the two-dimensional span of the marked and unmarked
superpositions, with theta = arcsin(sqrt(k/N)). A search starts every
round from the uniform state, which lies in that span, so
``grover_iterate`` takes only a constant (stride-0) state and applies r
iterates by rotating in the span (Boyer, Brassard, Hoyer and Tapp,
arXiv:quant-ph/9605034): its output has two levels, one on the marked
set and one on the rest, written without reading the input. The
step-by-step composition of ``apply_oracle`` and ``apply_diffuser``
takes any state and is the statevector reference the iterate is tested
against. Operations never modify their input; ``grover_iterate`` with
zero rounds returns its input state, and every other operation returns a
new one.
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def marked_probability(self, marked) -> float:
        """Born probability of the marked set; a repeated index counts once."""
        idx = _marked_indices(self, marked)
        return float(np.sum(np.abs(self.amps[idx]) ** 2))


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

    marked_for_cutoff passes sorted unique sets, so one sortedness pass skips
    np.unique, which costs more; once sorted, the ends alone bound every index.
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


def grover_iterate(state: PathState, marked, rounds: int) -> PathState:
    """Apply (diffuser . oracle) ``rounds`` times to a constant state, such as ``prepare_uniform``'s.

    The state must be one value a0 broadcast with stride 0; any other state
    raises ValueError, at every ``rounds``. Its means on the k marked
    indices and on the rest are alpha = k*a0/k and beta = (N*a0 - k*a0)/(N-k),
    and r iterates rotate (x, y) = (sqrt(k)*alpha, sqrt(N-k)*beta) by
    2*r*theta. So the output has two levels, a0 + (alpha_r - alpha) on the
    marked set and (-1)**r * (a0 - beta) + beta_r on the rest, and equals
    r-fold ``apply_diffuser(apply_oracle(.))`` up to rounding, for k = 0 and
    k = N as well; a marked index listed twice counts once. For a0 = 2**-n
    both means are exact, so the levels are bit for bit those of the same
    decomposition summed over a contiguous copy of the state.
    """
    if rounds < 0:
        raise ValueError("round count must be >= 0")
    idx = _marked_indices(state, marked)
    if state.amps.strides != (0,):
        raise ValueError("grover_iterate needs a constant state with stride 0, such as prepare_uniform's")
    if rounds == 0:
        return state
    a0 = state.amps[0]
    big_n, k = state.dim, idx.size
    # max(., 1) gives an empty set mean 0; it has no entries to write.
    in_m, in_u = max(k, 1), max(big_n - k, 1)
    marked_sum = k * a0
    alpha = marked_sum / in_m
    beta = (big_n * a0 - marked_sum) / in_u
    angle = 2 * rounds * GroverGeometry(big_n, k).theta
    c, s = math.cos(angle), math.sin(angle)
    x, y = math.sqrt(k) * alpha, math.sqrt(big_n - k) * beta
    alpha_r = (x * c + y * s) / math.sqrt(in_m)
    beta_r = (y * c - x * s) / math.sqrt(in_u)
    # For odd r, (-1)**r * (a0 - beta) is taken as beta - a0: equal but for the sign of a zero.
    out = np.full(big_n, (beta - a0 if rounds % 2 else a0 - beta) + beta_r)
    out[idx] = a0 + (alpha_r - alpha)
    return PathState(n=state.n, amps=out)


def optimal_rounds(geometry: GroverGeometry) -> int:
    """Iteration count maximizing the marked probability: floor(pi/(4*theta) - 1/2).

    A 1e-9 nudge keeps exact-rotation cases (e.g. k = N/4, theta = pi/6,
    where the argument is the integer 1) from flooring one step low on a
    one-ulp rounding error.
    """
    if geometry.degenerate:
        raise DegenerateGeometryError("no marked states: rotation angle is zero")
    return max(0, math.floor(math.pi / (4 * geometry.theta) - 0.5 + 1e-9))


def measure(state: PathState, rng: np.random.Generator | int) -> int:
    """Sample one basis index with Born-rule probabilities."""
    return int(measure_shots(state, rng, 1)[0])


def measure_shots(
    state: PathState,
    rng: np.random.Generator | int,
    shots: int,
    marked: np.ndarray | None = None,
) -> np.ndarray:
    """Sample many basis indices; deterministic for a seeded generator.

    Without ``marked`` this is ``Generator.choice`` over the Born
    probabilities, the reference for any state. With ``marked`` the caller
    promises that ``marked`` is sorted, unique and in range, and that the
    amplitude is constant on ``marked`` and constant on its complement;
    every ``grover_iterate`` output keeps that promise for its marked set.
    Then the weights are read from two amplitudes, and each shot inverts
    the cumulative distribution by scalar bisection, in
    O(shots * (log k + n)) steps with no 4**n array. Both paths draw
    ``rng.random(shots)`` and return the smallest index whose cumulative
    weight exceeds the draw's share of the total, so a seed gives the same
    shots from either path unless a draw lands within rounding of a step of
    the distribution.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if marked is not None:
        return _two_level_shots(state, gen, shots, np.asarray(marked, dtype=np.int64))
    probs = state.probabilities()
    probs = probs / probs.sum()  # guard rounding drift at the 1e-16 level
    return gen.choice(state.dim, size=shots, p=probs)


def _bisect(lo: int, hi: int, above) -> int:
    """Smallest i in [lo, hi) with above(i), or hi if none; above must be monotone."""
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _two_level_shots(
    state: PathState, gen: np.random.Generator, shots: int, marked: np.ndarray
) -> np.ndarray:
    """Invert F(i) = w_m*c(i) + w_u*(i + 1 - c(i)), c(i) = #marked <= i, per shot.

    F is non-decreasing in floating point and flat across zero-weight
    indices, so the smallest i with F(i) > u*F(N-1) always has weight > 0.
    Each shot bisects twice on scalars: over the marked entries, where
    c(marked[j]) = j + 1, for the first one above the target, then over the
    unmarked gap before it, where c is constant.
    """
    big_n, k = state.dim, marked.size
    if k and (marked[0] < 0 or marked[-1] >= big_n):
        raise ValueError("marked index out of range")
    first_u = _bisect(0, k, lambda j: marked[j] != j)

    def weight(i: int) -> float:  # as probabilities() computes it
        return float((np.abs(state.amps[i : i + 1]) ** 2)[0])

    w_m = weight(marked[0]) if k else 0.0
    w_u = weight(first_u) if first_u < big_n else 0.0

    def cdf(i: int, c: int) -> float:
        return w_m * c + w_u * (i + 1 - c)

    out = np.empty(shots, dtype=np.int64)
    for shot, target in enumerate((gen.random(shots) * cdf(big_n - 1, k)).tolist()):
        c = _bisect(0, k, lambda j: cdf(int(marked[j]), j + 1) > target)
        # c < k whenever marked[-1] == N-1, because target < F(N-1).
        lo = int(marked[c - 1]) + 1 if c else 0
        hi = int(marked[c]) if c < k else big_n - 1
        out[shot] = _bisect(lo, hi, lambda i: cdf(i, c) > target)
    return out


def rotation_block(geometry: GroverGeometry) -> np.ndarray:
    """The 2x2 matrix of one Grover iterate on span{|perp>, |T>}.

    Built from the statevector action of one oracle-then-diffuser step on
    the two basis vectors (synthetic marked set of the right size), not
    from the closed form or ``grover_iterate``; in this basis order it
    equals [[cos2t, -sin2t], [sin2t, cos2t]].
    """
    if geometry.degenerate or geometry.num_marked == geometry.num_states:
        raise DegenerateGeometryError("rotation block needs 1 <= k < N")
    big_n, k = geometry.num_states, geometry.num_marked
    n = round(math.log(big_n, 4))
    if 4**n != big_n:
        raise ValueError("state count must be a power of four")
    marked = np.arange(k, dtype=np.int64)
    target = np.zeros(big_n, dtype=np.complex128)
    target[:k] = 1 / math.sqrt(k)
    perp = np.zeros(big_n, dtype=np.complex128)
    perp[k:] = 1 / math.sqrt(big_n - k)
    basis = (perp, target)
    block = np.empty((2, 2), dtype=np.complex128)
    for col, vec in enumerate(basis):
        out = apply_diffuser(apply_oracle(PathState(n=n, amps=vec), marked)).amps
        block[0, col] = np.vdot(basis[0], out)
        block[1, col] = np.vdot(basis[1], out)
    return block


def rotation_spectrum(geometry: GroverGeometry) -> np.ndarray:
    """Eigenvalues of the iterate's 2x2 block; equals exp(+/-2i*theta)."""
    eig = np.linalg.eigvals(rotation_block(geometry))
    return eig[np.argsort(eig.imag)]  # e^{-2i theta} first, e^{+2i theta} second

