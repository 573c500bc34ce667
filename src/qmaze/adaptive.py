"""Adaptive cutoff search: the classical loop around the Grover engine.

Each round marks paths whose fitness exceeds the current cutoff, runs the
amplitude-amplification iterate, samples, and ratchets the cutoff to the
best fitness seen: C_{t+1} = max(C_t, f*_t). The cutoff sequence is
non-decreasing, bounded by the landscape maximum, and strictly increases
at most f_max - C_1 times, so the loop converges in finite time.

k comes from the landscape's fitness histogram. A round that runs an
iterate marks its paths by per-row suffix counts over the landscape's path
automaton, built once per cutoff in n passes over its rows: ``grover_iterate``
reads only k from them, and the sampler descends the code tree by them. A
round with no iterate samples the uniform state itself, whose shots have a
closed form. A shot's fitness is read along its n moves, so a search makes
no pass over the 4**n paths and never builds the landscape's ``values``.
``marked_for_cutoff``, the marked set as sorted path indices, is the
reference the counts are tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .engine import (
    GroverGeometry,
    PathCounts,
    grover_iterate,
    measure_shots,
    optimal_rounds,
    prepare_uniform,
)
from .fitness import FitnessLandscape

# Escalation base for iteration counts when k is treated as unknown.
GUESS_GROWTH = 6 / 5

_EVERY_MOVE = np.ones(4, dtype=np.int64)


class Policy(enum.Enum):
    KNOWN_K = "known-k"
    GUESSED_K = "guessed-k"


class Strictness(enum.Enum):
    STRICT = "strict"
    GE_AT_MAX = "ge-at-max"


class Status(enum.Enum):
    CONVERGED_OPTIMAL = "converged-optimal"
    BUDGET_EXHAUSTED = "budget-exhausted"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SearchConfig:
    initial_cutoff: int = 0
    max_rounds: int = 32
    policy: Policy = Policy.KNOWN_K
    strictness: Strictness = Strictness.GE_AT_MAX
    samples: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("round budget must be >= 1")
        if self.samples < 1:
            raise ValueError("samples per round must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    t: int
    cutoff: int
    k: int
    theta: float
    rounds: int
    outcome_index: int
    outcome_fitness: int
    new_cutoff: int


@dataclass
class CutoffTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    status: Status = Status.BUDGET_EXHAUSTED
    best_index: int | None = None
    best_fitness: int | None = None


def update_cutoff(cutoff: int, f_star: int) -> int:
    """Monotone ratchet: next cutoff is max(current, observed best)."""
    return max(cutoff, f_star)


def _threshold(scape: FitnessLandscape, cutoff: int, strictness: Strictness) -> int:
    """The least marked fitness: the round marks every path with fitness >= this value.

    Fitness values are integers, so f > cutoff is f >= cutoff + 1. GE_AT_MAX
    marks f >= cutoff instead when the strict set is empty, which is exactly
    when cutoff >= f_max. ``run_adaptive`` stops at the first sample that
    reaches f_max, so that happens only when the initial cutoff is f_max or
    above; there STRICT marks nothing.
    """
    if strictness is Strictness.GE_AT_MAX and scape.f_max <= cutoff:
        return cutoff
    return cutoff + 1


def marked_for_cutoff(scape: FitnessLandscape, cutoff: int, strictness: Strictness) -> np.ndarray:
    """Round marked set: fitness > cutoff, or >= under GE_AT_MAX when cutoff >= f_max.

    A rescan of all 4**n values, the explicit set that ``marked_paths``'s
    counts are tested against; the search loop does not call it.
    """
    return np.flatnonzero(scape.values >= _threshold(scape, cutoff, strictness))


def marked_count(scape: FitnessLandscape, cutoff: int, strictness: Strictness) -> int:
    """The size of ``marked_for_cutoff``'s set, summed from the landscape's histogram."""
    return int(scape.counts[scape.levels >= _threshold(scape, cutoff, strictness)].sum())


def marked_paths(scape: FitnessLandscape, cutoff: int, strictness: Strictness) -> PathCounts:
    """``marked_for_cutoff``'s set as per-row suffix counts over the landscape's automaton.

    counts[0] marks the rows whose value clears the threshold, and
    counts[s][row] = sum over moves of counts[s-1][table[row, move]]: one
    numpy pass over the rows per move, so no 4**n array is built. The sum
    over moves is a product with ones, cheaper than ``sum(axis=1)`` on
    arrays this small.
    """
    counts = [(scape.row_values >= _threshold(scape, cutoff, strictness)).astype(np.int64)]
    for _ in range(scape.n):
        counts.append(counts[-1].take(scape.table) @ _EVERY_MOVE)
    return PathCounts(scape.moves, [c.tolist() for c in counts], scape.start)


def run_adaptive(scape: FitnessLandscape, config: SearchConfig) -> CutoffTrace:
    """Run the full adaptive loop against a fitness landscape.

    Halts early once a sampled path attains the landscape maximum
    (verified against the landscape itself); reports Degenerate when a
    round's marked set is empty instead of guessing an oracle for it.
    """
    rng = np.random.default_rng(config.seed)
    trace = CutoffTrace()
    f_max = scape.f_max
    cutoff = config.initial_cutoff
    escalation = 0
    uniform = prepare_uniform(scape.n)
    k_cutoff = marked_cutoff = marked = None

    for t in range(1, config.max_rounds + 1):
        # k, theta and known-k's r change only with the cutoff.
        if cutoff != k_cutoff:
            k_cutoff = cutoff
            k = marked_count(scape, cutoff, config.strictness)
            if k == 0:
                trace.status = Status.DEGENERATE
                break
            geometry = GroverGeometry(num_states=codec.path_count(scape.n), num_marked=k)
            theta = geometry.theta
            if config.policy is Policy.KNOWN_K:
                known_r = optimal_rounds(geometry)
        if config.policy is Policy.KNOWN_K:
            r = known_r
        else:
            # k treated as unknown: draw from [0, ceil(GUESS_GROWTH**escalation)).
            r = int(rng.integers(0, max(1, math.ceil(GUESS_GROWTH**escalation))))
        if r and cutoff != marked_cutoff:
            marked, marked_cutoff = marked_paths(scape, cutoff, config.strictness), cutoff
        shots = measure_shots(grover_iterate(uniform, marked, r) if r else uniform, rng, config.samples)
        shot_fitness = {shot: scape.value(shot) for shot in shots.tolist()}
        f_star = max(shot_fitness.values())
        outcome = min(shot for shot, f in shot_fitness.items() if f == f_star)  # deterministic tie-break: lowest index
        new_cutoff = update_cutoff(cutoff, f_star)
        trace.rounds.append(
            RoundRecord(
                t=t,
                cutoff=cutoff,
                k=k,
                theta=theta,
                rounds=r,
                outcome_index=outcome,
                outcome_fitness=f_star,
                new_cutoff=new_cutoff,
            )
        )
        if trace.best_fitness is None or f_star > trace.best_fitness or (
            f_star == trace.best_fitness and outcome < trace.best_index
        ):
            trace.best_index = outcome
            trace.best_fitness = f_star
        if f_star == f_max:
            trace.status = Status.CONVERGED_OPTIMAL
            break
        escalation = 0 if new_cutoff > cutoff else escalation + 1
        cutoff = new_cutoff
    return trace
