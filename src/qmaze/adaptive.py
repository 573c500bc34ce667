"""Adaptive cutoff search: the classical loop around the Grover engine.

Each round marks paths whose fitness exceeds the current cutoff, runs the
amplitude-amplification iterate, samples, and ratchets the cutoff to the
best fitness seen: C_{t+1} = max(C_t, f*_t). The cutoff sequence is
non-decreasing, bounded by the landscape maximum, and strictly increases
at most f_max - C_1 times, so the loop converges in finite time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    GroverGeometry,
    grover_iterate,
    measure_shots,
    optimal_rounds,
    prepare_uniform,
)
from .fitness import FitnessLandscape

# Escalation base for iteration counts when k is treated as unknown.
GUESS_GROWTH = 6 / 5


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

    def cutoffs(self) -> list[int]:
        return [r.cutoff for r in self.rounds]

    def strict_increases(self) -> int:
        return sum(1 for r in self.rounds if r.new_cutoff > r.cutoff)


def update_cutoff(cutoff: int, f_star: int) -> int:
    """Monotone ratchet: next cutoff is max(current, observed best)."""
    return max(cutoff, f_star)


def marked_for_cutoff(scape: FitnessLandscape, cutoff: int, strictness: Strictness) -> np.ndarray:
    """Round marked set: fitness > cutoff, or >= under GE_AT_MAX when cutoff == f_max.

    ``run_adaptive`` stops at the first sample that reaches f_max, so the cutoff
    is f_max at marking time only when the initial cutoff is; there STRICT marks nothing.
    """
    if strictness is Strictness.GE_AT_MAX and cutoff == scape.f_max:
        return np.flatnonzero(scape.values >= cutoff)
    return np.flatnonzero(scape.values > cutoff)


def run_adaptive(scape: FitnessLandscape, config: SearchConfig) -> CutoffTrace:
    """Run the full adaptive loop against a fitness landscape.

    Halts early once a sampled path attains the landscape maximum
    (verified against the landscape itself); reports Degenerate when a
    round's marked set is empty instead of guessing an oracle for it.
    """
    rng = np.random.default_rng(config.seed)
    trace = CutoffTrace()
    values = scape.values
    f_max = scape.f_max
    cutoff = config.initial_cutoff
    escalation = 0

    for t in range(1, config.max_rounds + 1):
        marked = marked_for_cutoff(scape, cutoff, config.strictness)
        k = int(marked.size)
        if k == 0:
            trace.status = Status.DEGENERATE
            break
        geometry = GroverGeometry(num_states=values.size, num_marked=k)
        if config.policy is Policy.KNOWN_K:
            r = optimal_rounds(geometry)
        else:
            # k treated as unknown: draw from [0, ceil(GUESS_GROWTH**escalation)).
            r = int(rng.integers(0, max(1, math.ceil(GUESS_GROWTH**escalation))))
        state = grover_iterate(prepare_uniform(scape.n), marked, r)
        shots = measure_shots(state, rng, config.samples)
        shot_fitness = values[shots]
        f_star = int(shot_fitness.max())
        candidates = shots[shot_fitness == f_star]
        outcome = int(candidates.min())  # deterministic tie-break: lowest index
        new_cutoff = update_cutoff(cutoff, f_star)
        trace.rounds.append(
            RoundRecord(
                t=t,
                cutoff=cutoff,
                k=k,
                theta=geometry.theta,
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
