"""The benchmark's workloads and the checks on their outputs.

Each workload is one closed-loop client in one process: it sends its
next operation only after the previous one returned. Inputs are derived
from the workload seed and the operation number alone, so a seed always
gives the same inputs, however many operations a run completes.

Why these four: each makes a different layer dominate the operation.
  sweep           the user-facing `solve` command; the classical landscape
                  dominates, the amplitude layer is a small share.
  search-known    the known-k loop on a landscape built in set-up; a few
                  rounds with long Grover iterates, so `grover_iterate`
                  dominates and the landscape is bypassed.
  search-guessed  the same engine used differently: many short rounds, so
                  per-round sampling, preparation and marking matter.
  verify          the gate layer alone; bypasses the amplitude layer and
                  nearly all of the classical one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from qmaze import adaptive, cli, fitness
from qmaze.adaptive import Policy, SearchConfig
from qmaze.maze import Direction, generate_maze

# The search workloads use one fixed maze, not one drawn from the seed:
# its known-k search cost depends on the maze by up to 14x (seeds 0..11
# ranged 0.06-0.88 s per search), and only about three n = 9 landscapes
# fit in a run's set-up. Maze seed 6 has a unique optimum, so its last
# round runs the full floor(pi/4 * sqrt(N)) = 402 iterates, and its
# per-search iterate total stays within 403..423 across search seeds.
SEARCH_MAZE_SEED = 6

VERIFY_SUITES = ("fitness", "comparator", "validity", "oracle-sign", "ancilla-cleanup", "involution")


def draw(seed: int, i: int) -> int:
    """Input seed of operation ``i`` under workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def maze_seed_for_solve(seed: int) -> int:
    """The maze stream `qmaze solve --seed` documents: child stream (seed, 0)."""
    return int(np.random.SeedSequence((seed, 0)).generate_state(1)[0])


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliResult:
    """Run `qmaze <argv>` in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


@dataclass(frozen=True)
class SearchSummary:
    """What one adaptive search returned, for the theory-vs-simulation figures."""

    rounds: tuple[tuple[int, int, float, int, int], ...]  # cutoff, k, theta, r, outcome fitness
    f_max: int
    num_states: int
    best_fitness: int | None
    samples: int


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is correct.


def _cutoff_problems(pairs) -> list[str]:
    """``pairs`` is (cutoff, new_cutoff) per round; the ratchet never goes down."""
    problems = []
    previous = None
    for t, (cutoff, new_cutoff) in enumerate(pairs, start=1):
        if previous is not None and cutoff < previous:
            problems.append(f"round {t}: cutoff {cutoff} below previous {previous}")
        if new_cutoff < cutoff:
            problems.append(f"round {t}: new cutoff {new_cutoff} below cutoff {cutoff}")
        previous = new_cutoff
    return problems


def expected_rounds(num_states: int, k: int) -> int:
    """Known-k iteration count, floor(pi / (4 theta) - 1/2), theta = asin(sqrt(k/N))."""
    theta = math.asin(math.sqrt(k / num_states))
    return max(0, math.floor(math.pi / (4 * theta) - 0.5 + 1e-9))


def check_search(scape, trace, known_k: bool) -> list[str]:
    """Recompute every round of a ge-at-max search against the landscape."""
    values = scape.values
    f_max = int(values.max())
    problems = _cutoff_problems((r.cutoff, r.new_cutoff) for r in trace.rounds)
    for rec in trace.rounds:
        marked = values >= rec.cutoff if rec.cutoff == f_max else values > rec.cutoff
        k = int(np.count_nonzero(marked))
        if rec.k != k:
            problems.append(f"round {rec.t}: k {rec.k}, landscape gives {k}")
        if known_k and k and rec.rounds != expected_rounds(values.size, k):
            problems.append(f"round {rec.t}: r {rec.rounds}, optimal is {expected_rounds(values.size, k)}")
        if int(values[rec.outcome_index]) != rec.outcome_fitness:
            problems.append(f"round {rec.t}: outcome fitness {rec.outcome_fitness} is not its landscape value")
    if trace.best_index is None:
        problems.append("no best path")
    elif int(values[trace.best_index]) != trace.best_fitness:
        problems.append(
            f"best fitness {trace.best_fitness}, landscape value {int(values[trace.best_index])}"
        )
    return problems


def parse_solve(text: str) -> dict:
    """The JSON trace `solve --format json` prints after its summary lines."""
    return json.loads(text[text.index("\n{") + 1:])


def check_solve(result: CliResult, seed: int, m: int, n: int) -> list[str]:
    """Re-score the reported best path on the maze `solve --seed` generated."""
    if result.code != 0:
        return [f"exit code {result.code}"]
    try:
        doc = parse_solve(result.text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    best = doc["best"]
    if best is None:
        return ["no best path"]
    problems = _cutoff_problems((r["cutoff"], r["new_cutoff"]) for r in doc["rounds"])
    try:
        path = tuple(Direction[c] for c in best["letters"])
    except KeyError:
        return problems + [f"best path {best['letters']!r} is not a direction sequence"]
    if len(path) != n:
        problems.append(f"best path has {len(path)} moves, expected {n}")
    maze = generate_maze(m, maze_seed_for_solve(seed))
    score = fitness.fitness(maze, path, fitness.make_spec(m))
    if score != best["fitness"]:
        problems.append(f"best path {best['letters']} scores {score}, reported {best['fitness']}")
    if best["fitness"] > doc["f_max"]:
        problems.append(f"best fitness {best['fitness']} above f_max {doc['f_max']}")
    return problems


_SUITE_LINE = re.compile(r"(PASS|FAIL) (\S+?):? (?:\((\d+) cases\))?")


def check_verify(result: CliResult) -> list[str]:
    """Exit code 0, and every suite passes with a nonzero case count."""
    problems = [] if result.code == 0 else [f"exit code {result.code}"]
    seen = set()
    for line in result.text.splitlines():
        match = _SUITE_LINE.match(line)
        if not match:
            continue
        verdict, name, cases = match.groups()
        seen.add(name)
        if verdict != "PASS":
            problems.append(f"suite {name} failed: {line}")
        elif not int(cases or 0):
            problems.append(f"suite {name} checked no cases")
    problems.extend(f"suite {name} did not run" for name in VERIFY_SUITES if name not in seen)
    return problems


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name: str
    cycle: int  # inputs in one traced cycle; counters repeat exactly per cycle
    # The host-speed probe in run.py that tracked this workload's operations
    # best: "python" (interpreter-bound) or "numpy" (passes over amplitudes).
    host_probe = "python"

    def setup(self):
        """One set-up; the benchmark repeats it and reports the median."""

    def input(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation."""
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def canonical(self, inp, out) -> str:
        """Text of one seeded output, for the determinism digest."""
        raise NotImplementedError

    def summary(self, inp, out) -> SearchSummary | None:
        return None


class Sweep(Workload):
    """`qmaze solve --m 8 --n 8 --seed s --format json`: a fresh maze per operation."""

    name = "sweep"
    cycle = 4

    def __init__(self, m: int = 8, n: int = 8):
        self.m, self.n = m, n

    def setup(self):
        run_cli(["solve", "--m", "3", "--n", "3", "--seed", "0", "--format", "json"])

    def input(self, seed, i):
        return draw(seed, i)

    def run(self, s):
        return run_cli(["solve", "--m", str(self.m), "--n", str(self.n), "--seed", str(s), "--format", "json"])

    def check(self, s, out):
        return check_solve(out, s, self.m, self.n)

    def canonical(self, s, out):
        return f"{s}\n{out.code}\n{out.text}"

    def summary(self, s, out):
        doc = parse_solve(out.text)
        rounds = tuple(
            (r["cutoff"], r["k"], r["theta"], r["r"], r["outcome_fitness"]) for r in doc["rounds"]
        )
        best = doc["best"]["fitness"] if doc["best"] else None
        return SearchSummary(rounds, doc["f_max"], 4**self.n, best, SearchConfig().samples)


class Search(Workload):
    """`run_adaptive` on one landscape built in set-up; one search per operation."""

    cycle = 4
    host_probe = "numpy"

    def __init__(self, name: str, policy: Policy, m: int = 8, n: int = 9, maze_seed: int = SEARCH_MAZE_SEED):
        self.name, self.policy = name, policy
        self.m, self.n, self.maze_seed = m, n, maze_seed
        self.scape = None

    def setup(self):
        maze = generate_maze(self.m, self.maze_seed)
        self.scape = fitness.landscape(maze, self.n, fitness.make_spec(self.m))

    def input(self, seed, i):
        return SearchConfig(seed=draw(seed, i), policy=self.policy)

    def run(self, config):
        return adaptive.run_adaptive(self.scape, config)

    def check(self, config, trace):
        return check_search(self.scape, trace, known_k=config.policy is Policy.KNOWN_K)

    def canonical(self, config, trace):
        return json.dumps(
            {
                "seed": config.seed,
                "status": trace.status.value,
                "best": [trace.best_index, trace.best_fitness],
                "rounds": [list(vars(r).values()) for r in trace.rounds],
            }
        )

    def summary(self, config, trace):
        rounds = tuple((r.cutoff, r.k, r.theta, r.rounds, r.outcome_fitness) for r in trace.rounds)
        return SearchSummary(rounds, self.scape.f_max, self.scape.values.size, trace.best_fitness, config.samples)


class Verify(Workload):
    """`qmaze verify` at its default limits; its suites take no seed."""

    name = "verify"
    cycle = 1

    def setup(self):
        run_cli(["verify", "--nmax", "1", "--mmax", "2", "--widthmax", "1"])

    def input(self, seed, i):
        return ["verify"]

    def run(self, argv):
        return run_cli(argv)

    def check(self, argv, out):
        return check_verify(out)

    def canonical(self, argv, out):
        return f"{out.code}\n{out.text}"


def make(name: str) -> Workload:
    factories = {
        "sweep": Sweep,
        "search-known": lambda: Search("search-known", Policy.KNOWN_K),
        "search-guessed": lambda: Search("search-guessed", Policy.GUESSED_K),
        "verify": Verify,
    }
    return factories[name]()



# ---------------------------------------------------------------------------
# Theory next to simulation, from the searches' returned traces


def adaptive_metrics(summaries: list[SearchSummary]) -> dict[str, float]:
    """Per-search counts and per-round ratios; all zero when nothing searched.

    A round hits when its outcome lies in its own marked set (above the
    cutoff, or at it once the cutoff is the maximum). `p_predicted` is the
    one-shot success probability sin^2((2r+1) theta); `p_hit_predicted`
    is the chance that at least one of the round's shots is marked.
    """
    ops = len(summaries)
    rounds = hits = iterations = 0
    scale = p_sum = p_hit_sum = 0.0
    successes = 0
    for s in summaries:
        for cutoff, k, theta, r, outcome in s.rounds:
            rounds += 1
            iterations += r
            scale += math.pi / 4 * math.sqrt(s.num_states / k)
            hits += outcome > cutoff or (cutoff == s.f_max and outcome >= cutoff)
            p = math.sin((2 * r + 1) * theta) ** 2
            p_sum += p
            p_hit_sum += 1 - (1 - p) ** s.samples
        successes += s.best_fitness == s.f_max
    return {
        "adaptive.rounds": rounds / ops if ops else 0.0,
        "adaptive.grover_iterations": iterations / ops if ops else 0.0,
        "adaptive.grover_iterations_scale": scale / ops if ops else 0.0,
        "adaptive.hit_rate": hits / rounds if rounds else 0.0,
        "adaptive.p_predicted_mean": p_sum / rounds if rounds else 0.0,
        "adaptive.p_hit_predicted_mean": p_hit_sum / rounds if rounds else 0.0,
        "adaptive.success_fraction": successes / ops if ops else 0.0,
    }
