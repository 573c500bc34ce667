"""Qubit and gate-cost model for the reversible circuits, checked against
actual constructions.

Every cost is that of one maze's oracle: ``predict`` computes register
widths and per-stage gate counts from closed formulas that mirror the
builders in :mod:`qmaze.circuits` and read the maze's size, start and
goal; ``measured`` builds the same maze's circuits and tallies them. The
oracle runs the forward part of the fitness circuit (the load of the
start's displacement from the goal, the walk, both squares through the
fitness write), the guarded comparator, then both mirrored, so its total
is twice their sum. Its ancillas are one pool of ``arith_width + 1`` bits
that every stage borrows in turn and returns to zero, so the count is
that of the widest loan, a squaring row's mask and the adder carry.
Tests pin the two reports against each other, ``mismatches`` names where
they differ, and ``check_asymptotics`` turns the scaling claims
(comparator linear in width, path simulation linear in length times the
walk's increment chain, one bit shorter than the position width) into
least-squares fits with explicit residual thresholds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .circuits import arith_width, build_fitness_circuit, build_gt_comparator, build_oracle_circuit
from .circuits import GateCounts, circuit_depth, count_gates, position_width
from .fitness import make_spec
from .maze import Maze

RESIDUAL_THRESHOLD = 0.05


@dataclass(frozen=True)
class ResourceReport:
    n: int
    m: int
    cutoff: int
    register_widths: dict[str, int]
    ancilla: int
    stages: dict[str, GateCounts]
    depth: int  # measured dependency-chain depth, or a gate-count upper bound

    @property
    def total_qubits(self) -> int:
        return sum(self.register_widths.values()) + self.ancilla

    def as_dict(self) -> dict:
        return {**asdict(self), "total_qubits": self.total_qubits}


# ---------------------------------------------------------------------------
# Closed-form per-stage counts (mirror the gate emitters exactly)


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _add_counts(w: int) -> GateCounts:
    if w == 1:
        return GateCounts(0, 2, 0)
    return GateCounts(2 * (w - 1), 4 * (w - 1) + 2, 0)


def walk_stage_counts(maze: Maze, n: int) -> GateCounts:
    """Path-simulation stage: per step, one controlled increment of each w-bit
    coordinate (2(w - 1) Toffolis and w CNOTs) inside a 2w-CNOT sign
    complement, and 4 NOTs that invert the code bits around ``pos_i``'s."""
    w = position_width(maze.size, n)
    return GateCounts(4 * n * (w - 1), 6 * n * w, 4 * n)


def _square_counts(w: int, sign: int) -> GateCounts:
    """``out += src**2`` at src and out width w, where src[sign:] repeat one
    sign wire: rows i over windows w, w - 2, ..., each masked (one CNOT and
    window - 2 products), added and unmasked. A product is a Toffoli, or a
    CNOT in a row i >= sign, which pairs the sign wire with itself."""
    tof = cnot = 0
    for i, window in enumerate(range(w, 0, -2)):
        add = _add_counts(window)
        products = 2 * max(window - 2, 0)
        tof += (products if i < sign else 0) + add.toffoli
        cnot += 2 + (0 if i < sign else products) + add.cnot
    return GateCounts(tof, cnot, 0)


def distance_fitness_stage_counts(maze: Maze, n: int) -> GateCounts:
    """Both squares (sign wire repeated) added into ``fit`` loaded with ~C, then its complement: C - d."""
    m = maze.size
    wa = arith_width(m, n)
    sq = _square_counts(wa, position_width(m, n) - 1)
    return GateCounts(2 * sq.toffoli, 2 * sq.cnot, _popcount(~make_spec(m).offset % 2**wa) + wa)


def init_stage_counts(maze: Maze, n: int) -> GateCounts:
    """Loading the start's displacement from the goal, mod 2**w, into the position registers."""
    w = position_width(maze.size, n)
    return GateCounts(0, 0, sum(_popcount((s - g) % 2**w) for s, g in zip(maze.start, maze.goal)))


def comparator_counts(width: int, cutoff: int) -> GateCounts:
    """Prefix-equality comparator cost for one classical cutoff >= 0."""
    if cutoff >= 2**width - 1:
        return GateCounts(0, 0, 0)
    tof = cnot = nots = 0
    have_chain = False
    for i in range(width - 1, -1, -1):
        c_i = (cutoff >> i) & 1
        if c_i == 0:
            if have_chain:
                tof += 1
            else:
                cnot += 1
        if i > 0:
            if c_i == 0:
                nots += 4
            if have_chain:
                tof += 2
            else:
                cnot += 2
            have_chain = True
    return GateCounts(tof, cnot, nots)


def _combine(*parts: GateCounts) -> GateCounts:
    return GateCounts(
        sum(p.toffoli for p in parts), sum(p.cnot for p in parts), sum(p.nots for p in parts)
    )


def predict(maze: Maze, n: int) -> ResourceReport:
    """Predicted resources of the maze's cutoff C // 2 oracle."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = maze.size
    cutoff = make_spec(m).offset // 2
    w = position_width(m, n)
    wa = arith_width(m, n)
    widths = {
        "path": 2 * n,
        "pos_i": w,
        "pos_j": w,
        "fit": wa,
        "flag": 1,
    }
    ancilla = wa + 1  # one pool: the widest loan is a squaring row mask and the adder carry
    path_sim = walk_stage_counts(maze, n)
    dist_fit = distance_fitness_stage_counts(maze, n)
    init = init_stage_counts(maze, n)
    cmp_counts = comparator_counts(wa, cutoff)
    guard = GateCounts(1, 0, 2)  # sign-bit AND around the flag write
    # Oracle = forward part (init, walk, the squares through the fitness write),
    # guarded comparator, then both mirrored; the phase mark is not counted.
    half = _combine(init, path_sim, dist_fit, cmp_counts, guard)
    oracle_total = _combine(half, half)
    stages = {
        "path_sim": path_sim,
        "distance_fitness": dist_fit,
        "comparator": cmp_counts,
        "oracle_total": oracle_total,
    }
    depth_bound = oracle_total.toffoli + oracle_total.cnot + oracle_total.nots + 1
    return ResourceReport(
        n=n, m=m, cutoff=cutoff, register_widths=widths, ancilla=ancilla,
        stages=stages, depth=depth_bound,
    )


def measured(maze: Maze, n: int) -> ResourceReport:
    """Resources of the maze's cutoff C // 2 oracle, tallied from its built circuits."""
    m = maze.size
    cutoff = make_spec(m).offset // 2
    oracle = build_oracle_circuit(build_fitness_circuit(maze, n), cutoff)
    scratch = oracle.scratch_registers()
    widths = {name: reg.width for name, reg in oracle.registers.items() if reg not in scratch}
    ancilla = sum(r.width for r in scratch)
    stages = {
        "path_sim": count_gates(oracle, stage="walk"),
        "distance_fitness": count_gates(oracle, stage="distance_fitness"),
        "comparator": count_gates(build_gt_comparator(arith_width(m, n), cutoff)),
        "oracle_total": count_gates(oracle),
    }
    return ResourceReport(
        n=n, m=m, cutoff=cutoff, register_widths=widths, ancilla=ancilla,
        stages=stages, depth=circuit_depth(oracle),
    )


def mismatches(pred: ResourceReport, act: ResourceReport) -> list[str]:
    """Each register width, the ancilla count and each stage count on which two reports differ."""
    regs = dict.fromkeys([*pred.register_widths, *act.register_widths])
    stages = dict.fromkeys([*pred.stages, *act.stages])
    pairs = [(f"register {k}", pred.register_widths.get(k), act.register_widths.get(k)) for k in regs]
    pairs.append(("ancilla", pred.ancilla, act.ancilla))
    pairs += [(f"stage {k}", pred.stages.get(k), act.stages.get(k)) for k in stages]
    return [f"{what}: predicted {p}, measured {a}" for what, p, a in pairs if p != a]


# ---------------------------------------------------------------------------
# Scaling-claim fits


@dataclass(frozen=True)
class FitClaim:
    slope: float
    intercept: float
    residual_ratio: float

    @property
    def passed(self) -> bool:
        return self.residual_ratio < RESIDUAL_THRESHOLD


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> FitClaim:
    """Least-squares a*x + b with residual ratio ||y - yhat|| / ||y||.

    The sums are exact fractions, so points on a line give that line's
    slope and intercept exactly, with no rounding noise.
    """
    if len(xs) < 3:
        raise ValueError("need at least 3 points for a fit")
    x = [Fraction(v) for v in xs]
    y = [Fraction(v) for v in ys]
    k, sx, sy = len(x), sum(x), sum(y)
    det = k * sum(u * u for u in x) - sx * sx
    if det == 0:
        raise ValueError("need at least two distinct x values for a fit")
    a = (k * sum(u * v for u, v in zip(x, y)) - sx * sy) / det
    b = (sy - a * sx) / k
    resid = sum((v - a * u - b) ** 2 for u, v in zip(x, y))
    ratio = math.sqrt(resid / sum(v * v for v in y))
    return FitClaim(slope=float(a), intercept=float(b), residual_ratio=ratio)


def check_asymptotics(maze: Maze, ns: Iterable[int]) -> dict[str, FitClaim]:
    """Fit measured Toffoli counts against the linear scaling claims.

    The maze's walk cost, read from each fitness circuit's ``walk`` span
    (which the oracle shares gate for gate), is fit against
    ``n * (position_width(m, n) - 1)``, the length of the walk's increment
    chains, over the path lengths ``ns``: each step runs two increments of
    the position registers, whose width grows in steps with ``n``.
    Comparator cost is fit against register widths 2..8, each at the
    fixed-shape cutoff 100...01. Raises on fewer than three distinct path
    lengths.
    """
    ns = sorted(set(ns))
    walk_tof = [count_gates(build_fitness_circuit(maze, n), "walk").toffoli for n in ns]
    chain_lengths = [n * (position_width(maze.size, n) - 1) for n in ns]
    widths = range(2, 9)
    cmp_tof = [count_gates(build_gt_comparator(w, 2 ** (w - 1) + 1)).toffoli for w in widths]
    return {
        "path_sim_linear_in_n_times_width": linear_fit(chain_lengths, walk_tof),
        "comparator_linear_in_width": linear_fit(widths, cmp_tof),
    }
