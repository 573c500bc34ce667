"""Exhaustive circuit-vs-reference verification suites.

Each suite sweeps every basis input at small sizes and compares the
gate-level construction against an independent classical reference:
fitness circuit vs the reference evaluator, comparator vs integer
comparison, validity flag vs the bounds-only path automaton, oracle sign
vs the landscape-derived diagonal oracle, plus ancilla cleanup and
involution checks. Every suite compares the whole output batch with an
expected batch: the inputs, with the checked register replaced by its
reference values. A suite stops at the first mismatch and reports it.

Shared work runs once per ``run_all`` call, and nothing is kept between
calls. Each exhaustive input is packed once per register layout, and
each comparator width packs its reference once, one ``flag`` row per
cutoff. Of an oracle ``P . C Z C^-1 . P^-1``, with ``P = F W``, only the
middle runs per oracle: the prefix ``P`` that a (maze, n)'s oracles
share runs once, and each mirror is proven, not run. Every gate is its
own inverse on basis states and a phase mark flips no bit, so if the
oracle ends with ``P``'s gate objects reversed and its middle hands back
``P``'s output, the mirror undoes ``P`` gate for gate and the oracle
returns its input; each phase mark in ``P`` meets the same bits in the
mirror and cancels, so the signs are the middle's. Any other oracle runs
whole. The cutoff C // 2 run serves three suites: oracle-sign checks it,
ancilla-cleanup reads its registers, and involution squares its signs
when it restored its input; otherwise involution runs that oracle once
more from its output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import codec, fitness
from .circuits import (
    Batch,
    RevCircuit,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_validity_circuit,
    pack_rows,
    run_batch,
    unpack_column,
)
from .fitness import Formula, make_spec
from .maze import Maze, SimMode, generate_maze, path_end_values


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Suite:
    """One suite's tally: it checks cases until the first bad one."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failed: SuiteResult | None = None

    @property
    def open(self) -> bool:
        return self.failed is None

    def check(self, where, circ: RevCircuit, out: Batch, signs, want: Batch, want_signs=None) -> bool:
        """Compare one case's output batch with ``want``; False on a mismatch.

        The bad rows are the OR over wires of output XOR expected, plus the
        rows whose sign differs from ``want_signs`` (None leaves signs
        unchecked). Registers are decoded only to name the first bad row,
        ``where(row)``.
        """
        self.checked += out.size
        bad = 0
        for a, b in zip(out.wires, want.wires):
            bad |= a ^ b
        if want_signs is not None:
            bad |= int.from_bytes(np.packbits(signs != want_signs, bitorder="little").tobytes(), "little")
        if not bad:
            return True
        row = (bad & -bad).bit_length() - 1
        for name in circ.registers:
            got, exp = (int(unpack_column(circ, b, name)[row]) for b in (out, want))
            if got != exp:
                found = f"register '{name}' {got}, expected {exp}"
                break
        else:
            want_sign = np.broadcast_to(want_signs, signs.shape)[row]
            found = f"sign {int(signs[row])}, expected {int(want_sign)}"
        self.failed = SuiteResult(self.name, self.checked, bad.bit_count(), f"{where(row)}: {found}")
        return False

    def result(self) -> SuiteResult:
        return self.failed or SuiteResult(self.name, self.checked, 0)


def _packed(circ: RevCircuit, name: str, values: np.ndarray, layouts: dict) -> Batch:
    """``values`` in register ``name``, packed once per register layout kept in ``layouts``."""
    layout = tuple(circ.registers.values())
    if layout not in layouts:
        layouts[layout] = pack_rows(circ, {name: values}, len(values))
    return layouts[layout]


def _expected(circ: RevCircuit, batch: Batch, reference: dict) -> Batch:
    """The input batch ORed with the packed ``reference`` registers, outputs absent from the inputs."""
    ref = pack_rows(circ, reference, batch.size).wires
    return Batch(batch.size, tuple(a | b for a, b in zip(batch.wires, ref)))


def _where(m: int, n: int, label: str = ""):
    """Names a path row: the bad row's path, after the case's m, n and label."""
    return lambda u: f"m={m} n={n}{label} path={u:0{2*n}b}"


def _paths(n: int) -> np.ndarray:
    return np.arange(codec.path_count(n))


def _blind_values(maze: Maze, n: int) -> np.ndarray:
    """Wall-blind fitness of every length-n path, the reference for fitness circuits."""
    return fitness.landscape(maze, n, make_spec(maze.size, Formula.MAIN, SimMode.WALL_BLIND)).values


def _path_suite(name: str, circuits: dict, reference) -> SuiteResult:
    """Circuits keyed (maze, n) on every path: the registers ``reference(maze, n, circ)``
    gives hold its values, every other register reads back its input, and every sign is +1."""
    suite = _Suite(name)
    for (maze, n), circ in circuits.items():
        batch = pack_rows(circ, {"path": _paths(n)}, codec.path_count(n))
        out, signs = run_batch(circ, batch)
        want = _expected(circ, batch, reference(maze, n, circ))
        if not suite.check(_where(maze.size, n), circ, out, signs, want, 1):
            break
    return suite.result()


def verify_fitness(fitness_circuits: dict, blind: dict) -> SuiteResult:
    """Fitness circuits keyed (maze, n) == ``blind[maze, n]``, the classical
    wall-blind fitness (mod 2**width), all inputs."""
    return _path_suite(
        "fitness",
        fitness_circuits,
        lambda maze, n, circ: {"fit": blind[maze, n] % (1 << circ.registers["fit"].width)},
    )


def verify_comparator(width_max: int, builder=build_gt_comparator) -> SuiteResult:
    """Every (f, cutoff) pair, widths 1..width_max, vs integer >.

    Each width packs its reference once: row c of ``f > f[:, None]`` is
    cutoff c's ``flag`` column, and a case's expected batch is its input
    batch with that row ORed into the ``flag`` wire.
    """
    suite = _Suite("comparator")
    for w in range(1, width_max + 1):
        f = np.arange(1 << w)
        rows = np.packbits(f > f[:, None], axis=1, bitorder="little")
        flags = [int.from_bytes(row.tobytes(), "little") for row in rows]
        layouts: dict = {}
        for cutoff in range(1 << w):
            circ = builder(w, cutoff)
            batch = _packed(circ, "f", f, layouts)
            out, signs = run_batch(circ, batch)
            wires = list(batch.wires)
            wires[circ.registers["flag"].offset] |= flags[cutoff]
            want = Batch(batch.size, tuple(wires))
            if not suite.check(lambda i: f"w={w} f={i} c={cutoff}", circ, out, signs, want, 1):
                return suite.result()
    return suite.result()


def verify_validity(validity_circuits: dict) -> SuiteResult:
    """Validity circuits keyed (maze, n) == no blocked move in the bounds-only path automaton, all inputs."""
    return _path_suite(
        "validity",
        validity_circuits,
        lambda maze, n, _: {"valid": path_end_values(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)},
    )


def _oracle_cutoffs(m: int) -> list[int]:
    c = make_spec(m).offset
    return sorted({0, 1, c // 2, c - 1})


def _same(gates: list, shared: list) -> bool:
    """True if ``gates`` are the very objects of ``shared``, in order."""
    return len(gates) == len(shared) and all(map(operator.is_, gates, shared))


class _SharedRuns:
    """Runs the oracles of one (maze, n) on one batch, each mirror proven, not run.

    The shared prefix ``P`` is ``first``'s gates up to the end of its
    ``distance_fitness`` span. An oracle with ``first``'s registers that
    begins with ``P``'s gate objects and ends with them reversed runs its
    middle from ``P``'s output; if the middle hands that output back, the
    oracle returns its input with the middle's signs (see the module
    docstring). Any other oracle runs whole.
    """

    def __init__(self, first: RevCircuit):
        hi = first.spans.get("distance_fitness", (0, 0))[1]
        self.registers = first.registers
        self.prefix = first.gates[:hi]
        self.prefix_out = None

    def run(self, circ: RevCircuit, batch: Batch):
        hi, gates = len(self.prefix), circ.gates
        if (
            hi
            and circ.registers == self.registers
            and len(gates) >= 2 * hi
            and _same(gates[:hi], self.prefix)
            and _same(gates[: -hi - 1 : -1], self.prefix)
        ):
            if self.prefix_out is None:
                self.prefix_out = run_batch(RevCircuit(self.registers, self.prefix), batch)[0]
            out, signs = run_batch(RevCircuit(self.registers, gates[hi:-hi]), self.prefix_out)
            if out == self.prefix_out:
                return batch, signs
        return run_batch(circ, batch)


def verify_oracles(oracles: dict, blind: dict) -> tuple[SuiteResult, SuiteResult, SuiteResult]:
    """The oracle-sign, ancilla-cleanup and involution suites over oracles keyed (maze, n), cutoff.

    oracle-sign: each oracle's sign == the oracle derived from the wall-blind
    fitness ``blind[maze, n]``, registers restored. ancilla-cleanup: after the
    cutoff C // 2 oracle, every register reads back its input. involution:
    that oracle applied twice is the identity with net sign +1. All inputs;
    one (maze, n) at a time, and each suite stops at its own first failure.
    """
    sign, cleanup, twice = _Suite("oracle-sign"), _Suite("ancilla-cleanup"), _Suite("involution")
    for (maze, n), by_cutoff in oracles.items():
        if not (sign.open or cleanup.open or twice.open):
            break
        m, half = maze.size, make_spec(maze.size).offset // 2
        if half not in by_cutoff:
            raise ValueError(f"m={m} n={n}: ancilla-cleanup and involution need the cutoff {half} oracle")
        paths, layouts = _paths(n), {}
        runs = _SharedRuns(next(iter(by_cutoff.values())))
        for cutoff, circ in by_cutoff.items():
            reused = cutoff == half and (cleanup.open or twice.open)
            if not (sign.open or reused):
                continue
            batch = _packed(circ, "path", paths, layouts)
            out, signs = runs.run(circ, batch)
            if sign.open:
                want_signs = np.where(blind[maze, n] > cutoff, -1, 1)
                sign.check(_where(m, n, f" cutoff={cutoff}"), circ, out, signs, batch, want_signs)
            if reused and cleanup.open:
                cleanup.check(_where(m, n), circ, out, signs, batch)
            if reused and twice.open:
                # On a restored input, the second pass would repeat the first run.
                out, again = (out, signs) if out == batch else run_batch(circ, out)
                twice.check(_where(m, n, " (oracle twice)"), circ, out, signs * again, batch, 1)
    return sign.result(), cleanup.result(), twice.result()


def run_all(n_max: int, m_max: int, comparator_width_max: int) -> list[SuiteResult]:
    """Every suite; each maze, wall-blind landscape, fitness circuit,
    validity circuit and oracle is built once and shared."""
    mazes = [generate_maze(m, seed=0) for m in range(2, m_max + 1)]
    keys = [(maze, n) for maze in mazes for n in range(1, n_max + 1)]
    blind = {key: _blind_values(*key) for key in keys}
    fitness_circuits = {key: build_fitness_circuit(*key) for key in keys}
    validity_circuits = {key: build_validity_circuit(*key) for key in keys}
    oracles = {
        (maze, n): {c: build_oracle_circuit(circ, c) for c in _oracle_cutoffs(maze.size)}
        for (maze, n), circ in fitness_circuits.items()
    }
    return [
        verify_fitness(fitness_circuits, blind),
        verify_comparator(comparator_width_max),
        verify_validity(validity_circuits),
        *verify_oracles(oracles, blind),
    ]
