"""Exhaustive circuit-vs-reference verification suites.

Each suite sweeps every basis input at small sizes and compares the
gate-level construction against an independent classical reference:
fitness circuit vs the reference evaluator, comparator vs integer
comparison, validity flag vs the bounds-only path automaton, oracle sign
vs the landscape-derived diagonal oracle, plus ancilla cleanup and
involution checks. Every suite compares the whole output batch with an
expected batch: the inputs, with the checked register replaced by its
reference values. A suite stops at the first mismatch and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits, codec, fitness
from .circuits import (
    Batch,
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


def _check(suite: str, cases) -> SuiteResult:
    """Run each case and compare its whole output batch; stop at the first bad case.

    A case is (where, circuit, inputs, reference, want_signs); ``inputs``
    maps register names to arrays of one value per row. Each ``reference``
    register is an output absent from ``inputs``, so the expected batch is
    the input batch ORed with the packed reference registers. The bad
    rows are the OR over wires of output XOR expected, plus the rows whose
    sign differs from ``want_signs`` (None leaves signs unchecked).
    Registers are decoded only to name the first bad row, ``where(row)``.
    """
    checked = 0
    for where, circ, inputs, reference, want_signs in cases:
        size = len(next(iter(inputs.values())))
        batch = pack_rows(circ, inputs, size)
        out, signs = run_batch(circ, batch)
        want = batch
        if reference:
            ref = pack_rows(circ, reference, size).wires
            want = Batch(size, tuple(a | b for a, b in zip(batch.wires, ref)))
        checked += size
        bad = 0
        for a, b in zip(out.wires, want.wires):
            bad |= a ^ b
        if want_signs is not None:
            want_signs = np.broadcast_to(want_signs, signs.shape)
            for i in np.flatnonzero(signs != want_signs):
                bad |= 1 << int(i)
        if not bad:
            continue
        row = (bad & -bad).bit_length() - 1
        for name in circ.registers:
            got, exp = (int(unpack_column(circ, b, name)[row]) for b in (out, want))
            if got != exp:
                found = f"register '{name}' {got}, expected {exp}"
                break
        else:
            found = f"sign {int(signs[row])}, expected {int(want_signs[row])}"
        return SuiteResult(suite, checked, bad.bit_count(), f"{where(row)}: {found}")
    return SuiteResult(suite, checked, 0)


def _path_case(m: int, n: int, label: str = ""):
    """Where a bad path row lies, and the inputs that sweep every path of length n."""

    def where(u: int) -> str:
        return f"m={m} n={n}{label} path={u:0{2*n}b}"

    return where, {"path": np.arange(codec.path_count(n))}


def _blind_values(maze: Maze, n: int) -> np.ndarray:
    """Wall-blind fitness of every length-n path, the reference for fitness circuits."""
    return fitness.landscape(maze, n, make_spec(maze.size, Formula.MAIN, SimMode.WALL_BLIND)).values


def verify_fitness(fitness_circuits: dict, blind: dict) -> SuiteResult:
    """Fitness circuits keyed (maze, n) == ``blind[maze, n]``, the classical
    wall-blind fitness (mod 2**width), all inputs."""

    def cases():
        for (maze, n), circ in fitness_circuits.items():
            wa = circ.registers["fit"].width
            where, paths = _path_case(maze.size, n)
            yield where, circ, paths, {"fit": blind[maze, n] % (1 << wa)}, 1

    return _check("fitness", cases())


def verify_comparator(width_max: int, builder=build_gt_comparator) -> SuiteResult:
    """Every (f, cutoff) pair, widths 1..width_max, vs integer >."""

    def cases():
        for w in range(1, width_max + 1):
            f = np.arange(1 << w)
            for cutoff in range(1 << w):
                yield (
                    lambda i: f"w={w} f={i} c={cutoff}",
                    builder(w, cutoff), {"f": f}, {"flag": f > cutoff}, 1,
                )

    return _check("comparator", cases())


def verify_validity(validity_circuits: dict) -> SuiteResult:
    """Validity circuits keyed (maze, n) == no blocked move in the bounds-only path automaton, all inputs."""

    def cases():
        for (maze, n), circ in validity_circuits.items():
            ref = path_end_values(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)
            where, paths = _path_case(maze.size, n)
            yield where, circ, paths, {"valid": ref}, 1

    return _check("validity", cases())


def _oracle_cutoffs(m: int) -> list[int]:
    c = make_spec(m).offset
    return sorted({0, 1, c // 2, c - 1})


def verify_oracle_sign(oracles: dict, blind: dict) -> SuiteResult:
    """Oracles keyed (maze, n), cutoff: sign == the oracle derived from the
    wall-blind fitness ``blind[maze, n]``, registers restored, all inputs."""

    def cases():
        for (maze, n), by_cutoff in oracles.items():
            values = blind[maze, n]
            for cutoff, circ in by_cutoff.items():
                where, paths = _path_case(maze.size, n, f" cutoff={cutoff}")
                yield where, circ, paths, {}, np.where(values > cutoff, -1, 1)

    return _check("oracle-sign", cases())


def verify_ancilla_cleanup(oracles: dict) -> SuiteResult:
    """After the cutoff C // 2 oracle, every register reads back its input, on every input."""

    def cases():
        for (maze, n), by_cutoff in oracles.items():
            where, paths = _path_case(maze.size, n)
            yield where, by_cutoff[make_spec(maze.size).offset // 2], paths, {}, None

    return _check("ancilla-cleanup", cases())


def verify_involutions(oracles: dict) -> SuiteResult:
    """The cutoff C // 2 oracle applied twice is the identity with net sign +1, all inputs."""

    def cases():
        for (maze, n), by_cutoff in oracles.items():
            circ = by_cutoff[make_spec(maze.size).offset // 2]
            where, paths = _path_case(maze.size, n, " (oracle twice)")
            yield where, circuits.RevCircuit(circ.registers, circ.gates + circ.gates), paths, {}, 1

    return _check("involution", cases())


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
        verify_oracle_sign(oracles, blind),
        verify_ancilla_cleanup(oracles),
        verify_involutions(oracles),
    ]
