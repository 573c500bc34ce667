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
cutoff. The fitness, validity and oracle suites run one (maze, n) at a
time and hold only its batches.

Every mirror is proven, not run. A circuit ``A M A^-1`` ends with its
first gates A as the same objects in reverse order; A runs once, then
its middle M from A's output. Every gate is its own inverse on basis
states and a phase mark flips no bit, so if no wire that M changed is a
target or control of a gate in A, the mirror undoes A gate for gate on
the wires A touches, and each phase mark in A meets the same bits in the
mirror and cancels: the circuit returns its input with M's changed wires,
and M's signs. Otherwise it runs whole. The fitness circuit is
``F W F^-1`` and the validity circuit ``A CNOT A^-1``. Each oracle is
``P . C Z C^-1 . P^-1``, and its prefix ``P = F W`` is the fitness
circuit's forward run: per (maze, n), F runs once and W once from its
output, the fitness suite reads both, and each oracle runs only its
middle from W's output, zero-extended over ``flag``, ``gsc`` and ``eq``.
The cutoff C // 2 run serves three suites: oracle-sign checks it,
ancilla-cleanup reads its registers, and involution squares its signs
when it restored its input; otherwise involution runs that oracle once
more from its output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

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
    """``values`` in register ``name``, packed once per wire count and register place kept in ``layouts``."""
    reg = circ.registers[name]
    layout = (circ.num_bits, reg.offset, reg.width)
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


def _path_batch(circ: RevCircuit, n: int) -> Batch:
    return pack_rows(circ, {"path": _paths(n)}, codec.path_count(n))


def _check_fitness(suite: _Suite, maze: Maze, n: int, circ: RevCircuit, batch: Batch, run, blind: dict) -> bool:
    """One fitness circuit's ``run`` on every path: ``fit`` holds the wall-blind fitness (mod 2**width),
    every other register reads back its input, and every sign is +1."""
    fit = blind[maze, n] % (1 << circ.registers["fit"].width)
    return suite.check(_where(maze.size, n), circ, *run, _expected(circ, batch, {"fit": fit}), 1)


def _check_validity(suite: _Suite, maze: Maze, n: int, circ: RevCircuit) -> bool:
    """One validity circuit on every path: ``valid`` holds the bounds-only validity,
    every other register reads back its input, and every sign is +1."""
    batch = _path_batch(circ, n)
    valid = path_end_values(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)
    # A validity circuit is A CNOT A^-1: A is half of its gates besides the odd CNOT.
    run = _mirrored(circ, (len(circ.gates) - 1) // 2, batch)
    return suite.check(_where(maze.size, n), circ, *run, _expected(circ, batch, {"valid": valid}), 1)


def verify_fitness(fitness_circuits: dict, blind: dict) -> SuiteResult:
    """Fitness circuits keyed (maze, n) == ``blind[maze, n]``, the classical
    wall-blind fitness (mod 2**width), all inputs."""
    suite = _Suite("fitness")
    for (maze, n), circ in fitness_circuits.items():
        batch = _path_batch(circ, n)
        if not _check_fitness(suite, maze, n, circ, batch, _forward(circ, batch)[0], blind):
            break
    return suite.result()


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
    suite = _Suite("validity")
    for (maze, n), circ in validity_circuits.items():
        if not _check_validity(suite, maze, n, circ):
            break
    return suite.result()


def _oracle_cutoffs(m: int) -> list[int]:
    c = make_spec(m).offset
    return sorted({0, 1, c // 2, c - 1})


def _same(gates: list, shared: list) -> bool:
    """True if ``gates`` are the very objects of ``shared``, in order."""
    return len(gates) == len(shared) and all(map(operator.is_, gates, shared))


def _mirrors(gates: list, k: int) -> bool:
    """True if k >= 1 and the last ``k`` gates are the first ``k`` gate objects in reverse order."""
    return 0 < k <= len(gates) // 2 and _same(gates[: -k - 1 : -1], gates[:k])


def _segment(circ: RevCircuit, lo: int, hi: int, batch: Batch):
    """Gates ``lo:hi`` of ``circ`` run on ``batch``."""
    return run_batch(RevCircuit(circ.registers, circ.gates[lo:hi]), batch)


def _touches(gates: list, wires: list[int]) -> bool:
    """True if one of ``wires`` is a target or a control of a gate in ``gates``."""
    touched = set(map(operator.itemgetter(0), gates))
    touched.update(chain.from_iterable(map(operator.itemgetter(1), gates)))
    return not touched.isdisjoint(wires)


def _conjugate(circ: RevCircuit, k: int, batch: Batch, a_out: Batch, middle):
    """``circ = A M A^-1`` on ``batch``, A its first ``k`` gates, from A's output and M's run on it.

    If no wire that M changed is a target or control of a gate in A, the
    mirror is proven (see the module docstring): the output is the input
    with M's changed wires, and the signs are M's. Otherwise ``circ`` runs whole.
    """
    out, signs = middle
    changed = [b for b, (x, y) in enumerate(zip(a_out.wires, out.wires)) if x != y]
    if changed and _touches(circ.gates[:k], changed):
        return run_batch(circ, batch)
    wires = list(batch.wires)
    for b in changed:
        wires[b] = out.wires[b]
    return Batch(batch.size, tuple(wires)), signs


def _mirrored(circ: RevCircuit, k: int, batch: Batch):
    """``circ`` on ``batch``; if it ends with its first ``k`` gates A reversed, only A and the middle run."""
    if not _mirrors(circ.gates, k):
        return run_batch(circ, batch)
    a_out = _segment(circ, 0, k, batch)[0]
    return _conjugate(circ, k, batch, a_out, _segment(circ, k, len(circ.gates) - k, a_out))


class _SharedRuns:
    """Runs the oracles of one (maze, n), each from the output of their shared prefix ``P``.

    ``prefix`` is P's gate objects, ``source`` a batch and ``out`` P's
    output on it. In ``run_all``, P is the fitness circuit's forward run
    ``F W`` and ``source`` its input; without them, the first oracle that
    begins with P runs P on its own input. P touches only the wires of
    ``source``, so on any batch that begins with those wires its output is
    ``out`` followed by the batch's other wires: an oracle's input is its
    fitness circuit's, zero-extended over ``flag``, ``gsc`` and ``eq``. An
    oracle that begins with P's gate objects and ends with them reversed
    runs only its middle ``C Z C^-1``, and its mirror is proven; any other
    oracle runs whole.
    """

    def __init__(self, prefix: list, source: Batch | None = None, out: Batch | None = None):
        self.prefix, self.source, self.out = prefix, source, out

    def run(self, circ: RevCircuit, batch: Batch):
        hi, gates = len(self.prefix), circ.gates
        if _mirrors(gates, hi) and _same(gates[:hi], self.prefix):
            if self.source is None:
                self.source, self.out = batch, _segment(circ, 0, hi, batch)[0]
            known = len(self.source.wires)
            if batch.size == self.source.size and batch.wires[:known] == self.source.wires:
                a_out = Batch(batch.size, self.out.wires + batch.wires[known:])
                return _conjugate(circ, hi, batch, a_out, _segment(circ, hi, len(gates) - hi, a_out))
        return run_batch(circ, batch)


def _forward(circ: RevCircuit, batch: Batch):
    """A fitness circuit ``F W F^-1`` run on ``batch``, and the ``_SharedRuns`` of its oracles.

    W is the fitness write, which ends the ``distance_fitness`` span, and F
    the gates before it, as many as follow that span. F runs, then W from
    F's output: W's output is that of the oracles' prefix ``P = F W``, and
    the fitness run proves its mirror ``F^-1``. A circuit that does not end
    with F's gates reversed runs whole, and leaves P to its first oracle.
    """
    hi = circ.spans.get("distance_fitness", (0, 0))[1]
    k, prefix = len(circ.gates) - hi, circ.gates[:hi]
    if not _mirrors(circ.gates, k):
        return run_batch(circ, batch), _SharedRuns(prefix)
    f_out = _segment(circ, 0, k, batch)[0]
    write = _segment(circ, k, hi, f_out)
    return _conjugate(circ, k, batch, f_out, write), _SharedRuns(prefix, batch, write[0])


def _oracle_suites() -> tuple[_Suite, _Suite, _Suite]:
    return _Suite("oracle-sign"), _Suite("ancilla-cleanup"), _Suite("involution")


def _check_oracles(suites: tuple, maze: Maze, n: int, by_cutoff: dict, blind: dict, runs: _SharedRuns):
    """One (maze, n)'s oracles, keyed by cutoff, through ``runs``; see ``verify_oracles``."""
    sign, cleanup, twice = suites
    m, half = maze.size, make_spec(maze.size).offset // 2
    if half not in by_cutoff:
        raise ValueError(f"m={m} n={n}: ancilla-cleanup and involution need the cutoff {half} oracle")
    paths, layouts = _paths(n), {}
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


def verify_oracles(oracles: dict, blind: dict) -> tuple[SuiteResult, SuiteResult, SuiteResult]:
    """The oracle-sign, ancilla-cleanup and involution suites over oracles keyed (maze, n), cutoff.

    oracle-sign: each oracle's sign == the oracle derived from the wall-blind
    fitness ``blind[maze, n]``, registers restored. ancilla-cleanup: after the
    cutoff C // 2 oracle, every register reads back its input. involution:
    that oracle applied twice is the identity with net sign +1. All inputs;
    one (maze, n) at a time, and each suite stops at its own first failure.
    A (maze, n)'s shared prefix is its first oracle's gates up to the end
    of its ``distance_fitness`` span.
    """
    suites = _oracle_suites()
    for (maze, n), by_cutoff in oracles.items():
        if not any(s.open for s in suites):
            break
        first = next(iter(by_cutoff.values()))
        prefix = first.gates[: first.spans.get("distance_fitness", (0, 0))[1]]
        _check_oracles(suites, maze, n, by_cutoff, blind, _SharedRuns(prefix))
    return tuple(s.result() for s in suites)


def run_all(n_max: int, m_max: int, comparator_width_max: int) -> list[SuiteResult]:
    """Every suite; each maze, wall-blind landscape, fitness circuit,
    validity circuit and oracle is built once and shared.

    The fitness, validity and oracle suites run one (maze, n) at a time,
    each until its own first failure, and hold only that (maze, n)'s
    batches: its fitness circuit's forward ``P`` runs once, for the
    fitness suite and for its oracles.
    """
    mazes = [generate_maze(m, seed=0) for m in range(2, m_max + 1)]
    keys = [(maze, n) for maze in mazes for n in range(1, n_max + 1)]
    blind = {key: _blind_values(*key) for key in keys}
    fitness_circuits = {key: build_fitness_circuit(*key) for key in keys}
    validity_circuits = {key: build_validity_circuit(*key) for key in keys}
    oracles = {
        (maze, n): {c: build_oracle_circuit(circ, c) for c in _oracle_cutoffs(maze.size)}
        for (maze, n), circ in fitness_circuits.items()
    }
    fit, valid, oracle_suites = _Suite("fitness"), _Suite("validity"), _oracle_suites()
    for maze, n in keys:
        circ = fitness_circuits[maze, n]
        batch = _path_batch(circ, n)
        run, runs = _forward(circ, batch)
        if fit.open:
            _check_fitness(fit, maze, n, circ, batch, run, blind)
        if valid.open:
            _check_validity(valid, maze, n, validity_circuits[maze, n])
        if any(s.open for s in oracle_suites):
            _check_oracles(oracle_suites, maze, n, oracles[maze, n], blind, runs)
    return [
        fit.result(),
        verify_comparator(comparator_width_max),
        valid.result(),
        *(s.result() for s in oracle_suites),
    ]
