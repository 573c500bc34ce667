"""Exhaustive circuit-vs-reference verification suites.

Each suite sweeps every basis input at small sizes and compares the
gate-level construction against an independent classical reference:
fitness circuit vs the reference evaluator, comparator vs integer
comparison, validity flag vs the bounds-only path automaton, oracle sign
vs the landscape-derived diagonal oracle, plus ancilla cleanup and
involution checks. Every suite compares the whole output batch with an
expected batch: the inputs, with the checked register replaced by its
reference values. A suite stops at the first mismatch and reports it.

``run_all`` is the one driver. It keeps nothing between its calls; the
gates its circuits hold come from ``circuits``' gate table. Each
comparator width packs its reference once, one ``flag`` row per cutoff.
The other five suites share one loop over (maze, n): it builds that
key's landscape, fitness circuit, validity circuit and oracles, checks
every suite that is still open, and holds only that key's batches. Two
inputs outlive a key. Every path of one length is packed once per call:
``path`` sits at offset 0 of every fitness, validity and oracle circuit
of every maze, so one packing serves them all. Each maze's bounds-only
path automaton, the validity reference, is built once: its table does
not depend on n, and each n gathers its end values from it.

Each oracle is ``P . C Z C^-1 . P^-1``, whose prefix ``P = F W`` is the
fitness circuit's gates up to the end of its fitness write. Per
(maze, n), the fitness circuit runs once, as P and then the rest from
P's output, and the validity circuit runs whole. An oracle whose first
gates equal P's and whose last gates equal them in reverse order runs
only its middle ``C Z C^-1``, from P's output zero-extended over
``flag``. Equal gates are the same self-inverse map
on basis states and a phase mark flips no bit, so if the middle returns
its input, the mirror retraces P gate for gate back to the input, and
each phase mark in P meets the same bits in the mirror and cancels: the
oracle returns its input with the middle's signs. Otherwise it runs
whole. The cutoff C // 2 run serves three suites: oracle-sign checks it,
ancilla-cleanup reads its registers, and involution squares its signs
when it restored its input; otherwise involution runs that oracle once
more from its output.
"""

from __future__ import annotations

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
from .maze import Maze, SimMode, end_values, generate_maze, path_automaton


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


def _packed(circ: RevCircuit, name: str, values: np.ndarray, planes: dict) -> Batch:
    """``values`` in register ``name``, every other wire zero.

    The wires up to the register's end are packed once per register place,
    (offset, width), and kept in ``planes``; each batch pads them with zero
    wires to its circuit's width. Every caller passes all ``2**width``
    values of the register in order, so a place fixes its values.
    """
    reg = circ.registers[name]
    place = (reg.offset, reg.width)
    if place not in planes:
        planes[place] = pack_rows(circ, {name: values}, len(values)).wires[: reg.offset + reg.width]
    wires = planes[place]
    return Batch(len(values), wires + (0,) * (circ.num_bits - len(wires)))


def _expected(circ: RevCircuit, batch: Batch, reference: dict) -> Batch:
    """The input batch ORed with the packed ``reference`` registers, outputs absent from the inputs."""
    ref = pack_rows(circ, reference, batch.size).wires
    # A list, not a generator: tuple() resizes a generator's guessed size, and
    # the tuple is then freed to another size's free list, which only a full
    # collection (rare since the gate table) empties.
    return Batch(batch.size, tuple([a | b for a, b in zip(batch.wires, ref)]))


def _where(m: int, n: int, label: str = ""):
    """Names a path row: the bad row's path, after the case's m, n and label."""
    return lambda u: f"m={m} n={n}{label} path={u:0{2*n}b}"


def _paths(n: int) -> np.ndarray:
    return np.arange(codec.path_count(n))


def _blind_values(maze: Maze, n: int) -> np.ndarray:
    """Wall-blind fitness of every length-n path, the reference for fitness circuits."""
    return fitness.landscape(maze, n, make_spec(maze.size, Formula.MAIN, SimMode.WALL_BLIND)).values


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
        planes: dict = {}
        for cutoff in range(1 << w):
            circ = builder(w, cutoff)
            batch = _packed(circ, "f", f, planes)
            out, signs = run_batch(circ, batch)
            wires = list(batch.wires)
            wires[circ.registers["flag"].offset] |= flags[cutoff]
            want = Batch(batch.size, tuple(wires))
            if not suite.check(lambda i: f"w={w} f={i} c={cutoff}", circ, out, signs, want, 1):
                return suite.result()
    return suite.result()


def _oracle_cutoffs(m: int) -> list[int]:
    c = make_spec(m).offset
    return sorted({0, 1, c // 2, c - 1})


def _mirrors(gates: list, k: int) -> bool:
    """True if k >= 1 and the last ``k`` gates equal the first ``k`` in reverse order."""
    return 0 < k <= len(gates) // 2 and gates[: -k - 1 : -1] == gates[:k]


def _segment(circ: RevCircuit, lo: int, hi: int, batch: Batch):
    """Gates ``lo:hi`` of ``circ`` run on ``batch``."""
    return run_batch(RevCircuit(circ.registers, circ.gates[lo:hi]), batch)


def _oracle_run(circ: RevCircuit, batch: Batch, prefix: list, source: Batch, p_out: Batch):
    """An oracle on ``batch``, from ``p_out``, the output of the gates ``prefix`` (P) on ``source``.

    Both batches hold every path. P touches only the wires of ``source``,
    so on a batch that begins with those wires its output is ``p_out``
    followed by the batch's other wires. An oracle that begins with P's
    gates and ends with them reversed runs only its middle ``C Z C^-1``
    from there; if the middle returns its input, the oracle returns
    ``batch`` with the middle's signs (see the module docstring). Any other
    oracle runs whole.
    """
    hi, gates, known = len(prefix), circ.gates, len(source.wires)
    if batch.wires[:known] == source.wires and _mirrors(gates, hi) and gates[:hi] == prefix:
        mid_in = Batch(batch.size, p_out.wires + batch.wires[known:])
        out, signs = _segment(circ, hi, len(gates) - hi, mid_in)
        if out == mid_in:
            return batch, signs
    return run_batch(circ, batch)


def run_all(n_max: int, m_max: int, comparator_width_max: int) -> list[SuiteResult]:
    """Every suite, each until its own first failure.

    fitness: ``fit`` holds the wall-blind fitness (mod 2**width). validity:
    ``valid`` holds the bounds-only validity. Both leave every other
    register as it was, with sign +1. oracle-sign: each oracle's sign is
    that of the oracle derived from the wall-blind fitness, registers
    restored. ancilla-cleanup: after the cutoff C // 2 oracle, every
    register reads back its input. involution: that oracle applied twice is
    the identity with net sign +1. All on every path, one (maze, n) at a
    time; see the module docstring for which oracles run only their middle.
    """
    fit, valid = _Suite("fitness"), _Suite("validity")
    sign, cleanup, twice = _Suite("oracle-sign"), _Suite("ancilla-cleanup"), _Suite("involution")
    planes: dict = {}  # path planes by register place, shared by every maze
    for m in range(2, m_max + 1):
        maze, half = generate_maze(m, seed=0), make_spec(m).offset // 2
        # The bounds-only table has no offset grid, so one serves every n.
        bounds = path_automaton(maze, n_max, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)
        for n in range(1, n_max + 1):
            blind, paths = _blind_values(maze, n), _paths(n)
            circ, validity = build_fitness_circuit(maze, n), build_validity_circuit(maze, n)
            oracles = {c: build_oracle_circuit(circ, c) for c in _oracle_cutoffs(m)}
            where, source = _where(m, n), _packed(circ, "path", paths, planes)
            # P = F W, the fitness circuit up to the end of its distance_fitness span, begins each oracle.
            hi = circ.spans["distance_fitness"][1]
            prefix, (p_out, p_signs) = circ.gates[:hi], _segment(circ, 0, hi, source)
            if fit.open:
                out, signs = _segment(circ, hi, len(circ.gates), p_out)
                want = _expected(circ, source, {"fit": blind % (1 << circ.registers["fit"].width)})
                fit.check(where, circ, out, p_signs * signs, want, 1)
            if valid.open:
                batch = _packed(validity, "path", paths, planes)
                want = _expected(validity, batch, {"valid": end_values(n, *bounds)})
                valid.check(where, validity, *run_batch(validity, batch), want, 1)
            for cutoff, oracle in oracles.items():
                reused = cutoff == half and (cleanup.open or twice.open)
                if not (sign.open or reused):
                    continue
                batch = _packed(oracle, "path", paths, planes)
                out, signs = _oracle_run(oracle, batch, prefix, source, p_out)
                if sign.open:
                    want_signs = np.where(blind > cutoff, -1, 1)
                    sign.check(_where(m, n, f" cutoff={cutoff}"), oracle, out, signs, batch, want_signs)
                if reused and cleanup.open:
                    cleanup.check(where, oracle, out, signs, batch)
                if reused and twice.open:
                    # On a restored input, the second pass would repeat the first run.
                    out, again = (out, signs) if out == batch else run_batch(oracle, out)
                    twice.check(_where(m, n, " (oracle twice)"), oracle, out, signs * again, batch, 1)
    comparator = verify_comparator(comparator_width_max)
    return [fit.result(), comparator, valid.result(), sign.result(), cleanup.result(), twice.result()]
