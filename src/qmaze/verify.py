"""Exhaustive circuit-vs-reference verification suites.

Each suite sweeps every basis input at small sizes and compares the
gate-level construction against an independent classical reference:
fitness circuit vs the reference evaluator, comparator vs integer
comparison, validity flag vs the bounds-only path automaton, oracle sign
vs the landscape-derived diagonal oracle, plus ancilla cleanup and
involution checks. A suite stops at the first mismatch and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits, codec, fitness
from .circuits import (
    arith_width,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_validity_circuit,
    pack_rows,
    run_batch,
    unpack_column,
)
from .fitness import Formula, make_spec
from .maze import SimMode, generate_maze, path_end_values


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _scratch_nonzero(circuit, rows) -> np.ndarray:
    """Row mask: any scratch register left nonzero."""
    bad = np.zeros(rows.shape[0], dtype=bool)
    for reg in circuit.scratch_registers():
        bad |= unpack_column(circuit, rows, reg.name) != 0
    return bad


def _path_sweep_rows(circuit, n: int) -> np.ndarray:
    return pack_rows(circuit, {"path": np.arange(codec.path_count(n))}, codec.path_count(n))


def verify_fitness(n_max: int = 3, m_max: int = 4) -> SuiteResult:
    """Fitness circuit == classical wall-blind fitness (mod 2**width), all inputs."""
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
            maze = generate_maze(m, seed=0)
            circ = build_fitness_circuit(m, n, spec)
            wa = arith_width(m, n, spec)
            rows = _path_sweep_rows(circ, n)
            out, _ = run_batch(circ, rows)
            got = unpack_column(circ, out, "fit")
            want = fitness.landscape(maze, n, spec).values % (1 << wa)
            checked += rows.shape[0]
            mism = np.flatnonzero(got != want)
            if mism.size:
                u = int(mism[0])
                return SuiteResult(
                    "fitness", checked, int(mism.size),
                    f"m={m} n={n} path={u:0{2*n}b}: circuit {int(got[u])}, reference {int(want[u])}",
                )
            bad = np.flatnonzero(_scratch_nonzero(circ, out))
            if bad.size:
                return SuiteResult(
                    "fitness", checked, int(bad.size),
                    f"m={m} n={n} path={int(bad[0]):0{2*n}b}: scratch left nonzero",
                )
    return SuiteResult("fitness", checked, 0)


def verify_comparator(width_max: int = 6, builder=build_gt_comparator) -> SuiteResult:
    """Every (f, c) pair, widths 1..width_max, all variants, vs integer >."""
    checked = 0
    for w in range(1, width_max + 1):
        span = 1 << w
        f_vals = np.repeat(np.arange(span), span)
        c_vals = np.tile(np.arange(span), span)
        want = (f_vals > c_vals).astype(np.int64)
        # Register-source comparator: one circuit covers all pairs.
        circ = builder(w, source="register")
        rows = pack_rows(circ, {"f": f_vals, "c": c_vals}, span * span)
        out, _ = run_batch(circ, rows)
        got = unpack_column(circ, out, "flag")
        f_back = unpack_column(circ, out, "f")
        c_back = unpack_column(circ, out, "c")
        checked += span * span
        mism = np.flatnonzero(
            (got != want) | (f_back != f_vals) | (c_back != c_vals) | _scratch_nonzero(circ, out)
        )
        if mism.size:
            i = int(mism[0])
            return SuiteResult(
                "comparator", checked, int(mism.size),
                f"register source w={w} f={int(f_vals[i])} c={int(c_vals[i])}: "
                f"flag {int(got[i])}, expected {int(want[i])}",
            )
        # Constant-source comparators, both realizations.
        for variant in ("prefix", "subtract"):
            for c in range(span):
                circ = builder(w, c, variant=variant)
                rows = pack_rows(circ, {"f": np.arange(span)}, span)
                out, _ = run_batch(circ, rows)
                got = unpack_column(circ, out, "flag")
                f_kept = unpack_column(circ, out, "f") == np.arange(span)
                wantc = (np.arange(span) > c).astype(np.int64)
                checked += span
                mism = np.flatnonzero((got != wantc) | ~f_kept | _scratch_nonzero(circ, out))
                if mism.size:
                    i = int(mism[0])
                    return SuiteResult(
                        "comparator", checked, int(mism.size),
                        f"{variant} w={w} f={i} c={c}: flag {int(got[i])}, expected {int(wantc[i])}",
                    )
    return SuiteResult("comparator", checked, 0)


def verify_validity(n_max: int = 3, m_max: int = 4) -> SuiteResult:
    """Validity flag == no blocked move in the bounds-only path automaton, all inputs."""
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            maze = generate_maze(m, seed=0)
            circ = build_validity_circuit(m, n)
            rows = _path_sweep_rows(circ, n)
            out, _ = run_batch(circ, rows)
            got = unpack_column(circ, out, "valid")
            want = path_end_values(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen).astype(np.int64)
            checked += rows.shape[0]
            mism = np.flatnonzero((got != want) | _scratch_nonzero(circ, out))
            if mism.size:
                u = int(mism[0])
                return SuiteResult(
                    "validity", checked, int(mism.size),
                    f"m={m} n={n} path={u:0{2*n}b}: flag {int(got[u])}, expected {int(want[u])}",
                )
    return SuiteResult("validity", checked, 0)


def _oracle_cutoffs(spec) -> list[int]:
    c = spec.offset
    return sorted({0, 1, c // 2, c - 1})


def verify_oracle_sign(n_max: int = 3, m_max: int = 4) -> SuiteResult:
    """Oracle per-basis sign == landscape-derived diagonal oracle, all inputs."""
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
            maze = generate_maze(m, seed=0)
            scape = fitness.landscape(maze, n, spec)
            for cutoff in _oracle_cutoffs(spec):
                circ = build_oracle_circuit(m, n, spec, cutoff)
                rows = _path_sweep_rows(circ, n)
                out, signs = run_batch(circ, rows)
                want = np.where(scape.values > cutoff, -1, 1).astype(np.int8)
                checked += rows.shape[0]
                mism = np.flatnonzero(signs != want)
                if mism.size:
                    u = int(mism[0])
                    return SuiteResult(
                        "oracle-sign", checked, int(mism.size),
                        f"m={m} n={n} cutoff={cutoff} path={u:0{2*n}b}: "
                        f"sign {int(signs[u])}, expected {int(want[u])}",
                    )
    return SuiteResult("oracle-sign", checked, 0)


def verify_ancilla_cleanup(n_max: int = 3, m_max: int = 4) -> SuiteResult:
    """After the oracle, every non-path register reads zero on every input."""
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
            cutoff = spec.offset // 2
            circ = build_oracle_circuit(m, n, spec, cutoff)
            rows = _path_sweep_rows(circ, n)
            out, _ = run_batch(circ, rows)
            checked += rows.shape[0]
            for name in circ.registers:
                if name == "path":
                    continue
                nz = np.flatnonzero(unpack_column(circ, out, name) != 0)
                if nz.size:
                    return SuiteResult(
                        "ancilla-cleanup", checked, int(nz.size),
                        f"m={m} n={n} path={int(nz[0]):0{2*n}b}: register '{name}' nonzero",
                    )
            path_out = unpack_column(circ, out, "path")
            moved = np.flatnonzero(path_out != np.arange(rows.shape[0]))
            if moved.size:
                return SuiteResult(
                    "ancilla-cleanup", checked, int(moved.size),
                    f"m={m} n={n}: path register altered at {int(moved[0])}",
                )
    return SuiteResult("ancilla-cleanup", checked, 0)


def verify_involutions(n_max: int = 3, m_max: int = 4) -> SuiteResult:
    """Oracle applied twice is the identity with net sign +1, all inputs."""
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
            cutoff = spec.offset // 2
            circ = build_oracle_circuit(m, n, spec, cutoff)
            doubled = circuits.RevCircuit(circ.registers, circ.gates + circ.gates)
            rows = _path_sweep_rows(circ, n)
            out, signs = run_batch(doubled, rows)
            checked += rows.shape[0]
            if not np.array_equal(out, rows) or np.any(signs != 1):
                bad = np.flatnonzero(np.any(out != rows, axis=1) | (signs != 1))
                return SuiteResult(
                    "involution", checked, int(bad.size),
                    f"m={m} n={n}: double oracle not identity at row {int(bad[0])}",
                )
    return SuiteResult("involution", checked, 0)


def run_all(n_max: int = 3, m_max: int = 4, comparator_width_max: int = 6) -> list[SuiteResult]:
    return [
        verify_fitness(n_max, m_max),
        verify_comparator(comparator_width_max),
        verify_validity(n_max, m_max),
        verify_oracle_sign(n_max, m_max),
        verify_ancilla_cleanup(n_max, m_max),
        verify_involutions(n_max, m_max),
    ]
