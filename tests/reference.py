"""Reference helpers that only the tests use.

None of these runs in a ``qmaze`` subcommand, so the package does not ship
them. Each is a plain restatement the package's fast paths are pinned
against: a one-row circuit run, standalone adder and squarer builders over
the circuit layer's private arithmetic primitives, the Grover iterate's
2x2 block and spectrum built from statevector steps, path automata for
hand-written values and path sets, a path set's indices read back from its
counts, the statevector of a two-level state, the maze's tree path by
breadth-first search, and the two-bit path encoding.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from qmaze.circuits import RevCircuit, _add, _square, pack_rows, run_batch, unpack_column
from qmaze.engine import (
    DegenerateGeometryError,
    GroverGeometry,
    PathCounts,
    PathState,
    TwoLevelState,
    apply_diffuser,
    apply_oracle,
)
from qmaze.maze import Direction, Maze, end_values

# ---------------------------------------------------------------------------
# Circuits


def run_on_basis(circuit: RevCircuit, assignment: dict[str, int]) -> tuple[dict[str, int], int]:
    """Execute on one basis state given as register values.

    Every register must be assigned a value within its width; returns the
    output assignment and the accumulated phase sign (+1 or -1).
    """
    missing = set(circuit.registers) - set(assignment)
    extra = set(assignment) - set(circuit.registers)
    if missing or extra:
        raise ValueError(f"assignment mismatch: missing {sorted(missing)}, unknown {sorted(extra)}")
    batch = pack_rows(circuit, assignment, batch=1)
    out_batch, signs = run_batch(circuit, batch)
    out = {name: int(unpack_column(circuit, out_batch, name)[0]) for name in circuit.registers}
    return out, int(signs[0])


def build_adder(width: int) -> RevCircuit:
    """In-place adder: t += a, exact modulo 2**width.

    Registers: ``a``, ``t``, plus a scratch carry.
    """
    if width < 1:
        raise ValueError("adder width must be >= 1")
    b = RevCircuit()
    a_bits = b.reg("a", width, "operand").bits
    t_bits = b.reg("t", width, "operand").bits
    carry = b.reg("carry", 1, "ancilla").bits[0]
    _add(b, a_bits, t_bits, carry)
    return b


def build_squarer(width: int, out_width: int | None = None, extend: int = 0) -> RevCircuit:
    """Out-of-place squarer |a>|0> -> |a>|a**2 mod 2**out_width>; out_width defaults to 2*width.

    An output narrower than 2*width truncates, as the fitness circuit's
    squares do. With ``extend`` > 0 the source is ``a`` with its top bit
    repeated ``extend`` more times, as the fitness circuit squares a
    displacement from the goal: ``a`` is then read as two's complement.
    """
    if width < 1:
        raise ValueError("squarer width must be >= 1")
    out_width = 2 * width if out_width is None else out_width
    if out_width < 1:
        raise ValueError(f"output register needs >= 1 bit, got {out_width}")
    b = RevCircuit()
    a = b.reg("a", width, "operand").bits
    out = b.reg("sq", out_width, "operand").bits
    tmp = b.reg("tmp", out_width, "ancilla").bits
    carry = b.reg("carry", 1, "ancilla").bits[0]
    _square(b, a + a[-1:] * extend, out, tmp, carry)
    return b


# ---------------------------------------------------------------------------
# Engine


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


def trie_automaton(n: int, values) -> tuple[np.ndarray, np.ndarray, int]:
    """A path automaton for hand-written values of the 4**n paths: one row per path prefix.

    The prefix p of length d is row (4**d - 1) // 3 + p, so move c leads
    from row r to row 4*r + 1 + c. The full-length prefixes carry the
    values and loop on themselves; the shorter ones carry the least value,
    which no path of length n reads. Returns the table, the row values and
    the start row, as ``maze.path_automaton`` does.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (4**n,):
        raise ValueError(f"need 4**{n} values")
    inner = (4**n - 1) // 3
    table = np.empty((inner + 4**n, 4), dtype=np.intp)
    table[:inner] = 4 * np.arange(inner)[:, None] + 1 + np.arange(4)
    table[inner:] = np.arange(inner, inner + 4**n)[:, None]
    return table, np.concatenate([np.full(inner, values.min()), values]), 0


def path_counts(n: int, marked) -> PathCounts:
    """The set of length-n path codes ``marked`` (repeats allowed) as counts over a pruned trie.

    Row 0 has no marked path below it and row 1 only marked paths; both loop
    on themselves. Every other row is a prefix with both kinds below it, and
    its four moves lead to the rows of its four extensions. Each row's count
    is summed from the set directly, not by the suffix recurrence.
    """
    idx = np.asarray(marked, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= 4**n):
        raise ValueError("path code out of range")
    hit = np.zeros(4**n, dtype=np.int64)
    hit[idx] = 1
    below = np.concatenate([[0], np.cumsum(hit)]).tolist()
    table = [[0] * 4, [1] * 4]
    counts = [[0, 4**s] for s in range(n + 1)]

    def row(s: int, first: int) -> int:
        k = below[first + 4**s] - below[first]
        if k in (0, 4**s):
            return int(k > 0)
        r = len(table)
        table.append([])
        for level in counts:
            level.append(0)
        counts[s][r] = k
        table[r] = [row(s - 1, first + c * 4 ** (s - 1)) for c in range(4)]
        return r

    return PathCounts(table, counts, row(n, 0))


def marked_indices(marked: PathCounts) -> np.ndarray:
    """The sorted codes of the paths a ``PathCounts`` holds: each path's end row, read through its table."""
    ends = end_values(marked.n, np.array(marked.table, dtype=np.intp), np.array(marked.counts[0]), marked.start)
    return np.flatnonzero(ends)


def statevector(state: TwoLevelState) -> PathState:
    """The 4**n amplitudes of a two-level state: ``off`` everywhere, then ``on`` scattered over its marked paths."""
    amps = np.full(4**state.n, state.off, dtype=np.result_type(state.on, state.off))
    amps[marked_indices(state.marked)] = state.on
    return PathState(n=state.n, amps=amps)


# ---------------------------------------------------------------------------
# Maze and path encoding


def shortest_path_length(maze: Maze, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Length of the unique tree path between two cells."""
    return len(tree_path(maze, a, b))


def tree_path(maze: Maze, a: tuple[int, int], b: tuple[int, int]) -> tuple[Direction, ...]:
    """The unique direction sequence from a to b along open passages."""
    for cell in (a, b):
        if not maze.in_grid(cell):
            raise ValueError(f"cell {cell} outside the grid")
    parent: dict[tuple[int, int], tuple[tuple[int, int], Direction]] = {}
    frontier = deque([a])
    seen = {a}
    while frontier:
        cell = frontier.popleft()
        if cell == b:
            break
        for d in Direction:
            if maze.is_open(cell, d):
                nxt = (cell[0] + d.delta[0], cell[1] + d.delta[1])
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (cell, d)
                    frontier.append(nxt)
    steps = []
    cell = b
    while cell != a:
        prev, d = parent[cell]
        steps.append(d)
        cell = prev
    return tuple(reversed(steps))


# Two bits per direction, N=00, E=01, S=10, W=11: its index in ``Direction``.
_DIR_CODE = {d: code for code, d in enumerate(Direction)}


def encode_direction(d: Direction) -> int:
    """Two-bit code of a single direction (N=0, E=1, S=2, W=3)."""
    return _DIR_CODE[d]


def encode_path(path) -> int:
    """Concatenate two-bit direction codes, first move in the MSB pair."""
    value = 0
    for d in path:
        value = (value << 2) | _DIR_CODE[d]
    return value
