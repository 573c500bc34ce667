"""Reversible-circuit layer: fitness evaluation, comparators, oracle, validity.

Circuits are ordered lists of NOT/CNOT/Toffoli gates over named bit
registers, plus single-bit Z phase markers. A gate is a plain tuple
(target, controls): controls ``()`` is a NOT, ``(c,)`` a CNOT,
``(c1, c2)`` a Toffoli, and ``None`` a phase mark on the target.
Every gate is self-inverse, so a circuit's inverse is its reversed gate
list. Executing a circuit on a classical basis state is exact: bits map
to bits bijectively and the only quantum effect, the phase marker, is
tracked as a +/-1 sign per state.
Execution is bitsliced: a ``Batch`` of basis states is one integer per
wire with one bit per basis row, so each gate is a single integer
XOR/AND over the whole batch. A batch keeps that form from ``pack_rows``
through ``run_batch`` to ``unpack_column``, which decodes one register.

Each builder starts from an empty ``RevCircuit``, appends registers and
gates to it, then returns it.
The fitness and validity builders each allocate one scratch register,
``scratch``, and lend slices of it to their stages in turn; the oracle
borrows the fitness circuit's, and the standalone comparator has only its
equality chain. Every stage follows compute-use-uncompute discipline
(Bennett cleanup), so the pool reads zero again when the stage ends and
the next stage can borrow the same wires: on any input whose scratch
starts at zero, it ends at zero.
Uncomputation appends the same gate objects in reverse order, and a
repeated block is appended as the same objects too: the second half of
each conjugation pair (a walk step's sign complement and code-bit
inversion, a squaring row's mask) repeats the first, and validity's
per-step bound check is emitted once per build and repeated at every
later step. Every emitter, ``x``, ``cx``, ``ccx`` and ``z``, draws its
gates from one gate table for the whole process, keyed by target and
controls: the first emission of a gate checks its bits and stores it,
and every later one, in any build, appends that same object. A bad gate
raises on every emission and is never stored. Gates are immutable, so
sharing objects changes no result, and it only makes building faster:
``verify`` matches a mirror or a shared prefix by gate equality, not by
object identity. Gate lists stay per build: no two circuits share one. The
oracle reuses an already built fitness circuit
rather than building its own: it starts a
new circuit from copies of that circuit's registers and spans and its
gates up to the fitness write,
compares and marks, then mirrors them, so it holds the forward
computation twice, not four times. Each oracle of a fitness circuit
therefore begins with that circuit's forward run and ends with it
reversed, which lets ``verify`` run the forward part once and prove each
oracle's mirror, when its middle returns its input, instead of running
it. Stages are
named by spans of the gate list, not per gate: the fitness circuit marks ``walk`` and
``distance_fitness`` (the squares through the fitness write), and
``count_gates`` tallies one span into a ``GateCounts``, the one
gate-count record the resource model shares.

The fitness and validity builders take a ``Maze``, read its size, start
and goal, and ignore its walls: fitness is wall-blind, validity checks
the grid bounds only, and C is ``make_spec(maze.size).offset``.

Arithmetic conventions:
  * registers are little-endian (bit k of a register holds value bit k);
  * coordinates mod 2**w; fitness relative to the goal, validity absolute:
    a fitness position starts at start - goal, so the walk ends on the
    two's-complement displacement from the goal; a validity position starts
    at the start, and a step off the top or left edge wraps above m - 1;
  * each displacement is squared with its sign wire repeated up to the
    shared arithmetic width, so no wire holds the extension; both squares
    are added straight into the fitness register, loaded with ~C and
    complemented after, so fitness is exact in one shared arithmetic width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitness import make_spec
from .maze import Maze

# ---------------------------------------------------------------------------
# Gate and circuit data model


# The gate table (see the module docstring), keyed by each emitter's flat
# (target, *controls), or by the gate itself for a phase mark: one entry per
# distinct gate emitted in this process, never removed.
_GATES: dict[tuple, tuple] = {}


def _gate(target: int, controls: tuple[int, ...] | None) -> tuple:
    """The gate (target, controls), its bits checked, then stored in the table; only the emitters call it."""
    # Chained comparisons: every bit >= 0 and no two bits equal.
    if not controls:
        ok = target >= 0
    elif len(controls) == 1:
        ok = target >= 0 <= controls[0] != target
    else:
        c1, c2 = controls
        ok = target >= 0 <= c1 != c2 != target != c1 and c2 >= 0
    if not ok:
        need = "nonnegative" if min((target, *(controls or ()))) < 0 else "distinct"
        raise ValueError(f"gate bits must be {need}: target={target!r}, controls={controls!r}")
    gate = (target, controls)
    _GATES[gate if controls is None else (target, *controls)] = gate
    return gate


@dataclass(frozen=True)
class Register:
    name: str
    offset: int
    width: int
    role: str

    @property
    def bits(self) -> list[int]:
        return list(range(self.offset, self.offset + self.width))


class RevCircuit:
    """A reversible circuit, built by appending registers and gates.

    ``spans`` maps a stage label to its slice (lo, hi) of gates; a new
    register takes the next ``num_bits`` bits.
    """

    def __init__(self, registers: dict | None = None, gates: list | None = None, spans: dict | None = None):
        self.registers = {} if registers is None else registers
        self.gates = [] if gates is None else gates
        self.spans = {} if spans is None else spans
        self.num_bits = sum(r.width for r in self.registers.values())

    def scratch_registers(self) -> list[Register]:
        return [r for r in self.registers.values() if r.role == "ancilla"]

    def reg(self, name: str, width: int, role: str) -> Register:
        if width <= 0:
            raise ValueError(f"register '{name}' must have positive width")
        if name in self.registers:
            raise ValueError(f"duplicate register '{name}'")
        r = Register(name, self.num_bits, width, role)
        self.registers[name] = r
        self.num_bits += width
        return r

    def x(self, t: int):
        self.gates.append(_GATES.get((t,)) or _gate(t, ()))

    def cx(self, c: int, t: int):
        self.gates.append(_GATES.get((t, c)) or _gate(t, (c,)))

    def ccx(self, c1: int, c2: int, t: int):
        self.gates.append(_GATES.get((t, c1, c2)) or _gate(t, (c1, c2)))

    def z(self, t: int):
        self.gates.append(_GATES.get((t, None)) or _gate(t, None))

    def mark(self) -> int:
        return len(self.gates)

    def repeat(self, lo: int, hi: int):
        """Append gates[lo:hi] again, in the same order, as the same gate objects."""
        self.gates.extend(self.gates[lo:hi])

    def uncompute_range(self, lo: int, hi: int):
        """Append the inverse of gates[lo:hi]: the same (self-inverse) gates, reversed."""
        self.gates.extend(reversed(self.gates[lo:hi]))


@dataclass(frozen=True)
class GateCounts:
    """Exact gate tallies; phase markers are not counted."""

    toffoli: int
    cnot: int
    nots: int


def count_gates(circuit: RevCircuit, stage: str | None = None) -> GateCounts:
    """Tally a circuit's gates, optionally restricted to one labelled span.

    Phase marks count toward ``circuit_depth`` but not toward these tallies.
    """
    gates = circuit.gates
    if stage is not None:
        if stage not in circuit.spans:
            raise ValueError(f"no stage '{stage}' in this circuit; its stages are {sorted(circuit.spans)}")
        lo, hi = circuit.spans[stage]
        gates = gates[lo:hi]
    tof = cnot = nots = 0
    for _, c in gates:
        if c is None:
            continue
        if len(c) == 2:
            tof += 1
        elif c:
            cnot += 1
        else:
            nots += 1
    return GateCounts(toffoli=tof, cnot=cnot, nots=nots)


def circuit_depth(circuit: RevCircuit) -> int:
    """Dependency-chain depth of the whole circuit: gates sharing a bit run in order.

    Phase marks count toward the depth, though ``count_gates`` does not tally them.
    """
    depth_at = [0] * circuit.num_bits
    for t, c in circuit.gates:
        touched = (t, *(c or ()))
        d = 1 + max(depth_at[b] for b in touched)
        for b in touched:
            depth_at[b] = d
    return max(depth_at, default=0)


# ---------------------------------------------------------------------------
# Execution on classical basis states


@dataclass(frozen=True)
class Batch:
    """Basis states, bitsliced: ``size`` rows; wire b is one int whose bit i is row i's bit b."""

    size: int
    wires: tuple[int, ...]


def _planes(words, size: int) -> np.ndarray:
    """0/1 matrix (len(words), size): row b, column i is bit i of words[b]."""
    nbytes = (size + 7) // 8
    data = b"".join(w.to_bytes(nbytes, "little") for w in words)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(words), nbytes)
    return np.unpackbits(packed, axis=1, count=size, bitorder="little")


def pack_rows(circuit: RevCircuit, values: dict[str, int | np.ndarray], batch: int) -> Batch:
    """Bitsliced batch from per-register values (scalar or array); absent registers are zero.

    Only the registers named in ``values`` are packed; every other wire is 0.
    A scalar value is broadcast to every row.
    """
    unknown = set(values) - set(circuit.registers)
    if unknown:
        raise ValueError(f"no register {sorted(unknown)} in this circuit")
    wires = [0] * circuit.num_bits
    for name, v in values.items():
        reg = circuit.registers[name]
        v = np.broadcast_to(np.asarray(v, dtype=np.int64), (batch,))
        if ((v < 0) | (v >> reg.width != 0)).any():
            raise ValueError(f"value out of range for {reg.width}-bit register '{name}'")
        # Bit planes from each value's little-endian bytes: uint8 throughout, never a (width, batch) int64 matrix.
        le_bytes = v.astype("<i8").view(np.uint8).reshape(batch, 8)
        rows = np.unpackbits(le_bytes, axis=1, count=reg.width, bitorder="little")
        packed = np.packbits(np.ascontiguousarray(rows.T), axis=1, bitorder="little")
        bits = [int.from_bytes(p.tobytes(), "little") for p in packed]
        wires[reg.offset : reg.offset + reg.width] = bits
    return Batch(batch, tuple(wires))


def unpack_column(circuit: RevCircuit, batch: Batch, name: str) -> np.ndarray:
    """Integer values of one register across a batch."""
    reg = circuit.registers[name]
    planes = _planes(batch.wires[reg.offset : reg.offset + reg.width], batch.size)
    return (planes.astype(np.int64) << np.arange(reg.width)[:, None]).sum(axis=0)


def run_batch(circuit: RevCircuit, batch: Batch) -> tuple[Batch, np.ndarray]:
    """Execute on a batch of basis states; returns (batch, signs).

    Each gate acts on every row in one integer operation. The input is
    left as it was; ``signs`` is an int8 vector of +/-1, one per row.
    """
    w = list(batch.wires)
    ones = (1 << batch.size) - 1
    neg = 0
    for t, c in circuit.gates:
        if c:
            if len(c) == 2:
                w[t] ^= w[c[0]] & w[c[1]]
            else:
                w[t] ^= w[c[0]]
        elif c is None:
            neg ^= w[t]
        else:
            w[t] ^= ones
    out = Batch(batch.size, tuple(w))
    if not neg:  # no phase mark fired: every sign is +1
        return out, np.ones(batch.size, dtype=np.int8)
    return out, 1 - 2 * _planes([neg], batch.size)[0].astype(np.int8)


# ---------------------------------------------------------------------------
# Arithmetic primitives


def _xor_const(b: RevCircuit, bits: list[int], value: int):
    for k, bit in enumerate(bits):
        if (value >> k) & 1:
            b.x(bit)


def _increment(b: RevCircuit, bits: list[int], chain: list[int], ctrl: int):
    """+1 mod 2**w (w >= 2) on ``bits``, controlled by ``ctrl``; ripple carry via ``chain``."""
    w = len(bits)
    # chain[k] accumulates ctrl AND bits[0] AND ... AND bits[k].
    b.ccx(ctrl, bits[0], chain[0])
    for k in range(1, w - 1):
        b.ccx(chain[k - 1], bits[k], chain[k])
    for k in range(w - 1, 0, -1):
        b.cx(chain[k - 1], bits[k])
        if k >= 2:
            b.ccx(chain[k - 2], bits[k - 1], chain[k - 1])
        else:
            b.ccx(ctrl, bits[0], chain[0])
    b.cx(ctrl, bits[0])


def _add(b: RevCircuit, a: list[int], t: list[int], carry: int):
    """Ripple-carry t += a mod 2**w (equal widths); ``carry`` is borrowed scratch."""
    w = len(a)
    if w != len(t):
        raise ValueError("adder operands must have equal width")
    if w == 1:
        b.cx(a[0], t[0])
        b.cx(carry, t[0])
        return
    carries = [carry] + a[:-1]
    for k in range(w - 1):  # majority blocks leave carry k+1 in a[k]
        b.cx(a[k], t[k])
        b.cx(a[k], carries[k])
        b.ccx(carries[k], t[k], a[k])
    b.cx(a[w - 1], t[w - 1])
    b.cx(a[w - 2], t[w - 1])
    for k in range(w - 2, -1, -1):  # unmajority blocks restore a and emit sums
        b.ccx(carries[k], t[k], a[k])
        b.cx(a[k], carries[k])
        b.cx(carries[k], t[k])


def _square(b: RevCircuit, src: list[int], out: list[int], tmp: list[int], carry: int):
    """out += src**2 truncated to p = len(out) bits, each partial product s_i*s_j added once.

    By src**2 = sum_i 4**i * s_i * (1 + sum_{j>i} s_j * 2**(j-i+1)), row i
    masks [s_i, 0, s_i s_{i+1}, s_i s_{i+2}, ...] into ``tmp``, adds it
    into the window out[2i:] so carries propagate, then unmasks it: the
    windows are p, p-2, p-4, ... ``tmp`` needs p bits (its upper bits stay
    zero and act as the zero-extension). ``src`` may end in one wire
    repeated, a two's-complement sign bit standing for its own extension;
    a product that pairs that wire with itself is a CNOT, as s*s = s.
    """
    w, p = len(src), len(out)
    for i in range(min(w, (p + 1) // 2)):
        window = p - 2 * i
        lo = b.mark()
        b.cx(src[i], tmp[0])
        for k in range(2, min(w - i + 1, window)):
            if src[i + k - 1] == src[i]:
                b.cx(src[i], tmp[k])
            else:
                b.ccx(src[i], src[i + k - 1], tmp[k])
        hi = b.mark()
        _add(b, tmp[:window], out[2 * i :], carry)
        b.repeat(lo, hi)


def _gt_const(b: RevCircuit, a: list[int], cutoff: int, out: int, eq: list[int]):
    """out ^= (a > cutoff) for a classical cutoff, scanning MSB to LSB.

    A prefix-equality ancilla chain tracks "all higher bits match"; the
    disjuncts [a_i AND NOT c_i AND equal-above-i] are mutually exclusive,
    so their OR is realized as XORs into ``out``. The chain is uncomputed.
    """
    w = len(a)
    if cutoff >= 2**w - 1:
        return  # no w-bit value exceeds the cutoff
    chain_mark = []
    e_prev: int | None = None
    next_eq = 0
    for i in range(w - 1, -1, -1):
        c_i = (cutoff >> i) & 1
        if c_i == 0:
            if e_prev is None:
                b.cx(a[i], out)
            else:
                b.ccx(e_prev, a[i], out)
        if i > 0:
            e_new = eq[next_eq]
            next_eq += 1
            lo = b.mark()
            if c_i == 0:
                b.x(a[i])
            if e_prev is None:
                b.cx(a[i], e_new)
            else:
                b.ccx(e_prev, a[i], e_new)
            if c_i == 0:
                b.x(a[i])
            chain_mark.append((lo, b.mark()))
            e_prev = e_new
    for lo, hi in reversed(chain_mark):
        b.uncompute_range(lo, hi)


# ---------------------------------------------------------------------------
# Width planning (shared with the resource model)


def position_width(m: int, n: int) -> int:
    """Position register width: ceil(log2(m + 2n)) + 1.

    Wide enough for a displacement from the goal, in [-(m-1+n), m-1+n], in
    two's complement, and for a coordinate in [-n, m-1+n] mod 2**w.
    """
    return (m + 2 * n - 1).bit_length() + 1


def arith_width(m: int, n: int) -> int:
    """Shared width of the squares' sources (sign wire repeated) and the fitness register.

    Chosen so the fitness fits two's complement over [C - d_max, C], where
    d_max = 2*(m-1+n)**2 is the largest squared goal distance reachable
    wall-blind, and the sign-extended displacement fits.
    """
    c = make_spec(m).offset
    d_max = 2 * (m - 1 + n) ** 2
    w = 1
    while not (2 ** (w - 1) > c and 2 ** (w - 1) >= d_max - c):
        w += 1
    return max(w, position_width(m, n))


# ---------------------------------------------------------------------------
# Standalone comparator


def build_gt_comparator(width: int, cutoff: int) -> RevCircuit:
    """Greater-than comparator against a classical cutoff: flag ^= (f > cutoff), strict.

    Uses the prefix-equality realization the oracle and validity circuits
    emit; its equality chain is uncomputed.
    """
    if width < 1:
        raise ValueError("comparator width must be >= 1")
    if cutoff < 0:
        raise ValueError(f"comparator cutoff must be >= 0, got {cutoff}")
    b = RevCircuit()
    f = b.reg("f", width, "fitness").bits
    flag = b.reg("flag", 1, "flag").bits[0]
    eq = b.reg("eq", width - 1, "ancilla").bits if width > 1 else []
    _gt_const(b, f, cutoff, flag, eq)
    return b


# ---------------------------------------------------------------------------
# Fitness, oracle, and validity circuits


def _emit_walk_step(
    b: RevCircuit, path_bits: list[int], step: int, n: int, pos_i: list[int], pos_j: list[int], chain: list[int]
):
    """One path step (1-based): a controlled increment of each coordinate.

    In ``Direction``'s code order N, E, S, W (codec's code), the low code
    bit picks the axis, 0 for ``pos_i`` and 1 for ``pos_j``, and the high
    bit the sign: N -1, E +1, S +1, W -1. So each coordinate's increment is
    controlled by the low bit and sits inside a complement of CNOTs from the
    high bit, as x - 1 = ~(~x + 1). ``pos_i``'s block runs with both code
    bits inverted, so it moves on a low bit of 0 and decrements on a high
    bit of 0. Each closing complement repeats its opening one.
    """
    hi = path_bits[2 * (n - step) + 1]
    lo = path_bits[2 * (n - step)]
    for reg_bits, inverted in ((pos_i, (hi, lo)), (pos_j, ())):
        invert_lo = b.mark()
        for bit in inverted:
            b.x(bit)
        sign_lo = b.mark()
        for bit in reg_bits:
            b.cx(hi, bit)
        sign_hi = b.mark()
        _increment(b, reg_bits, chain, lo)
        b.repeat(sign_lo, sign_hi)
        b.repeat(invert_lo, sign_lo)


def build_fitness_circuit(maze: Maze, n: int) -> RevCircuit:
    """Reversible fitness evaluation: |x>|0...0> -> |x>|fitness(x)>.

    Walks the path wall-blind from ``maze.start`` on coordinates relative
    to ``maze.goal``: each position register starts at start - goal mod
    2**w, so the walk ends on the two's-complement displacement from the
    goal. The fitness register is loaded with ~C, both squares are added
    straight into it, and complementing it leaves C - distance in two's
    complement, as ~(~C + d) = C - d, C = make_spec(maze.size).offset;
    the load and the walk are then uncomputed. The maze's walls are
    ignored. Spans ``walk`` and ``distance_fitness`` cover the forward walk
    and the squares through the fitness write.

    Its one scratch register, ``scratch`` (wa + 1 bits), is lent to each
    stage in turn and reads zero between them: the walk's increment chain,
    each square's row mask, and the carry of its adders.
    """
    if n < 1:
        raise ValueError("circuit path length must be >= 1")
    m, start, goal = maze.size, maze.start, maze.goal
    w_pos = position_width(m, n)
    wa = arith_width(m, n)

    b = RevCircuit()
    path = b.reg("path", 2 * n, "path").bits
    pos_i = b.reg("pos_i", w_pos, "position-i").bits
    pos_j = b.reg("pos_j", w_pos, "position-j").bits
    fit = b.reg("fit", wa, "fitness").bits
    scratch = b.reg("scratch", wa + 1, "ancilla").bits
    chain, carry = scratch[: w_pos - 1], scratch[wa]

    for s, g, pos in zip(start, goal, (pos_i, pos_j)):
        _xor_const(b, pos, (s - g) % 2**w_pos)
    walk_lo = b.mark()
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, chain)
    walk_hi = b.mark()
    _xor_const(b, fit, ~make_spec(m).offset % 2**wa)
    for pos in (pos_i, pos_j):
        _square(b, pos + pos[-1:] * (wa - w_pos), fit, scratch[:wa], carry)
    for bit in fit:
        b.x(bit)
    b.spans = {"walk": (walk_lo, walk_hi), "distance_fitness": (walk_hi, b.mark())}

    b.uncompute_range(0, walk_hi)
    return b


def build_oracle_circuit(fitness_circ: RevCircuit, cutoff: int) -> RevCircuit:
    """Phase oracle: |x> -> (-1)^[fitness(x) > cutoff] |x>, scratch restored.

    Built from an already built fitness circuit (from
    ``build_fitness_circuit``, which fixes the maze and n) as
    ``F W . C Z C^-1 . W^-1 F^-1``: the fitness circuit's own gates up to
    the end of its ``distance_fitness`` span (the start load and forward
    walk F, then the fitness write W, both squares added into ``fit``),
    the guarded comparator C and the phase mark Z, then the forward part
    mirrored. Wrapping the whole
    fitness circuit ``F W F^-1`` instead gives the same unitary with twice
    the gates: ``C Z C^-1`` touches only ``fit``, ``flag`` and the fitness
    circuit's ``scratch``, which it borrows (its equality chain and output)
    and returns to zero. F never touches ``fit`` and returns ``scratch`` to
    zero, so on every input whose scratch reads zero the
    ``F^-1 . C Z C^-1 . F`` at its middle acts as ``C Z C^-1``.
    ``fitness_circ`` itself is left unchanged and its spans carry over; the
    oracle adds only ``flag``.

    The comparator result is ANDed with NOT(sign bit) so paths whose
    wall-blind fitness went negative are never marked; the sign then agrees
    with the classical reference for every basis state and any cutoff >= 0.
    """
    fit = fitness_circ.registers["fit"].bits
    wa = len(fit)
    if not 0 <= cutoff < 2 ** (wa - 1):
        raise ValueError(f"cutoff must lie in [0, {2 ** (wa - 1)}) for width {wa}")

    forward_hi = fitness_circ.spans["distance_fitness"][1]
    b = RevCircuit(dict(fitness_circ.registers), fitness_circ.gates[:forward_hi], dict(fitness_circ.spans))
    flag = b.reg("flag", 1, "flag").bits[0]
    scratch = fitness_circ.registers["scratch"].bits
    eq, gsc = scratch[: wa - 1], scratch[wa - 1]
    sign_bit = fit[-1]

    cmp_lo = b.mark()
    _gt_const(b, fit, cutoff, gsc, eq)
    b.x(sign_bit)
    b.ccx(gsc, sign_bit, flag)
    b.x(sign_bit)
    cmp_hi = b.mark()
    b.z(flag)
    b.uncompute_range(cmp_lo, cmp_hi)
    b.uncompute_range(0, forward_hi)
    return b


def build_validity_circuit(maze: Maze, n: int) -> RevCircuit:
    """Bounds validity flag: |x>|0> -> |x>|valid(x)>, valid = 1 iff every
    intermediate position of the walk from ``maze.start`` stays inside the
    grid. The maze's walls are ignored.

    Positions are plain coordinates mod 2**w, w = position_width(m, n). Those
    reachable in n moves lie in [-n, m-1+n] and 2**w > m + n - 1, so their
    residues are distinct and every negative one lands above m - 1: one
    unsigned comparator per coordinate, pos > m - 1, checks both edges. Each
    step ANDs its two inverted flags onto a Toffoli chain over steps; the
    result is copied out and the whole computation is reversed.

    Its one scratch register, ``scratch`` (w + 2 + n bits), lends its first
    w + 2 bits to each stage in turn, the walk's increment chain, then
    the bound check's equality chain on the same w - 1 wires, two edge
    flags and their AND, and they read zero after every step; its last n
    bits hold the step chain.
    """
    if n < 1:
        raise ValueError("circuit path length must be >= 1")
    m, start = maze.size, maze.start
    w_pos = position_width(m, n)

    b = RevCircuit()
    path = b.reg("path", 2 * n, "path").bits
    pos_i = b.reg("pos_i", w_pos, "position-i").bits
    pos_j = b.reg("pos_j", w_pos, "position-j").bits
    vout = b.reg("valid", 1, "flag").bits[0]
    scratch = b.reg("scratch", w_pos + 2 + n, "ancilla").bits
    lent, vchain = scratch[: w_pos + 2], scratch[w_pos + 2 :]
    chain, (inb_i, inb_j, phi) = lent[: w_pos - 1], lent[w_pos - 1 :]

    _xor_const(b, pos_i, start[0])
    _xor_const(b, pos_j, start[1])
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, chain)
        if step == 1:
            check_lo = b.mark()
            _gt_const(b, pos_i, m - 1, inb_i, chain)
            _gt_const(b, pos_j, m - 1, inb_j, chain)
            b.x(inb_i)
            b.x(inb_j)
            b.ccx(inb_i, inb_j, phi)
            check = (check_lo, b.mark())
            b.cx(phi, vchain[0])
        else:
            b.repeat(*check)
            b.ccx(vchain[step - 2], phi, vchain[step - 1])
        b.uncompute_range(*check)
    compute_hi = b.mark()
    b.cx(vchain[n - 1], vout)
    b.uncompute_range(0, compute_hi)
    return b
