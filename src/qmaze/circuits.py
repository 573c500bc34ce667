"""Reversible-circuit layer: fitness evaluation, comparators, oracle, validity.

Circuits are ordered lists of NOT/CNOT/Toffoli gates over named bit
registers, plus single-bit Z phase markers. A gate is an immutable
(target, controls) tuple, checked once when made, which executors unpack
as ``t, c = g``; a ``PhaseMark`` is a ``Gate`` but never equals one.
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
Scratch registers follow compute-use-uncompute discipline (Bennett
cleanup): on any input whose scratch starts at zero, it ends at zero.
Uncomputation appends the same gate objects in reverse order, and a
repeated block is appended as the same objects too: the second half of
each conjugation pair (the NOTs around a decrement or subtraction, a
loaded constant, a masked copy, a walk step's control toggle) repeats the
first, and each direction's increment or decrement, like validity's
per-step bound check, is emitted once per build and repeated at every
later step. Gates are immutable, so sharing objects changes no result;
nothing is kept between builds. The oracle
reuses an already built fitness circuit rather than building its own: it
starts a new circuit from copies of that circuit's registers and spans
and its gates up to the fitness write, compares and marks, then mirrors
them, so it holds the forward computation twice, not four times. The
oracles of one fitness circuit therefore share their prefix and their
mirror gate for gate, as the same objects, which lets ``verify`` run
each shared segment once. Stages are named by spans of the gate list,
not per gate: the fitness circuit marks ``walk`` and
``distance_fitness`` (goal difference through the fitness write), and
``count_gates`` tallies one span into a ``GateCounts``, the one
gate-count record the resource model shares.

The fitness and validity builders take a ``Maze``, read its size, start
and goal, and ignore its walls: fitness is wall-blind, validity checks
the grid bounds only, and C is ``make_spec(maze.size).offset``.

Arithmetic conventions:
  * registers are little-endian (bit k of a register holds value bit k);
  * fitness positions are offset-encoded as i + n, so n unchecked +/-1 steps
    never wrap below zero; validity positions are plain coordinates mod 2**w,
    where a step off the top or left edge wraps above m - 1;
  * goal subtraction leaves a two's-complement difference in the position
    register, which is sign-extended before squaring so squares, distance,
    and fitness are exact in one shared arithmetic width.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .fitness import make_spec
from .maze import Direction, Maze

# ---------------------------------------------------------------------------
# Gate and circuit data model


class Gate(tuple):
    """X-family gate: 0 controls = NOT, 1 = CNOT, 2 = Toffoli.

    A gate is the pair (target, controls), so executors unpack it as
    ``t, c = g``. It equals only a gate of its own type with the same bits.
    """

    __slots__ = ()

    def __new__(cls, target: int, controls: tuple[int, ...] = ()):
        # Chained comparisons: every bit >= 0 and no two bits equal.
        if not controls:
            ok = target >= 0
        elif len(controls) == 1:
            ok = target >= 0 <= controls[0] != target
        elif len(controls) == 2:
            c1, c2 = controls
            ok = target >= 0 <= c1 != c2 != target != c1 and c2 >= 0
        else:
            raise ValueError("gates above two controls must be decomposed")
        if not ok:
            need = "nonnegative" if min((target, *controls)) < 0 else "distinct"
            raise ValueError(f"gate bits must be {need}: {cls.__name__}(target={target!r}, controls={controls!r})")
        return tuple.__new__(cls, (target, controls))

    target = property(itemgetter(0))
    controls = property(itemgetter(1))

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}(target={self.target!r}, controls={self.controls!r})"


class PhaseMark(Gate):
    """Z on one bit, recorded as a per-basis-state sign flip."""

    __slots__ = ()

    def __new__(cls, target: int, controls: tuple[int, ...] = ()):
        if controls:
            raise ValueError("phase marker takes no controls")
        return super().__new__(cls, target)


@dataclass(frozen=True)
class Register:
    name: str
    offset: int
    width: int
    role: str

    @property
    def bits(self) -> list[int]:
        return list(range(self.offset, self.offset + self.width))


SCRATCH_ROLES = ("ancilla", "constant")


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

    def inverse(self) -> "RevCircuit":
        return RevCircuit(dict(self.registers), list(reversed(self.gates)))

    def scratch_registers(self) -> list[Register]:
        return [r for r in self.registers.values() if r.role in SCRATCH_ROLES]

    def reg(self, name: str, width: int, role: str) -> Register:
        if width <= 0:
            raise ValueError(f"register '{name}' must have positive width")
        if name in self.registers:
            raise ValueError(f"duplicate register '{name}'")
        r = Register(name, self.num_bits, width, role)
        self.registers[name] = r
        self.num_bits += width
        return r

    def maybe_reg(self, name: str, width: int, role: str) -> list[int]:
        """Allocate only when width > 0; returns the (possibly empty) bit list."""
        if width == 0:
            return []
        return self.reg(name, width, role).bits

    def x(self, t: int):
        self.gates.append(Gate(t))

    def cx(self, c: int, t: int):
        self.gates.append(Gate(t, (c,)))

    def ccx(self, c1: int, c2: int, t: int):
        self.gates.append(Gate(t, (c1, c2)))

    def z(self, t: int):
        self.gates.append(PhaseMark(t))

    def mark(self) -> int:
        return len(self.gates)

    def repeat(self, lo: int, hi: int):
        """Append gates[lo:hi] again, in the same order, as the same gate objects."""
        self.gates.extend(self.gates[lo:hi])

    def uncompute_range(self, lo: int, hi: int):
        """Append the inverse of gates[lo:hi]: the same (self-inverse) gates, reversed."""
        block = self.gates[lo:hi]
        if PhaseMark in map(type, block):
            raise ValueError("phase markers are not part of uncomputation")
        self.gates.extend(reversed(block))


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
    for g in gates:
        _, c = g
        if len(c) == 2:
            tof += 1
        elif c:
            cnot += 1
        elif type(g) is not PhaseMark:
            nots += 1
    return GateCounts(toffoli=tof, cnot=cnot, nots=nots)


def circuit_depth(circuit: RevCircuit) -> int:
    """Dependency-chain depth of the whole circuit: gates sharing a bit run in order.

    Phase marks count toward the depth, though ``count_gates`` does not tally them.
    """
    depth_at = [0] * circuit.num_bits
    for t, c in circuit.gates:
        touched = (t, *c)
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
        planes = (v >> np.arange(reg.width)[:, None]) & 1
        packed = np.packbits(planes.astype(np.uint8), axis=1, bitorder="little")
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
    for g in circuit.gates:
        t, c = g
        if len(c) == 2:
            w[t] ^= w[c[0]] & w[c[1]]
        elif c:
            w[t] ^= w[c[0]]
        elif type(g) is PhaseMark:
            neg ^= w[t]
        else:
            w[t] ^= ones
    signs = 1 - 2 * _planes([neg], batch.size)[0].astype(np.int8)
    return Batch(batch.size, tuple(w)), signs


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


def _decrement(b: RevCircuit, bits: list[int], chain: list[int], ctrl: int):
    """-1 mod 2**w: conjugate an increment by NOT on every bit."""
    lo = b.mark()
    for bit in bits:
        b.x(bit)
    hi = b.mark()
    _increment(b, bits, chain, ctrl)
    b.repeat(lo, hi)


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


def _sub(b: RevCircuit, a: list[int], t: list[int], carry: int):
    """t -= a mod 2**w via t = ~(~t + a)."""
    lo = b.mark()
    for bit in t:
        b.x(bit)
    hi = b.mark()
    _add(b, a, t, carry)
    b.repeat(lo, hi)


def _add_const(b: RevCircuit, value: int, t: list[int], const: list[int], carry: int, subtract: bool = False):
    """t +/-= value using a temporarily loaded constant register."""
    lo = b.mark()
    _xor_const(b, const, value)
    hi = b.mark()
    (_sub if subtract else _add)(b, const, t, carry)
    b.repeat(lo, hi)


def _masked_copy(b: RevCircuit, ctrl: int, src: list[int], dst: list[int]):
    """dst ^= src AND ctrl, bitwise; tolerates ctrl being one of the src bits."""
    for s, d in zip(src, dst):
        if s == ctrl:
            b.cx(ctrl, d)
        else:
            b.ccx(ctrl, s, d)


def _square(b: RevCircuit, src: list[int], out: list[int], tmp: list[int], carry: int):
    """out += src**2 truncated to len(out) bits (schoolbook shift-and-add).

    Each partial product is masked into ``tmp`` and added into the full
    remaining window of ``out`` so carries propagate; ``tmp`` needs
    len(out) bits (its upper bits stay zero and act as the zero-extension).
    """
    w, p = len(src), len(out)
    for i in range(min(w, p)):
        window = p - i
        span = min(w, window)
        lo = b.mark()
        _masked_copy(b, src[i], src[:span], tmp[:span])
        hi = b.mark()
        _add(b, tmp[:window], out[i:], carry)
        b.repeat(lo, hi)


def _gt_const(b: RevCircuit, a: list[int], cutoff: int, out: int, eq: list[int]):
    """out ^= (a > cutoff) for a classical cutoff, scanning MSB to LSB.

    A prefix-equality ancilla chain tracks "all higher bits match"; the
    disjuncts [a_i AND NOT c_i AND equal-above-i] are mutually exclusive,
    so their OR is realized as XORs into ``out``. The chain is uncomputed.
    """
    w = len(a)
    if cutoff < 0:
        b.x(out)
        return
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
    """Offset position register width: ceil(log2(m + 2n)) + 1."""
    return (m + 2 * n - 1).bit_length() + 1


def max_offset_distance(m: int, n: int) -> int:
    """Largest squared goal distance reachable wall-blind: 2*(m-1+n)**2."""
    return 2 * (m - 1 + n) ** 2


def arith_width(m: int, n: int) -> int:
    """Shared width of the square, distance, and fitness registers.

    Chosen so the distance fits unsigned, the fitness fits two's complement
    over [C - d_max, C], and the sign-extended coordinate difference fits.
    """
    c = make_spec(m).offset
    d_max = max_offset_distance(m, n)
    w = 1
    while not (2**w > d_max and 2 ** (w - 1) > c and 2 ** (w - 1) >= d_max - c):
        w += 1
    return max(w, position_width(m, n))


# ---------------------------------------------------------------------------
# Standalone arithmetic builders


def build_adder(width: int, *, subtract: bool = False, constant: int | None = None) -> RevCircuit:
    """In-place adder: t +/-= a (or a classical constant), exact modulo 2**width.

    Registers: ``a`` (absent when adding a constant), ``t``, plus scratch.
    """
    if width < 1:
        raise ValueError("adder width must be >= 1")
    if constant is not None and not 0 <= constant < 2**width:
        raise ValueError("constant out of register range")
    b = RevCircuit()
    a_bits = b.reg("a", width, "operand").bits if constant is None else None
    t_bits = b.reg("t", width, "operand").bits
    carry = b.reg("carry", 1, "ancilla").bits[0]
    if constant is None:
        (_sub if subtract else _add)(b, a_bits, t_bits, carry)
    else:
        const_bits = b.reg("k", width, "constant").bits
        _add_const(b, constant, t_bits, const_bits, carry, subtract=subtract)
    return b


def build_squarer(width: int, out_width: int | None = None) -> RevCircuit:
    """Out-of-place squarer |a>|0> -> |a>|a**2 mod 2**out_width>; out_width defaults to 2*width.

    An output narrower than 2*width truncates, as the fitness circuit's
    squares do.
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
    _square(b, a, out, tmp, carry)
    return b


def build_gt_comparator(width: int, cutoff: int) -> RevCircuit:
    """Greater-than comparator against a classical cutoff: flag ^= (f > cutoff), strict.

    Uses the prefix-equality realization the oracle and validity circuits
    emit; its equality chain is uncomputed.
    """
    if width < 1:
        raise ValueError("comparator width must be >= 1")
    b = RevCircuit()
    f = b.reg("f", width, "fitness").bits
    flag = b.reg("flag", 1, "flag").bits[0]
    eq = b.maybe_reg("eq", width - 1, "ancilla")
    _gt_const(b, f, cutoff, flag, eq)
    return b


# ---------------------------------------------------------------------------
# Fitness, oracle, and validity circuits


def _emit_once(b: RevCircuit, blocks: dict, key, emit):
    """Append block ``key``: ``emit()``'s gates the first time, then those same gate objects.

    ``blocks`` maps a key to its first span and belongs to one build.
    """
    if key in blocks:
        b.repeat(*blocks[key])
    else:
        lo = b.mark()
        emit()
        blocks[key] = (lo, b.mark())


def _emit_walk_step(
    b: RevCircuit,
    path_bits: list[int],
    step: int,
    n: int,
    pos_i: list[int],
    pos_j: list[int],
    ctl: int,
    chain: list[int],
    blocks: dict,
):
    """Direction-controlled coordinate updates for one path step (1-based).

    A direction's two-bit code is its index in ``Direction``, codec's code
    order; its ``delta`` picks the coordinate register and the sign. Only
    the control toggle reads the step's path bits, so each direction's
    increment or decrement is the same block at every step, kept in ``blocks``.
    """
    hi = path_bits[2 * (n - step) + 1]
    lo = path_bits[2 * (n - step)]
    for code, d in enumerate(Direction):
        di, dj = d.delta
        reg_bits = pos_i if di else pos_j
        op = _increment if di + dj > 0 else _decrement
        toggle_lo = b.mark()
        conj = [bit for bit, want in ((hi, code >> 1), (lo, code & 1)) if want == 0]
        for bit in conj:
            b.x(bit)
        b.ccx(hi, lo, ctl)
        for bit in conj:
            b.x(bit)
        toggle_hi = b.mark()
        _emit_once(b, blocks, code, lambda: op(b, reg_bits, chain, ctl))
        b.repeat(toggle_lo, toggle_hi)


def build_fitness_circuit(maze: Maze, n: int) -> RevCircuit:
    """Reversible fitness evaluation: |x>|0...0> -> |x>|fitness(x)>.

    Simulates the path wall-blind on offset coordinates from ``maze.start``,
    squares the differences to ``maze.goal``, and writes C - distance into
    the fitness register in two's complement, C = make_spec(maze.size).offset;
    every other register is uncomputed to zero. The maze's walls are
    ignored. Spans ``walk`` and ``distance_fitness`` cover the forward walk
    and the goal difference through the fitness write.
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
    ext_i = b.maybe_reg("ext_i", wa - w_pos, "ancilla")
    ext_j = b.maybe_reg("ext_j", wa - w_pos, "ancilla")
    sq_i = b.reg("sq_i", wa, "ancilla").bits
    sq_j = b.reg("sq_j", wa, "ancilla").bits
    dist = b.reg("dist", wa, "distance").bits
    fit = b.reg("fit", wa, "fitness").bits
    kconst = b.reg("k", w_pos, "constant").bits
    ctl = b.reg("ctl", 1, "ancilla").bits[0]
    carry = b.reg("carry", 1, "ancilla").bits[0]
    chain = b.maybe_reg("chain", w_pos - 1, "ancilla")
    tmp = b.reg("tmp", wa, "ancilla").bits

    _xor_const(b, pos_i, start[0] + n)
    _xor_const(b, pos_j, start[1] + n)
    walk_lo = b.mark()
    blocks: dict = {}
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, ctl, chain, blocks)
    walk_hi = b.mark()
    _add_const(b, goal[0] + n, pos_i, kconst, carry, subtract=True)
    _add_const(b, goal[1] + n, pos_j, kconst, carry, subtract=True)
    for bit in ext_i:
        b.cx(pos_i[w_pos - 1], bit)
    for bit in ext_j:
        b.cx(pos_j[w_pos - 1], bit)
    _square(b, pos_i + ext_i, sq_i, tmp, carry)
    _square(b, pos_j + ext_j, sq_j, tmp, carry)
    _add(b, sq_i, dist, carry)
    _add(b, sq_j, dist, carry)
    compute_hi = b.mark()

    _xor_const(b, fit, make_spec(m).offset)
    _sub(b, dist, fit, carry)
    b.spans = {"walk": (walk_lo, walk_hi), "distance_fitness": (walk_hi, b.mark())}

    b.uncompute_range(0, compute_hi)
    return b


def build_oracle_circuit(fitness_circ: RevCircuit, cutoff: int) -> RevCircuit:
    """Phase oracle: |x> -> (-1)^[fitness(x) > cutoff] |x>, scratch restored.

    Built from an already built fitness circuit (from
    ``build_fitness_circuit``, which fixes the maze and n) as
    ``F W . C Z C^-1 . W^-1 F^-1``: the fitness circuit's own gates up to
    the end of its ``distance_fitness`` span (the forward walk and distance
    arithmetic F, then the fitness write W), the guarded comparator C and
    the phase mark Z, then the forward part mirrored. Wrapping the whole
    fitness circuit ``F W F^-1`` instead gives the same unitary with twice
    the gates: ``C Z C^-1`` touches only ``fit``, ``flag``, ``gsc`` and
    ``eq``, which F never touches, so the ``F^-1 . C Z C^-1 . F`` at its
    middle cancels to ``C Z C^-1``. ``fitness_circ`` itself is left
    unchanged and its spans carry over.

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
    gsc = b.reg("gsc", 1, "ancilla").bits[0]
    eq = b.maybe_reg("eq", wa - 1, "ancilla")
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
    vchain = b.reg("vchain", n, "ancilla").bits
    inb_i = b.reg("inb_i", 1, "ancilla").bits[0]
    inb_j = b.reg("inb_j", 1, "ancilla").bits[0]
    phi = b.reg("phi", 1, "ancilla").bits[0]
    eq = b.maybe_reg("eq", w_pos - 1, "ancilla")
    ctl = b.reg("ctl", 1, "ancilla").bits[0]
    chain = b.maybe_reg("chain", w_pos - 1, "ancilla")

    def bound_check():
        _gt_const(b, pos_i, m - 1, inb_i, eq)
        _gt_const(b, pos_j, m - 1, inb_j, eq)
        b.x(inb_i)
        b.x(inb_j)
        b.ccx(inb_i, inb_j, phi)

    _xor_const(b, pos_i, start[0])
    _xor_const(b, pos_j, start[1])
    blocks: dict = {}
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, ctl, chain, blocks)
        cmp_lo = b.mark()
        _emit_once(b, blocks, "bounds", bound_check)
        cmp_hi = b.mark()
        if step == 1:
            b.cx(phi, vchain[0])
        else:
            b.ccx(vchain[step - 2], phi, vchain[step - 1])
        b.uncompute_range(cmp_lo, cmp_hi)
    compute_hi = b.mark()
    b.cx(vchain[n - 1], vout)
    b.uncompute_range(0, compute_hi)
    return b
