"""Reversible-circuit layer: fitness evaluation, comparators, oracle, validity.

Circuits are ordered lists of NOT/CNOT/Toffoli gates over named bit
registers, plus single-bit Z phase markers. Every gate is self-inverse, so
a circuit's inverse is its reversed gate list. Executing a circuit on a
classical basis state is exact: bits map to bits bijectively and the only
quantum effect, the phase marker, is tracked as a +/-1 sign per state.
Execution is bitsliced: a ``Batch`` of basis states is one integer per
wire with one bit per basis row, so each gate is a single integer
XOR/AND over the whole batch. A batch keeps that form from ``pack_rows``
through ``run_batch`` to ``unpack_column``, which decodes one register.

Scratch registers follow compute-use-uncompute discipline (Bennett
cleanup): on any input whose scratch starts at zero, it ends at zero.
Uncomputation appends the same gate objects in reverse order, and the
oracle wraps an already built fitness circuit rather than building its
own. Stages are named by spans of the gate list, not per gate: the
fitness circuit marks ``walk`` and ``distance_fitness`` (goal difference
through the fitness write), and ``count_gates`` tallies one span.

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

import numpy as np

from .fitness import FitnessSpec, Formula

# ---------------------------------------------------------------------------
# Gate and circuit data model


@dataclass(frozen=True)
class Gate:
    """X-family gate: 0 controls = NOT, 1 = CNOT, 2 = Toffoli."""

    target: int
    controls: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.controls) > 2:
            raise ValueError("gates above two controls must be decomposed")
        if self.target in self.controls or len(set(self.controls)) != len(self.controls):
            raise ValueError(f"gate bits must be distinct: {self}")


@dataclass(frozen=True)
class PhaseMark(Gate):
    """Z on one bit, recorded as a per-basis-state sign flip."""

    def __post_init__(self):
        if self.controls:
            raise ValueError("phase marker takes no controls")


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
    """An executable reversible circuit; ``spans`` maps a stage label to its slice (lo, hi) of gates."""

    def __init__(self, registers: dict[str, Register], gates: list[Gate], spans: dict | None = None):
        self.registers = registers
        self.gates = gates
        self.spans = {} if spans is None else spans
        self.num_bits = sum(r.width for r in registers.values())

    def bits(self, name: str) -> list[int]:
        return self.registers[name].bits

    def zero_assignment(self) -> dict[str, int]:
        return {name: 0 for name in self.registers}

    def inverse(self) -> "RevCircuit":
        return RevCircuit(self.registers, list(reversed(self.gates)))

    def scratch_registers(self) -> list[Register]:
        return [r for r in self.registers.values() if r.role in SCRATCH_ROLES]


@dataclass(frozen=True)
class GateCounts:
    """Exact gate tallies plus dependency-chain depth and scratch width."""

    toffoli: int = 0
    cnot: int = 0
    nots: int = 0
    phase: int = 0
    depth: int = 0
    ancilla: int = 0


def count_gates(circuit: RevCircuit, stage: str | None = None) -> GateCounts:
    """Tally a circuit's gates, optionally restricted to one labelled span."""
    gates = circuit.gates
    if stage is not None:
        if stage not in circuit.spans:
            raise ValueError(f"no stage '{stage}' in this circuit; its stages are {sorted(circuit.spans)}")
        lo, hi = circuit.spans[stage]
        gates = gates[lo:hi]
    tof = cnot = nots = phase = 0
    depth_at = [0] * circuit.num_bits
    depth = 0
    for g in gates:
        if isinstance(g, PhaseMark):
            phase += 1
        elif len(g.controls) == 2:
            tof += 1
        elif len(g.controls) == 1:
            cnot += 1
        else:
            nots += 1
        touched = (g.target, *g.controls)
        d = 1 + max(depth_at[b] for b in touched)
        for b in touched:
            depth_at[b] = d
        depth = max(depth, d)
    ancilla = sum(r.width for r in circuit.scratch_registers())
    return GateCounts(toffoli=tof, cnot=cnot, nots=nots, phase=phase, depth=depth, ancilla=ancilla)


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
    """Bitsliced batch from per-register values (scalar or array); absent registers are zero."""
    unknown = set(values) - set(circuit.registers)
    if unknown:
        raise ValueError(f"no register {sorted(unknown)} in this circuit")
    ones = (1 << batch) - 1
    wires = []
    for name, reg in circuit.registers.items():
        v = values.get(name, 0)
        if np.ndim(v) == 0:
            out_of_range = not 0 <= v < 1 << reg.width
            wires.extend(ones if int(v) >> k & 1 else 0 for k in range(reg.width))
        else:
            v = np.broadcast_to(np.asarray(v, dtype=np.int64), (batch,))
            out_of_range = bool(((v < 0) | (v >> reg.width != 0)).any())
            planes = (v >> np.arange(reg.width)[:, None]) & 1
            packed = np.packbits(planes.astype(np.uint8), axis=1, bitorder="little")
            wires.extend(int.from_bytes(p.tobytes(), "little") for p in packed)
        if out_of_range:
            raise ValueError(f"value out of range for {reg.width}-bit register '{name}'")
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
        c = g.controls
        if len(c) == 2:
            w[g.target] ^= w[c[0]] & w[c[1]]
        elif c:
            w[g.target] ^= w[c[0]]
        elif isinstance(g, PhaseMark):
            neg ^= w[g.target]
        else:
            w[g.target] ^= ones
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
# Builder and arithmetic primitives


class _Builder:
    def __init__(self):
        self.registers: dict[str, Register] = {}
        self.gates: list[Gate] = []
        self.spans: dict[str, tuple[int, int]] = {}
        self._offset = 0

    @classmethod
    def from_circuit(cls, circuit: RevCircuit) -> "_Builder":
        b = cls()
        b.registers = dict(circuit.registers)
        b.gates = list(circuit.gates)
        b.spans = dict(circuit.spans)
        b._offset = circuit.num_bits
        return b

    def reg(self, name: str, width: int, role: str) -> Register:
        if width <= 0:
            raise ValueError(f"register '{name}' must have positive width")
        if name in self.registers:
            raise ValueError(f"duplicate register '{name}'")
        r = Register(name, self._offset, width, role)
        self.registers[name] = r
        self._offset += width
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

    def uncompute_range(self, lo: int, hi: int):
        """Append the inverse of gates[lo:hi]: the same (self-inverse) gates, reversed."""
        block = self.gates[lo:hi]
        if any(isinstance(g, PhaseMark) for g in block):
            raise ValueError("phase markers are not part of uncomputation")
        self.gates.extend(reversed(block))

    def build(self) -> RevCircuit:
        return RevCircuit(self.registers, self.gates, self.spans)


def _xor_const(b: _Builder, bits: list[int], value: int):
    for k, bit in enumerate(bits):
        if (value >> k) & 1:
            b.x(bit)


def _increment(b: _Builder, bits: list[int], chain: list[int], ctrl: int):
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


def _decrement(b: _Builder, bits: list[int], chain: list[int], ctrl: int):
    """-1 mod 2**w: conjugate an increment by NOT on every bit."""
    for bit in bits:
        b.x(bit)
    _increment(b, bits, chain, ctrl)
    for bit in bits:
        b.x(bit)


def _add(b: _Builder, a: list[int], t: list[int], carry: int):
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


def _sub(b: _Builder, a: list[int], t: list[int], carry: int):
    """t -= a mod 2**w via t = ~(~t + a)."""
    for bit in t:
        b.x(bit)
    _add(b, a, t, carry)
    for bit in t:
        b.x(bit)


def _add_const(b: _Builder, value: int, t: list[int], const: list[int], carry: int, subtract: bool = False):
    """t +/-= value using a temporarily loaded constant register."""
    _xor_const(b, const, value)
    (_sub if subtract else _add)(b, const, t, carry)
    _xor_const(b, const, value)


def _masked_copy(b: _Builder, ctrl: int, src: list[int], dst: list[int]):
    """dst ^= src AND ctrl, bitwise; tolerates ctrl being one of the src bits."""
    for s, d in zip(src, dst):
        if s == ctrl:
            b.cx(ctrl, d)
        else:
            b.ccx(ctrl, s, d)


def _square(b: _Builder, src: list[int], out: list[int], tmp: list[int], carry: int):
    """out += src**2 truncated to len(out) bits (schoolbook shift-and-add).

    Each partial product is masked into ``tmp`` and added into the full
    remaining window of ``out`` so carries propagate; ``tmp`` needs
    len(out) bits (its upper bits stay zero and act as the zero-extension).
    """
    w, p = len(src), len(out)
    for i in range(min(w, p)):
        window = p - i
        span = min(w, window)
        _masked_copy(b, src[i], src[:span], tmp[:span])
        _add(b, tmp[:window], out[i:], carry)
        _masked_copy(b, src[i], src[:span], tmp[:span])


def _gt_const(b: _Builder, a: list[int], cutoff: int, out: int, eq: list[int]):
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


def arith_width(m: int, n: int, spec: FitnessSpec) -> int:
    """Shared width of the square, distance, and fitness registers.

    Chosen so the distance fits unsigned, the fitness fits two's complement
    over [C - d_max, C], and the sign-extended coordinate difference fits.
    """
    c = spec.offset
    d_max = max_offset_distance(m, n)
    w = 1
    while not (2**w > d_max and 2 ** (w - 1) > c and 2 ** (w - 1) >= d_max - c):
        w += 1
    return max(w, position_width(m, n))


def signed_register_value(value: int, width: int) -> int:
    """Interpret a register's integer content as two's complement."""
    return value - (1 << width) if (value >> (width - 1)) & 1 else value


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
    b = _Builder()
    a_bits = b.reg("a", width, "operand").bits if constant is None else None
    t_bits = b.reg("t", width, "operand").bits
    carry = b.reg("carry", 1, "ancilla").bits[0]
    if constant is None:
        (_sub if subtract else _add)(b, a_bits, t_bits, carry)
    else:
        const_bits = b.reg("k", width, "constant").bits
        _add_const(b, constant, t_bits, const_bits, carry, subtract=subtract)
    return b.build()


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
    b = _Builder()
    a = b.reg("a", width, "operand").bits
    out = b.reg("sq", out_width, "operand").bits
    tmp = b.reg("tmp", out_width, "ancilla").bits
    carry = b.reg("carry", 1, "ancilla").bits[0]
    _square(b, a, out, tmp, carry)
    return b.build()


def build_gt_comparator(width: int, cutoff: int) -> RevCircuit:
    """Greater-than comparator against a classical cutoff: flag ^= (f > cutoff), strict.

    Uses the prefix-equality realization the oracle and validity circuits
    emit; its equality chain is uncomputed.
    """
    if width < 1:
        raise ValueError("comparator width must be >= 1")
    b = _Builder()
    f = b.reg("f", width, "fitness").bits
    flag = b.reg("flag", 1, "flag").bits[0]
    eq = b.maybe_reg("eq", width - 1, "ancilla")
    _gt_const(b, f, cutoff, flag, eq)
    return b.build()


# ---------------------------------------------------------------------------
# Fitness, oracle, and validity circuits


def _emit_walk_step(
    b: _Builder,
    path_bits: list[int],
    step: int,
    n: int,
    pos_i: list[int],
    pos_j: list[int],
    ctl: int,
    chain: list[int],
):
    """Direction-controlled coordinate updates for one path step (1-based)."""
    hi = path_bits[2 * (n - step) + 1]
    lo = path_bits[2 * (n - step)]
    cases = [
        (0b00, pos_i, _decrement),  # N
        (0b01, pos_j, _increment),  # E
        (0b10, pos_i, _increment),  # S
        (0b11, pos_j, _decrement),  # W
    ]
    for code, reg_bits, op in cases:
        conj = [bit for bit, want in ((hi, code >> 1), (lo, code & 1)) if want == 0]

        def control_toggle():
            for bit in conj:
                b.x(bit)
            b.ccx(hi, lo, ctl)
            for bit in conj:
                b.x(bit)

        control_toggle()
        op(b, reg_bits, chain, ctl)
        control_toggle()


def build_fitness_circuit(m: int, n: int, spec: FitnessSpec, start=None, goal=None) -> RevCircuit:
    """Reversible fitness evaluation: |x>|0...0> -> |x>|fitness(x)>.

    Simulates the path wall-blind on offset coordinates, squares the goal
    differences, and writes C - distance into the fitness register in two's
    complement; every other register is uncomputed to zero. ``start`` and
    ``goal`` default to (0, 0) and (m-1, m-1). Spans ``walk`` and
    ``distance_fitness`` cover the forward walk and the goal difference
    through the fitness write.
    """
    if spec.formula is not Formula.MAIN:
        raise ValueError("gate-level fitness requires the power-of-two formula")
    if n < 1:
        raise ValueError("circuit path length must be >= 1")
    if m < 2:
        raise ValueError("maze size must be >= 2")
    start = (0, 0) if start is None else tuple(start)
    goal = (m - 1, m - 1) if goal is None else tuple(goal)
    w_pos = position_width(m, n)
    wa = arith_width(m, n, spec)

    b = _Builder()
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
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, ctl, chain)
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

    _xor_const(b, fit, spec.offset)
    _sub(b, dist, fit, carry)
    b.spans = {"walk": (walk_lo, walk_hi), "distance_fitness": (walk_hi, b.mark())}

    b.uncompute_range(0, compute_hi)
    return b.build()


def build_oracle_circuit(fitness_circ: RevCircuit, cutoff: int) -> RevCircuit:
    """Phase oracle: |x> -> (-1)^[fitness(x) > cutoff] |x>, scratch restored.

    Wraps an already built fitness circuit (from ``build_fitness_circuit``,
    which fixes m, n, start and goal) in a compute / flag / phase /
    uncompute sandwich; ``fitness_circ`` itself is left unchanged and its
    spans carry over. The comparator result is ANDed with NOT(sign bit) so
    paths whose wall-blind fitness went negative are never marked; the sign
    then agrees with the classical reference for every basis state and any
    cutoff >= 0.
    """
    fit = fitness_circ.registers["fit"].bits
    wa = len(fit)
    if not 0 <= cutoff < 2 ** (wa - 1):
        raise ValueError(f"cutoff must lie in [0, {2 ** (wa - 1)}) for width {wa}")

    b = _Builder.from_circuit(fitness_circ)
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
    b.uncompute_range(0, len(fitness_circ.gates))
    return b.build()


def build_validity_circuit(m: int, n: int, start=None) -> RevCircuit:
    """Bounds validity flag: |x>|0> -> |x>|valid(x)>, valid = 1 iff every
    intermediate position stays inside the grid (walls ignored).

    Positions are plain coordinates mod 2**w, w = position_width(m, n). Those
    reachable in n moves lie in [-n, m-1+n] and 2**w > m + n - 1, so their
    residues are distinct and every negative one lands above m - 1: one
    unsigned comparator per coordinate, pos > m - 1, checks both edges. Each
    step ANDs its two inverted flags onto a Toffoli chain over steps; the
    result is copied out and the whole computation is reversed.
    """
    if n < 1:
        raise ValueError("circuit path length must be >= 1")
    if m < 2:
        raise ValueError("maze size must be >= 2")
    start = (0, 0) if start is None else tuple(start)
    w_pos = position_width(m, n)

    b = _Builder()
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

    _xor_const(b, pos_i, start[0])
    _xor_const(b, pos_j, start[1])
    for step in range(1, n + 1):
        _emit_walk_step(b, path, step, n, pos_i, pos_j, ctl, chain)
        cmp_lo = b.mark()
        _gt_const(b, pos_i, m - 1, inb_i, eq)
        _gt_const(b, pos_j, m - 1, inb_j, eq)
        b.x(inb_i)
        b.x(inb_j)
        b.ccx(inb_i, inb_j, phi)
        cmp_hi = b.mark()
        if step == 1:
            b.cx(phi, vchain[0])
        else:
            b.ccx(vchain[step - 2], phi, vchain[step - 1])
        b.uncompute_range(cmp_lo, cmp_hi)
    compute_hi = b.mark()
    b.cx(vchain[n - 1], vout)
    b.uncompute_range(0, compute_hi)
    return b.build()
