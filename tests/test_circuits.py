"""Gate-level constructions vs integer arithmetic and the classical reference.

Oracles here are deliberately primitive: Python +, *, >, and the fitness
reference module. Exhaustive sweeps run as vectorized batches over every
basis input at small widths.
"""

from __future__ import annotations

import hashlib
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze import codec, verify
from qmaze.adaptive import Strictness, marked_for_cutoff
from qmaze.circuits import (
    Batch,
    Gate,
    PhaseMark,
    Register,
    RevCircuit,
    _gt_const,
    arith_width,
    build_adder,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_squarer,
    build_validity_circuit,
    circuit_depth,
    count_gates,
    pack_rows,
    position_width,
    run_batch,
    run_on_basis,
    unpack_column,
)
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import SimMode, generate_maze, path_end_values, simulate_path


def signed_register_value(value: int, width: int) -> int:
    """Interpret a register's integer content as two's complement."""
    return value - (1 << width) if (value >> (width - 1)) & 1 else value


def sweep(circuit: RevCircuit, values: dict) -> tuple[np.ndarray, np.ndarray]:
    batch = max(np.asarray(v).size for v in values.values())
    rows = pack_rows(circuit, values, batch)
    return run_batch(circuit, rows)


def scratch_clean(circuit: RevCircuit, rows: np.ndarray) -> bool:
    return all(
        np.all(unpack_column(circuit, rows, reg.name) == 0)
        for reg in circuit.scratch_registers()
    )


# ---------------------------------------------------------------------------
# Executor basics


def test_identity_circuit():
    circ = RevCircuit({}, [])
    out, sign = run_on_basis(circ, {})
    assert out == {} and sign == 1


def test_single_not():
    circ = RevCircuit({"b": Register("b", 0, 1, "operand")}, [Gate(0)])
    out, sign = run_on_basis(circ, {"b": 0})
    assert out == {"b": 1} and sign == 1


def test_run_on_basis_rejects_bad_assignment():
    circ = build_adder(2)
    with pytest.raises(ValueError, match="missing"):
        run_on_basis(circ, {"a": 1})
    good = dict.fromkeys(circ.registers, 0)
    good["a"] = 4  # width 2 holds 0..3
    with pytest.raises(ValueError, match="range"):
        run_on_basis(circ, good)


def test_gate_rejects_duplicate_bits():
    with pytest.raises(ValueError):
        Gate(0, (0,))
    with pytest.raises(ValueError):
        Gate(2, (1, 1))
    # A negative bit would index wires from the end: run_batch's w[-1] is the last wire.
    for target, controls in ((-1, ()), (-1, (0,)), (0, (-1,)), (1, (0, -2))):
        with pytest.raises(ValueError, match="nonnegative"):
            Gate(target, controls)
    with pytest.raises(ValueError, match="nonnegative"):
        PhaseMark(-1)


def test_gates_are_immutable_values_of_their_own_type():
    assert isinstance(PhaseMark(3), Gate)
    assert Gate(3) != PhaseMark(3) and PhaseMark(3) != Gate(3)
    assert Gate(3) != (3, ()) and (3, ()) != Gate(3)
    assert Gate(1, (2,)) == Gate(1, (2,)) and hash(Gate(1, (2,))) == hash(Gate(1, (2,)))
    assert len({Gate(1, (2,)), Gate(1, (2,)), Gate(2, (1,))}) == 2
    g = Gate(1, (2, 0))
    assert (g.target, g.controls) == (1, (2, 0))
    for name in ("target", "controls", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 5)
    assert repr(g) == "Gate(target=1, controls=(2, 0))"
    assert repr(PhaseMark(4)) == "PhaseMark(target=4, controls=())"
    assert pickle.loads(pickle.dumps(PhaseMark(4))) == PhaseMark(4)
    with pytest.raises(ValueError, match="no controls"):
        PhaseMark(0, (1,))
    with pytest.raises(ValueError, match="decomposed"):
        Gate(0, (1, 2, 3))


def test_pack_rows_rejects_unknown_register():
    circ = build_adder(2)
    with pytest.raises(ValueError, match="nope"):
        pack_rows(circ, {"nope": 7, "a": 1}, 2)


def test_pack_rows_gives_one_wire_per_register_bit():
    circ = build_adder(3)
    a = np.random.default_rng(3).integers(0, 8, size=70)
    batch = pack_rows(circ, {"a": a, "t": 5}, 70)
    assert batch.size == 70 and len(batch.wires) == circ.num_bits
    for k, wire in enumerate(batch.wires[circ.registers["a"].offset :][:3]):
        assert wire == sum(int(v >> k & 1) << i for i, v in enumerate(a))
    ones = (1 << 70) - 1
    assert batch.wires[circ.registers["t"].offset :][:3] == (ones, 0, ones)
    assert np.array_equal(unpack_column(circ, batch, "a"), a)
    assert np.array_equal(unpack_column(circ, batch, "t"), np.full(70, 5))
    assert np.array_equal(unpack_column(circ, batch, "carry"), np.zeros(70))


@pytest.mark.parametrize("value", [-1, 8, np.int64(-1), np.int64(8)])
@pytest.mark.parametrize("batch", [1, 2])
def test_pack_rows_rejects_a_value_out_of_range(value, batch):
    circ = build_adder(3)  # a scalar is broadcast, then checked against 0 <= v < 2**3
    with pytest.raises(ValueError, match="out of range for 3-bit register 'a'"):
        pack_rows(circ, {"a": value}, batch)


def run_rows_reference(circuit: RevCircuit, rows: list[list[int]]) -> tuple[list, list]:
    """Per-row scalar interpreter: a list of ints per row, gate by gate."""
    bits, signs = [], []
    for row in map(list, rows):
        sign = 1
        for g in circuit.gates:
            if isinstance(g, PhaseMark):
                sign = -sign if row[g.target] else sign
            elif all(row[c] for c in g.controls):
                row[g.target] ^= 1
        bits.append(row)
        signs.append(sign)
    return bits, signs


@st.composite
def random_circuits(draw):
    """A register of 0-8 wires and up to 40 random NOT/CNOT/Toffoli/Z gates."""
    width = draw(st.integers(0, 8))
    gates = []
    for _ in range(draw(st.integers(0, 40)) if width else 0):
        wires = draw(st.permutations(range(width)))
        controls = tuple(wires[1 : 1 + draw(st.integers(0, min(2, width - 1)))])
        phase = not controls and draw(st.booleans())
        gates.append((PhaseMark if phase else Gate)(wires[0], controls))
    registers = {"w": Register("w", 0, width, "operand")} if width else {}
    return RevCircuit(registers, gates)


def sliced(rows: list[list[int]], width: int) -> tuple[int, ...]:
    """Wire b of a bitsliced batch: bit i is rows[i][b]."""
    return tuple(sum(row[b] << i for i, row in enumerate(rows)) for b in range(width))


@pytest.mark.parametrize("batch", [0, 1, 7, 8, 9, 63, 64, 65, 300])
@settings(max_examples=25, deadline=None)
@given(circ=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_run_batch_matches_per_row_reference(batch, circ, seed):
    rows = np.random.default_rng(seed).integers(0, 2, size=(batch, circ.num_bits)).tolist()
    inputs = Batch(batch, sliced(rows, circ.num_bits))
    out, signs = run_batch(circ, inputs)
    want_rows, want_signs = run_rows_reference(circ, rows)
    assert isinstance(out, Batch) and out.size == batch
    assert out.wires == sliced(want_rows, circ.num_bits)
    assert signs.dtype == np.int8 and signs.shape == (batch,)
    assert signs.tolist() == want_signs


# ---------------------------------------------------------------------------
# Adders


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("subtract", [False, True])
def test_adder_exhaustive(width, subtract):
    span = 1 << width
    circ = build_adder(width, subtract=subtract)
    a = np.repeat(np.arange(span), span)
    t = np.tile(np.arange(span), span)
    out, _ = sweep(circ, {"a": a, "t": t})
    want = (t - a) % span if subtract else (t + a) % span
    assert np.array_equal(unpack_column(circ, out, "t"), want)
    assert np.array_equal(unpack_column(circ, out, "a"), a)
    assert scratch_clean(circ, out)


def test_adder_3bit_example():
    circ = build_adder(3)
    assign = dict.fromkeys(circ.registers, 0) | {"a": 0b001, "t": 0b011}
    out, _ = run_on_basis(circ, assign)
    assert out["t"] == 0b100


@pytest.mark.parametrize("width", [2, 3, 4])
def test_subtract_then_add_is_identity(width):
    span = 1 << width
    sub = build_adder(width, subtract=True)
    add = build_adder(width, subtract=False)
    both = RevCircuit(sub.registers, sub.gates + add.gates)
    a = np.repeat(np.arange(span), span)
    t = np.tile(np.arange(span), span)
    inputs = pack_rows(both, {"a": a, "t": t}, span * span)
    out, _ = run_batch(both, inputs)
    assert out == inputs


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("subtract", [False, True])
def test_constant_adder_exhaustive(width, subtract):
    span = 1 << width
    t = np.arange(span)
    for constant in range(span):
        circ = build_adder(width, subtract=subtract, constant=constant)
        out, _ = sweep(circ, {"t": t})
        want = (t - constant) % span if subtract else (t + constant) % span
        assert np.array_equal(unpack_column(circ, out, "t"), want), constant
        assert scratch_clean(circ, out)


def test_adder_rejects_bad_args():
    with pytest.raises(ValueError):
        build_adder(0)
    with pytest.raises(ValueError):
        build_adder(3, constant=8)


# ---------------------------------------------------------------------------
# Squarer


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_squarer_exhaustive(width):
    circ = build_squarer(width)
    out, _ = sweep(circ, {"a": np.arange(1 << width)})
    got = unpack_column(circ, out, "sq")
    assert np.array_equal(got, np.arange(1 << width) ** 2)
    assert np.array_equal(unpack_column(circ, out, "a"), np.arange(1 << width))
    assert scratch_clean(circ, out)


def test_squarer_small_values():
    circ = build_squarer(2)
    assert run_on_basis(circ, dict.fromkeys(circ.registers, 0))[0]["sq"] == 0
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"a": 3})
    assert out["sq"] == 9


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_truncating_squarer_exhaustive(width):
    a = np.arange(1 << width)
    for out_width in range(1, 2 * width + 1):
        circ = build_squarer(width, out_width)
        out, _ = sweep(circ, {"a": a})
        assert np.array_equal(unpack_column(circ, out, "sq"), a * a % 2**out_width), out_width
        assert np.array_equal(unpack_column(circ, out, "a"), a)
        assert scratch_clean(circ, out)


def test_squarer_rejects_narrow_output():
    with pytest.raises(ValueError, match="output"):
        build_squarer(3, out_width=0)


# ---------------------------------------------------------------------------
# Comparator


def test_comparator_pinned_pair():
    circ = build_gt_comparator(4, 9)
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"f": 0b1011})
    assert out["flag"] == 1  # 11 > 9
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"f": 0b0101})
    assert out["flag"] == 0  # 5 < 9


@pytest.mark.parametrize("width", range(1, 7))
def test_comparator_exhaustive_constant(width):
    span = 1 << width
    for cutoff in range(span):
        circ = build_gt_comparator(width, cutoff)
        out, _ = sweep(circ, {"f": np.arange(span)})
        got = unpack_column(circ, out, "flag")
        assert np.array_equal(got, (np.arange(span) > cutoff).astype(int)), cutoff
        assert scratch_clean(circ, out)


def test_comparator_toffoli_linear_in_width():
    counts = [
        count_gates(build_gt_comparator(w, 2 ** (w - 1) + 1)).toffoli for w in range(2, 9)
    ]
    diffs = np.diff(counts)
    assert np.all(diffs == diffs[0])  # exactly linear for the fixed cutoff shape
    worst = [
        max(count_gates(build_gt_comparator(w, c)).toffoli for c in range(1 << w))
        for w in range(2, 7)
    ]
    assert all(t <= 3 * w for w, t in zip(range(2, 7), worst))


# ---------------------------------------------------------------------------
# Fitness circuit


def test_fitness_circuit_worked_example():
    circ = build_fitness_circuit(generate_maze(2, seed=0), 2)
    out, sign = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"path": 0b1001})
    assert out["fit"] == 0b100
    assert sign == 1
    assert all(out[reg.name] == 0 for reg in circ.scratch_registers())


def test_fitness_circuit_wall_blind_example():
    # (E,E) from (0,0): ends (0,2), distance to (1,1) is 2, fitness 2.
    circ = build_fitness_circuit(generate_maze(2, seed=0), 2)
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"path": 0b0101})
    assert out["fit"] == 2


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fitness_circuit_matches_reference(m, n):
    spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    maze = generate_maze(m, seed=0)
    scape = landscape(maze, n, spec)
    circ = build_fitness_circuit(maze, n)
    wa = arith_width(m, n)
    out, _ = sweep(circ, {"path": np.arange(4**n)})
    got = unpack_column(circ, out, "fit")
    assert np.array_equal(got, scape.values % (1 << wa))
    signed = np.array([signed_register_value(int(v), wa) for v in got])
    assert np.array_equal(signed, scape.values)  # width covers the whole range
    assert scratch_clean(circ, out)


def test_fitness_circuit_custom_start_goal():
    spec = make_spec(3, Formula.MAIN, SimMode.WALL_BLIND)
    maze = generate_maze(3, seed=1, start=(2, 0), goal=(0, 2))
    scape = landscape(maze, 2, spec)
    circ = build_fitness_circuit(maze, 2)
    wa = arith_width(3, 2)
    out, _ = sweep(circ, {"path": np.arange(16)})
    assert np.array_equal(unpack_column(circ, out, "fit"), scape.values % (1 << wa))


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_worked_example_sign():
    circ = build_oracle_circuit(build_fitness_circuit(generate_maze(2, seed=0), 2), cutoff=2)
    out, sign = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"path": 0b1001})
    assert sign == -1  # fitness 4 > 2 flips the phase
    assert out["path"] == 0b1001
    assert all(out[name] == 0 for name in circ.registers if name != "path")


def test_oracle_max_cutoff_marks_nothing():
    circ = build_oracle_circuit(build_fitness_circuit(generate_maze(2, seed=0), 2), cutoff=make_spec(2).offset)
    _, signs = sweep(circ, {"path": np.arange(16)})
    assert np.all(signs == 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_sign_matches_landscape(m, n):
    spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    maze = generate_maze(m, seed=0)
    scape = landscape(maze, n, spec)
    fitness_circ = build_fitness_circuit(maze, n)
    for cutoff in (0, 1, spec.offset // 2, spec.offset - 1):
        circ = build_oracle_circuit(fitness_circ, cutoff)
        out, signs = sweep(circ, {"path": np.arange(4**n)})
        marked = set(marked_for_cutoff(scape, cutoff, Strictness.STRICT).tolist())
        want = np.array([-1 if u in marked else 1 for u in range(4**n)])
        assert np.array_equal(signs, want), (m, n, cutoff)
        assert scratch_clean(circ, out)


def test_oracle_self_inverse():
    circ = build_oracle_circuit(build_fitness_circuit(generate_maze(3, seed=0), 2), cutoff=3)
    doubled = RevCircuit(circ.registers, circ.gates + circ.gates)
    inputs = pack_rows(doubled, {"path": np.arange(16)}, 16)
    out, signs = run_batch(doubled, inputs)
    assert out == inputs
    assert np.all(signs == 1)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3)])
def test_oracles_share_one_fitness_circuit(m, n):
    fitness_circ = build_fitness_circuit(generate_maze(m, seed=0), n)
    gates, spans = list(fitness_circ.gates), dict(fitness_circ.spans)
    registers, num_bits = dict(fitness_circ.registers), fitness_circ.num_bits
    assert set(spans) == {"walk", "distance_fitness"}
    hi = spans["distance_fitness"][1]
    forward = gates[:hi]
    for cutoff in verify._oracle_cutoffs(m):
        oracle = build_oracle_circuit(fitness_circ, cutoff)
        assert len(oracle.gates) > 2 * hi
        assert all(a is b for a, b in zip(oracle.gates[:hi], forward, strict=True))
        assert all(a is b for a, b in zip(oracle.gates[-hi:], reversed(forward), strict=True))
        for stage in spans:
            assert count_gates(oracle, stage) == count_gates(fitness_circ, stage)
    assert len(fitness_circ.gates) == len(gates)
    assert all(a is b for a, b in zip(fitness_circ.gates, gates))
    assert fitness_circ.spans == spans
    assert fitness_circ.registers == registers
    assert fitness_circ.num_bits == num_bits


def sandwich_oracle(fitness_circ: RevCircuit, cutoff: int) -> RevCircuit:
    """Reference oracle: the whole fitness circuit F W F^-1, the guarded
    comparator and phase mark, then all of it reversed (four copies of F)."""
    fit = fitness_circ.registers["fit"].bits
    b = RevCircuit(dict(fitness_circ.registers), list(fitness_circ.gates), dict(fitness_circ.spans))
    flag = b.reg("flag", 1, "flag").bits[0]
    gsc = b.reg("gsc", 1, "ancilla").bits[0]
    eq = b.maybe_reg("eq", len(fit) - 1, "ancilla")
    lo = b.mark()
    _gt_const(b, fit, cutoff, gsc, eq)
    b.x(fit[-1])
    b.ccx(gsc, fit[-1], flag)
    b.x(fit[-1])
    hi = b.mark()
    b.z(flag)
    b.uncompute_range(lo, hi)
    b.uncompute_range(0, len(fitness_circ.gates))
    return b


def assert_oracle_matches_sandwich(fitness_circ: RevCircuit, cutoff: int, n: int):
    oracle = build_oracle_circuit(fitness_circ, cutoff)
    reference = sandwich_oracle(fitness_circ, cutoff)
    assert oracle.registers == reference.registers
    hi = fitness_circ.spans["distance_fitness"][1]
    assert len(oracle.gates) == len(reference.gates) - 2 * (len(fitness_circ.gates) - hi)
    rows = pack_rows(oracle, {"path": np.arange(4**n)}, 4**n)
    out, signs = run_batch(oracle, rows)
    want, want_signs = run_batch(reference, rows)
    assert out == want == rows
    assert np.array_equal(signs, want_signs)


@pytest.mark.parametrize("m", range(2, 7))
def test_oracle_matches_the_four_copy_sandwich(m):
    for n in range(1, 5):
        fitness_circ = build_fitness_circuit(generate_maze(m, seed=0), n)
        for cutoff in verify._oracle_cutoffs(m):
            assert_oracle_matches_sandwich(fitness_circ, cutoff, n)


def test_solver_scale_oracle_gate_count():
    fitness_circ = build_fitness_circuit(generate_maze(8, seed=0), 8)
    oracle = build_oracle_circuit(fitness_circ, make_spec(8).offset // 2)
    assert len(oracle.gates) == 4123


def test_oracle_rejects_out_of_range_cutoff():
    fitness_circ = build_fitness_circuit(generate_maze(2, seed=0), 2)
    with pytest.raises(ValueError):
        build_oracle_circuit(fitness_circ, cutoff=-1)
    with pytest.raises(ValueError):
        build_oracle_circuit(fitness_circ, cutoff=2 ** arith_width(2, 2))


# sha256 over the registers, spans and gates of every fitness circuit, and
# of every oracle, that verify builds at m <= 6, n <= 4; a change to any of
# them moves its digest.
FITNESS_DIGEST = "d595a97e114e637c11450a4bcd5603f38dfe3884e843d71f5c1e46ec79174eaa"
ORACLE_DIGEST = "fb40eb6e6ebe525dfb03009a9af393a06932f0365fb5f387f03942f9b1035fd5"


def _gate_list_digests() -> tuple[str, str]:
    fitness_hash, oracle_hash = hashlib.sha256(), hashlib.sha256()

    def update(h, circ):
        regs = [(r.name, r.offset, r.width, r.role) for r in circ.registers.values()]
        gates = [(type(g).__name__, g.target, g.controls) for g in circ.gates]
        h.update(repr((regs, sorted(circ.spans.items()), gates)).encode())

    for m in range(2, 7):
        for n in range(1, 5):
            fit = build_fitness_circuit(generate_maze(m, seed=0), n)
            update(fitness_hash, fit)
            for c in verify._oracle_cutoffs(m):
                update(oracle_hash, build_oracle_circuit(fit, c))
    return fitness_hash.hexdigest(), oracle_hash.hexdigest()


def test_fitness_and_oracle_gate_lists_are_pinned():
    assert _gate_list_digests() == (FITNESS_DIGEST, ORACLE_DIGEST)


@pytest.mark.parametrize("build", [build_fitness_circuit, build_validity_circuit])
def test_builds_share_no_gate_list(build):
    maze = generate_maze(4, seed=0)
    first, second = build(maze, 3), build(maze, 3)
    assert first.gates is not second.gates
    kept = list(second.gates)
    lo, hi = first.spans.get("walk", (0, len(first.gates)))
    first.gates[(lo + hi) // 2] = PhaseMark(0)
    assert first.gates != kept
    assert second.gates == kept
    assert _gate_list_digests()[0] == FITNESS_DIGEST


def test_repeated_blocks_are_appended_as_the_same_objects():
    circ = RevCircuit()
    circ.reg("r", 3, "operand")
    circ.x(0)
    circ.cx(0, 1)
    circ.ccx(0, 1, 2)
    circ.repeat(1, 3)
    assert len(circ.gates) == 5 and all(map(operator.is_, circ.gates[3:], circ.gates[1:3]))
    # A subtraction's closing NOTs are its opening NOTs.
    sub = build_adder(3, subtract=True).gates
    assert all(map(operator.is_, sub[:3], sub[-3:]))
    # The walk's two steps differ only in their control toggles; every
    # increment or decrement gate of step 2 is step 1's object.
    fit = build_fitness_circuit(generate_maze(3, seed=0), 2)
    lo, hi = fit.spans["walk"]
    step1, step2 = fit.gates[lo : (lo + hi) // 2], fit.gates[(lo + hi) // 2 : hi]
    assert any(a is b for a, b in zip(step1, step2))
    assert all((a is b) == (a == b) for a, b in zip(step1, step2))


# ---------------------------------------------------------------------------
# Validity circuit


def test_validity_examples(example_maze):
    circ = build_validity_circuit(example_maze, 2)
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"path": 0b1001})
    assert out["valid"] == 1  # S,E stays inside
    out, _ = run_on_basis(circ, dict.fromkeys(circ.registers, 0) | {"path": 0b0010})
    assert out["valid"] == 0  # N,... leaves immediately


def _width_steps(m_max: int = 6, n_max: int = 5) -> set[tuple[int, int]]:
    """(m, n) pairs on both sides of each step of position_width as n grows."""
    pairs = set()
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            if position_width(m, n) > position_width(m, n - 1):
                pairs |= {(m, n - 1), (m, n)}
    return pairs


_VALIDITY_GRID = {(m, n) for m in (2, 3, 4) for n in (1, 2, 3)} | _width_steps()


@pytest.mark.parametrize("n,m", sorted((n, m) for m, n in _VALIDITY_GRID))
def test_validity_matches_bounds_oracle(m, n):
    maze = generate_maze(m, seed=0)
    circ = build_validity_circuit(maze, n)
    out, _ = sweep(circ, {"path": np.arange(4**n)})
    got = unpack_column(circ, out, "valid")
    want = np.array(
        [
            int(simulate_path(maze, codec.decode_index(u, n), SimMode.BOUNDS_ONLY).valid)
            for u in range(4**n)
        ]
    )
    assert np.array_equal(got, want)
    assert scratch_clean(circ, out)


@pytest.mark.parametrize("start", [(0, 2), (2, 0), (2, 2), (1, 1)])
def test_validity_custom_start(start):
    maze = generate_maze(3, seed=1, start=start, goal=(1, 0))
    circ = build_validity_circuit(maze, 3)
    out, _ = sweep(circ, {"path": np.arange(64)})
    want = path_end_values(maze, 3, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)
    assert np.array_equal(unpack_column(circ, out, "valid"), want)
    assert scratch_clean(circ, out)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 1000), data=st.data())
def test_circuits_follow_the_mazes_placement(m, n, seed, data):
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    start = data.draw(cells)
    goal = data.draw(cells.filter(lambda cell: cell != start))
    maze = generate_maze(m, seed, start, goal)
    paths = {"path": np.arange(4**n)}
    blind = landscape(maze, n, make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)).values

    fit = build_fitness_circuit(maze, n)
    out, _ = sweep(fit, paths)
    assert np.array_equal(unpack_column(fit, out, "fit"), blind % (1 << fit.registers["fit"].width))
    assert scratch_clean(fit, out)

    valid = build_validity_circuit(maze, n)
    out, _ = sweep(valid, paths)
    want = path_end_values(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen)
    assert np.array_equal(unpack_column(valid, out, "valid"), want)
    assert scratch_clean(valid, out)

    cutoff = make_spec(m).offset // 2
    oracle = build_oracle_circuit(fit, cutoff)
    rows = pack_rows(oracle, paths, 4**n)
    out, signs = run_batch(oracle, rows)
    assert out == rows
    assert np.array_equal(signs, np.where(blind > cutoff, -1, 1))
    for cutoff in verify._oracle_cutoffs(m):
        assert_oracle_matches_sandwich(fit, cutoff, n)


# ---------------------------------------------------------------------------
# Structural invariants


def test_circuit_then_inverse_restores_everything():
    circ = build_oracle_circuit(build_fitness_circuit(generate_maze(3, seed=0), 2), cutoff=5)
    rng = np.random.default_rng(7)
    values = {
        name: rng.integers(0, 1 << reg.width, size=200)
        for name, reg in circ.registers.items()
    }
    inputs = pack_rows(circ, values, 200)
    mid, s1 = run_batch(circ, inputs)
    back, s2 = run_batch(circ.inverse(), mid)
    assert back == inputs
    assert np.all(s1 * s2 == 1)


def test_small_circuits_bijective_exhaustively():
    # Total width stays small enough to enumerate every basis state.
    circuits = (
        build_adder(3),
        build_squarer(2),
        build_gt_comparator(3, 4),
        build_squarer(3),  # 16 bits, 65536 basis states
    )
    for circ in circuits:
        bits = circ.num_bits
        assert bits <= 22
        every = np.arange(1 << bits, dtype=np.int64)
        regs = circ.registers.values()
        values = {r.name: every >> r.offset & ((1 << r.width) - 1) for r in regs}
        out, _ = run_batch(circ, pack_rows(circ, values, every.size))
        packed = sum(unpack_column(circ, out, r.name) << r.offset for r in regs)
        assert len(np.unique(packed)) == 1 << bits  # a bijection on basis states


def test_count_gates_identity_and_additivity():
    empty = RevCircuit({}, [])
    c = count_gates(empty)
    assert (c.toffoli, c.cnot, c.nots, circuit_depth(empty)) == (0, 0, 0, 0)
    circ = build_gt_comparator(4, 5)
    total = count_gates(circ)
    doubled = count_gates(RevCircuit(circ.registers, circ.gates + circ.gates))
    assert doubled.toffoli == 2 * total.toffoli
    assert doubled.cnot == 2 * total.cnot
    assert doubled.nots == 2 * total.nots


def test_count_gates_rejects_unknown_stage():
    cases = (
        (build_validity_circuit(generate_maze(2, seed=0), 1), "diff"),
        (build_fitness_circuit(generate_maze(2, seed=0), 2), "Walk"),
        (build_adder(2), "walk"),
    )
    for circ, stage in cases:
        with pytest.raises(ValueError) as info:
            count_gates(circ, stage=stage)
        assert f"'{stage}'" in str(info.value)
        assert str(sorted(circ.spans)) in str(info.value)


def test_uncompute_range_checks_before_appending():
    b = RevCircuit()
    w = b.reg("w", 2, "operand").bits
    b.x(w[0])
    b.z(w[0])
    b.cx(w[0], w[1])
    before = list(b.gates)
    with pytest.raises(ValueError, match="phase"):
        b.uncompute_range(0, 3)
    assert b.gates == before


def test_walk_toffoli_linear_in_n():
    maze = generate_maze(4, seed=0)
    counts = [
        count_gates(build_fitness_circuit(maze, n), stage="walk").toffoli
        for n in range(1, 7)
    ]
    per_step = [c / n for n, c in zip(range(1, 7), counts)]
    assert max(per_step) / min(per_step) <= 1.3  # near-constant per-step cost


def test_position_width_formula():
    assert position_width(2, 2) == 4
    assert position_width(4, 1) == 4
    assert position_width(4, 6) == 5
