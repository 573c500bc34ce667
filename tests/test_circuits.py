"""Gate-level constructions vs integer arithmetic and the classical reference.

Oracles here are deliberately primitive: Python +, *, >, and the fitness
reference module. Exhaustive sweeps run as vectorized batches over every
basis input at small widths.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaze import circuits, codec, verify
from qmaze.adaptive import Strictness, marked_for_cutoff
from qmaze.circuits import (
    Batch,
    Register,
    RevCircuit,
    _gt_const,
    arith_width,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_validity_circuit,
    circuit_depth,
    count_gates,
    pack_rows,
    position_width,
    run_batch,
    unpack_column,
)
from qmaze.fitness import Formula, fitness, landscape, make_spec
from qmaze.maze import Maze, SimMode, end_values, generate_maze, path_automaton, simulate_path
from qmaze.resources import measured, mismatches, predict
from reference import build_adder, build_squarer, run_on_basis


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
    circ = RevCircuit({"b": Register("b", 0, 1, "operand")}, [(0, ())])
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


def test_builds_draw_each_gate_from_one_table_checked_once(monkeypatch):
    monkeypatch.setattr(circuits, "_GATES", {})
    checked, check = [], circuits._gate
    monkeypatch.setattr(circuits, "_gate", lambda t, c: checked.append((t, c)) or check(t, c))
    first = build_gt_comparator(4, 5)
    distinct = len(checked)
    second = build_gt_comparator(4, 5)
    assert first.gates is not second.gates and first.gates == second.gates
    assert all(map(operator.is_, first.gates, second.gates))
    # Each distinct gate was checked once, by the first build; the second made none.
    assert distinct == len(set(first.gates)) == len(circuits._GATES) and len(checked) == distinct


@pytest.mark.parametrize(
    "emit, need",
    [
        (lambda c: c.ccx(1, 1, 2), "distinct"),
        (lambda c: c.cx(2, 2), "distinct"),
        # A negative bit would index wires from the end: run_batch's w[-1] is the last wire.
        (lambda c: c.x(-1), "nonnegative"),
        (lambda c: c.cx(-1, 0), "nonnegative"),
        (lambda c: c.cx(0, -1), "nonnegative"),
        (lambda c: c.ccx(0, 1, -2), "nonnegative"),
        (lambda c: c.ccx(0, -2, 1), "nonnegative"),
        (lambda c: c.z(-1), "nonnegative"),
    ],
    ids=[
        "ccx-repeated",
        "cx-repeated",
        "x-negative",
        "cx-negative",
        "cx-negative-target",
        "ccx-negative",
        "ccx-negative-control",
        "z-negative",
    ],
)
def test_a_bad_gate_raises_on_every_emission_and_is_never_stored(emit, need):
    circ = RevCircuit()
    circ.reg("r", 3, "operand")
    size = len(circuits._GATES)
    for _ in range(3):
        with pytest.raises(ValueError, match=need):
            emit(circ)
    assert len(circuits._GATES) == size and circ.gates == []


def test_a_phase_mark_and_a_not_are_distinct_table_entries():
    circ = RevCircuit()
    circ.reg("r", 1, "operand")
    circ.x(0)
    circ.z(0)
    circ.x(0)
    circ.z(0)
    assert circ.gates == [(0, ()), (0, None), (0, ()), (0, None)]
    assert circuits._GATES[(0,)] is circ.gates[0] and circuits._GATES[(0, None)] is circ.gates[1]
    # Each repeated emission appends the table's object, a phase mark's too.
    assert circ.gates[2] is circ.gates[0] and circ.gates[3] is circ.gates[1]


@pytest.mark.parametrize(
    "gates, bits, sign, counts, depth",
    [
        ([(0, ())], 0b10, 1, (0, 0, 1), 1),
        ([(0, None)], 0b11, -1, (0, 0, 0), 1),
        ([(0, None), (0, ())], 0b10, -1, (0, 0, 1), 2),
        ([(0, ()), (0, None)], 0b10, 1, (0, 0, 1), 2),
        ([(1, (0,)), (0, None), (1, None)], 0b01, -1, (0, 1, 0), 2),
    ],
    ids=["not", "mark", "mark-then-not", "not-then-mark", "cnot-and-marks"],
)
def test_a_phase_mark_is_none_controls_and_a_not_is_empty_controls(gates, bits, sign, counts, depth):
    """On row 0b11 a mark on a set bit flips the sign and a NOT flips the bit; a mark is never tallied."""
    circ = RevCircuit({"r": Register("r", 0, 2, "operand")}, gates)
    out, signs = run_batch(circ, pack_rows(circ, {"r": 0b11}, 1))
    assert unpack_column(circ, out, "r").tolist() == [bits] and signs.tolist() == [sign]
    assert count_gates(circ) == circuits.GateCounts(*counts)
    assert circuit_depth(circ) == depth


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
        for t, c in circuit.gates:
            if c is None:
                sign = -sign if row[t] else sign
            elif all(row[b] for b in c):
                row[t] ^= 1
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
        gates.append((wires[0], None if phase else controls))
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
def test_adder_exhaustive(width):
    span = 1 << width
    circ = build_adder(width)
    a = np.repeat(np.arange(span), span)
    t = np.tile(np.arange(span), span)
    out, _ = sweep(circ, {"a": a, "t": t})
    assert np.array_equal(unpack_column(circ, out, "t"), (t + a) % span)
    assert np.array_equal(unpack_column(circ, out, "a"), a)
    assert scratch_clean(circ, out)


def test_adder_3bit_example():
    circ = build_adder(3)
    assign = dict.fromkeys(circ.registers, 0) | {"a": 0b001, "t": 0b011}
    out, _ = run_on_basis(circ, assign)
    assert out["t"] == 0b100


def test_adder_rejects_bad_args():
    with pytest.raises(ValueError):
        build_adder(0)


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


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_squarer_accumulates_from_every_initial_output(width):
    """out += a**2 mod 2**out_width, as the fitness circuit adds both squares into ``fit``."""
    for out_width in range(1, 2 * width + 2):
        a, out0 = (v.ravel() for v in np.meshgrid(np.arange(1 << width), np.arange(1 << out_width)))
        circ = build_squarer(width, out_width)
        out, _ = sweep(circ, {"a": a, "sq": out0})
        assert np.array_equal(unpack_column(circ, out, "sq"), (out0 + a * a) % 2**out_width), out_width
        assert np.array_equal(unpack_column(circ, out, "a"), a)
        assert scratch_clean(circ, out)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_squarer_of_a_repeated_sign_bit_squares_twos_complement(width):
    """A source whose top bit is repeated squares ``a`` read as two's complement.

    Rows past the sign bit pair that wire with itself and emit a CNOT for
    the product, the only such gate in the fitness circuit's squares.
    """
    a = np.arange(1 << width)
    signed = np.array([signed_register_value(int(v), width) for v in a])
    for extend in range(1, 7):
        out_width = width + extend
        circ = build_squarer(width, out_width, extend)
        out, _ = sweep(circ, {"a": a})
        assert np.array_equal(unpack_column(circ, out, "sq"), signed * signed % 2**out_width), extend
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


def test_comparator_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        build_gt_comparator(3, -1)


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
    maze = replace(generate_maze(3, seed=1), start=(2, 0), goal=(0, 2))
    scape = landscape(maze, 2, spec)
    circ = build_fitness_circuit(maze, 2)
    wa = arith_width(3, 2)
    out, _ = sweep(circ, {"path": np.arange(16)})
    assert np.array_equal(unpack_column(circ, out, "fit"), scape.values % (1 << wa))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("placement", ["corner", "swapped", "central"])
def test_walk_ends_on_the_displacement_from_the_goal(m, placement):
    start, goal = {
        "corner": ((0, 0), (m - 1, m - 1)),
        "swapped": ((m - 1, m - 1), (0, 0)),
        "central": ((m // 2, m // 2), (0, m - 1)),
    }[placement]
    maze = replace(generate_maze(m, seed=0), start=start, goal=goal)
    for n in range(1, 5):
        circ = build_fitness_circuit(maze, n)
        walked = RevCircuit(circ.registers, circ.gates[: circ.spans["walk"][1]])
        out, _ = sweep(walked, {"path": np.arange(4**n)})
        span = 1 << position_width(m, n)
        for axis, name in enumerate(("pos_i", "pos_j")):
            end = end_values(n, *path_automaton(maze, n, SimMode.WALL_BLIND, lambda cells, _: cells[:, axis]))
            want = (end - maze.goal[axis]) % span
            assert np.array_equal(unpack_column(walked, out, name), want), (n, name)
        assert scratch_clean(walked, out)


# The squares' repeated sign wire first pairs with itself at m = 13, n = 1
# (and at m = 24, n = 2 and 4); at m = 13, n = 3 the position register is
# one bit wider and it does not. verify and the tests above stop at m = 8.
@pytest.mark.parametrize("m,n,pairs", [(13, 1, True), (13, 3, False), (24, 2, True), (24, 4, True)])
def test_wide_arithmetic_matches_the_landscape(m, n, pairs):
    maze = generate_maze(m, seed=0)
    blind = landscape(maze, n, make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)).values
    fit = build_fitness_circuit(maze, n)
    scratch = fit.registers["scratch"].bits
    sign_wires = {fit.registers[name].bits[-1] for name in ("pos_i", "pos_j")}
    lo, hi = fit.spans["distance_fitness"]
    # Only a sign wire paired with itself copies a position bit into a mask bit above the second.
    copies = [g for g in fit.gates[lo:hi] if len(g[1]) == 1 and g[1][0] in sign_wires and g[0] in scratch[2:]]
    assert bool(copies) == pairs
    paths = {"path": np.arange(4**n)}
    out, _ = sweep(fit, paths)
    assert np.array_equal(unpack_column(fit, out, "fit"), blind % (1 << arith_width(m, n)))
    assert scratch_clean(fit, out)
    cutoff = make_spec(m).offset // 2
    oracle = build_oracle_circuit(fit, cutoff)
    rows = pack_rows(oracle, paths, 4**n)
    out, signs = run_batch(oracle, rows)
    assert out == rows
    assert np.array_equal(signs, np.where(blind > cutoff, -1, 1))
    assert mismatches(predict(maze, n), measured(maze, n)) == []


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
    comparator and phase mark, then all of it reversed (four copies of F).
    The comparator borrows its output and equality chain from the fitness
    circuit's scratch pool, as the builder does."""
    fit = fitness_circ.registers["fit"].bits
    b = RevCircuit(dict(fitness_circ.registers), list(fitness_circ.gates), dict(fitness_circ.spans))
    flag = b.reg("flag", 1, "flag").bits[0]
    scratch = fitness_circ.registers["scratch"].bits
    eq, gsc = scratch[: len(fit) - 1], scratch[len(fit) - 1]
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
    assert len(oracle.gates) == 1979


def test_oracle_rejects_out_of_range_cutoff():
    fitness_circ = build_fitness_circuit(generate_maze(2, seed=0), 2)
    with pytest.raises(ValueError):
        build_oracle_circuit(fitness_circ, cutoff=-1)
    with pytest.raises(ValueError):
        build_oracle_circuit(fitness_circ, cutoff=2 ** arith_width(2, 2))


# sha256 over the registers, spans and gates of every fitness circuit, and
# of every oracle, that verify builds at m <= 6, n <= 4; a change to any of
# them moves its digest.
FITNESS_DIGEST = "dbb51002b9f481ba740f8a454a2b4dcc43eab35ac1c3c01e0f7eeb4bf91a941b"
ORACLE_DIGEST = "fee8a704219d4c9cb0a667dae615ff3e641c7ac00f133dcd1986162e61d2b1c3"


def _gate_list_digests() -> tuple[str, str]:
    fitness_hash, oracle_hash = hashlib.sha256(), hashlib.sha256()

    def update(h, circ):
        regs = [(r.name, r.offset, r.width, r.role) for r in circ.registers.values()]
        gates = [("PhaseMark" if c is None else "Gate", t, c or ()) for t, c in circ.gates]
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
    first.gates[(lo + hi) // 2] = (0, None)
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
    # A walk step's closing sign complement, and pos_i's closing code-bit
    # NOTs, are its opening ones' objects.
    fit = build_fitness_circuit(generate_maze(3, seed=0), 2)
    lo, hi = fit.spans["walk"]
    step1 = fit.gates[lo : (lo + hi) // 2]
    sign = fit.registers["path"].bits[3]  # step 1's high code bit
    for reg in ("pos_i", "pos_j"):
        complement = [g for g in step1 if g[1] == (sign,) and g[0] in fit.registers[reg].bits]
        w = len(complement) // 2
        assert w == position_width(3, 2) and all(map(operator.is_, complement[:w], complement[w:]))
    nots = [g for g in step1 if not g[1]]
    assert len(nots) == 4 and all(map(operator.is_, nots[:2], nots[2:]))
    # Validity's step-2 bound check, just before its step-chain write, is
    # step 1's objects. Found by position, not by identity, since every
    # equal emitted gate is one object: step 1's check runs from the end of
    # its walk step (after the start load, as long as a fitness step of the
    # same widths) to its own write, and step 1 uncomputes it right after.
    maze = generate_maze(3, seed=0)
    valid = build_validity_circuit(maze, 2)
    gates = valid.gates
    vchain = valid.registers["scratch"].bits[-2:]
    first, second = (next(k for k, g in enumerate(gates) if g[0] == bit) for bit in vchain)
    check = gates[sum(map(int.bit_count, maze.start)) + (hi - lo) // 2 : first]
    assert check and gates[first + 1 : first + 1 + len(check)] == check[::-1]
    assert all(map(operator.is_, check, gates[second - len(check) : second]))


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
            int(simulate_path(maze, codec.decode_index(u, n), SimMode.BOUNDS_ONLY).fail_step is None)
            for u in range(4**n)
        ]
    )
    assert np.array_equal(got, want)
    assert scratch_clean(circ, out)


@pytest.mark.parametrize("start", [(0, 2), (2, 0), (2, 2), (1, 1)])
def test_validity_custom_start(start):
    maze = replace(generate_maze(3, seed=1), start=start, goal=(1, 0))
    circ = build_validity_circuit(maze, 3)
    out, _ = sweep(circ, {"path": np.arange(64)})
    want = end_values(3, *path_automaton(maze, 3, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen))
    assert np.array_equal(unpack_column(circ, out, "valid"), want)
    assert scratch_clean(circ, out)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 1000), data=st.data())
def test_circuits_follow_the_mazes_placement(m, n, seed, data):
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    start = data.draw(cells)
    goal = data.draw(cells.filter(lambda cell: cell != start))
    maze = replace(generate_maze(m, seed), start=start, goal=goal)
    paths = {"path": np.arange(4**n)}
    blind = landscape(maze, n, make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)).values

    fit = build_fitness_circuit(maze, n)
    out, _ = sweep(fit, paths)
    assert np.array_equal(unpack_column(fit, out, "fit"), blind % (1 << fit.registers["fit"].width))
    assert scratch_clean(fit, out)

    valid = build_validity_circuit(maze, n)
    out, _ = sweep(valid, paths)
    want = end_values(n, *path_automaton(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen))
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


def quarter_turned(maze: Maze) -> Maze:
    """The maze turned a quarter clockwise: cell (i, j) goes to (j, m - 1 - i).

    Each move turns N -> E -> S -> W -> N, so the open-side bits N=8, E=4,
    S=2, W=1 each move one place down, W wrapping to N.
    """
    m = maze.size
    turn = lambda cell: (cell[1], m - 1 - cell[0])
    sides = [[0] * m for _ in range(m)]
    for i, row in enumerate(maze.open_sides):
        for j, bits in enumerate(row):
            ti, tj = turn((i, j))
            sides[ti][tj] = (bits >> 1) | (bits & 1) << 3
    return Maze(m, tuple(map(tuple, sides)), turn(maze.start), turn(maze.goal))


def quarter_turned_codes(n: int) -> np.ndarray:
    """Each length-n path code with every 2-bit move digit turned N -> E -> S -> W -> N."""
    codes = np.arange(4**n)
    return sum(((codes >> 2 * k) + 1) % 4 << 2 * k for k in range(n))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fitness_circuit_is_invariant_under_a_quarter_turn(m, seed):
    """Fitness reads only the squared distance to the goal, which turning maze and path together keeps."""
    maze = generate_maze(m, seed)
    turned = quarter_turned(maze)
    for n in range(1, 5):
        circ, turned_circ = build_fitness_circuit(maze, n), build_fitness_circuit(turned, n)
        out, _ = sweep(circ, {"path": np.arange(4**n)})
        turned_out, _ = sweep(turned_circ, {"path": quarter_turned_codes(n)})
        fit = unpack_column(circ, out, "fit")
        assert np.array_equal(unpack_column(turned_circ, turned_out, "fit"), fit), n
        assert len(np.unique(fit)) > 1


# ---------------------------------------------------------------------------
# The scratch pool: every stage returns what it borrowed


def _pool_after(circ: RevCircuit, hi: int, n: int) -> np.ndarray:
    """The ``scratch`` register's value after ``gates[:hi]`` on every length-n path."""
    rows = pack_rows(circ, {"path": np.arange(4**n)}, 4**n)
    out, _ = run_batch(RevCircuit(circ.registers, circ.gates[:hi]), rows)
    return unpack_column(circ, out, "scratch")


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("n", [3, 6])
def test_fitness_pool_reads_zero_at_each_span_end(m, n):
    circ = build_fitness_circuit(generate_maze(m, seed=0), n)
    for stage, (_, hi) in circ.spans.items():
        assert not _pool_after(circ, hi, n).any(), stage
    # A walk that leaves its increment chain set fails at the walk's end.
    lo, hi = circ.spans["walk"]
    chain = circ.registers["scratch"].bits[: position_width(m, n) - 1]
    last = max(k for k in range(lo, hi) if circ.gates[k][0] in chain)
    leaky = RevCircuit(circ.registers, circ.gates[:last] + circ.gates[last + 1 :])
    assert _pool_after(leaky, hi - 1, n).any()


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("n", [3, 6])
def test_validity_pool_reads_zero_after_every_step(m, n):
    """The pool's first w + 2 wires, lent to each step's walk and bound check, read zero after it.

    The circuit loads the start, then runs n steps of one length, then
    copies the step chain's last bit into ``valid``; step t ends at
    ``load + t * step``.
    """
    maze = generate_maze(m, seed=0)
    circ = build_validity_circuit(maze, n)
    load = sum(bin(c).count("1") for c in maze.start)
    copy = next(k for k, g in enumerate(circ.gates) if g[0] == circ.registers["valid"].offset)
    step, rest = divmod(copy - load, n)
    assert rest == 0
    lent = (1 << position_width(m, n) + 2) - 1
    for t in range(1, n + 1):
        assert not (_pool_after(circ, load + t * step, n) & lent).any(), t


# ---------------------------------------------------------------------------
# Sizes past verify's cap, on sampled rows


@pytest.mark.parametrize("m,seed", [(8, 1), (5, 2), (2, 0)])
@pytest.mark.parametrize("n", [12, 20, 26])
def test_fitness_and_oracle_match_the_reference_on_sampled_rows(m, seed, n):
    """1,024 seeded random paths: ``fit`` is the wall-blind fitness mod 2**wa, the
    C // 2 oracle's sign is [fitness > cutoff], and every register is restored."""
    maze = generate_maze(m, seed)
    spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    paths = np.random.default_rng(seed * 100 + n).integers(0, 4**n, size=1024)
    want = np.array([fitness(maze, codec.decode_index(int(u), n), spec) for u in paths])
    fit = build_fitness_circuit(maze, n)
    out, signs = run_batch(fit, pack_rows(fit, {"path": paths}, paths.size))
    assert out == pack_rows(fit, {"path": paths, "fit": want % (1 << arith_width(m, n))}, paths.size)
    assert np.all(signs == 1)
    cutoff = spec.offset // 2
    oracle = build_oracle_circuit(fit, cutoff)
    rows = pack_rows(oracle, {"path": paths}, paths.size)
    out, signs = run_batch(oracle, rows)
    assert out == rows
    assert np.array_equal(signs, np.where(want > cutoff, -1, 1))
    assert -1 in signs and 1 in signs


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
    back, s2 = run_batch(RevCircuit(dict(circ.registers), circ.gates[::-1]), mid)
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


def test_walk_toffoli_linear_in_n():
    maze = generate_maze(4, seed=0)
    for n in range(1, 7):
        # Two increments a step, each with a chain of w - 1 Toffolis computed and uncomputed.
        walk = count_gates(build_fitness_circuit(maze, n), stage="walk")
        assert walk.toffoli == 4 * n * (position_width(4, n) - 1), n


def test_position_width_formula():
    assert position_width(2, 2) == 4
    assert position_width(4, 1) == 4
    assert position_width(4, 6) == 5
