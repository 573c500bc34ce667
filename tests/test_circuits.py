"""Gate-level constructions vs integer arithmetic and the classical reference.

Oracles here are deliberately primitive: Python +, *, >, and the fitness
reference module. Exhaustive sweeps run as vectorized batches over every
basis input at small widths.
"""

from __future__ import annotations

import numpy as np
import pytest

from qmaze import codec
from qmaze.adaptive import Strictness, marked_for_cutoff
from qmaze.circuits import (
    Gate,
    RevCircuit,
    arith_width,
    build_adder,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_squarer,
    build_validity_circuit,
    count_gates,
    pack_rows,
    position_width,
    run_batch,
    run_on_basis,
    signed_register_value,
    unpack_column,
)
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import SimMode, generate_maze, simulate_path


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
    from qmaze.circuits import Register

    circ = RevCircuit({"b": Register("b", 0, 1, "operand")}, [Gate(0)])
    out, sign = run_on_basis(circ, {"b": 0})
    assert out == {"b": 1} and sign == 1


def test_run_on_basis_rejects_bad_assignment():
    circ = build_adder(2)
    with pytest.raises(ValueError, match="missing"):
        run_on_basis(circ, {"a": 1})
    good = circ.zero_assignment()
    good["a"] = 4  # width 2 holds 0..3
    with pytest.raises(ValueError, match="range"):
        run_on_basis(circ, good)


def test_gate_rejects_duplicate_bits():
    with pytest.raises(ValueError):
        Gate(0, (0,))
    with pytest.raises(ValueError):
        Gate(2, (1, 1))


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
    assign = circ.zero_assignment() | {"a": 0b001, "t": 0b011}
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
    rows = pack_rows(both, {"a": a, "t": t}, span * span)
    out, _ = run_batch(both, rows)
    assert np.array_equal(out, rows)


def test_controlled_adder_identity_when_off():
    circ = build_adder(3, controls=1, constant=5)
    out, _ = sweep(circ, {"t": np.arange(8), "ctrl": np.zeros(8, dtype=int)})
    assert np.array_equal(unpack_column(circ, out, "t"), np.arange(8))
    on, _ = sweep(circ, {"t": np.arange(8), "ctrl": np.ones(8, dtype=int)})
    assert np.array_equal(unpack_column(circ, on, "t"), (np.arange(8) + 5) % 8)


def test_double_controlled_register_adder():
    circ = build_adder(2, controls=2)
    span = 4
    grid = np.mgrid[0:span, 0:span, 0:4].reshape(3, -1)
    a, t, cc = grid
    out, _ = sweep(circ, {"a": a, "t": t, "ctrl": cc})
    want = np.where(cc == 3, (t + a) % span, t)
    assert np.array_equal(unpack_column(circ, out, "t"), want)
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
    assert run_on_basis(circ, circ.zero_assignment())[0]["sq"] == 0
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"a": 3})
    assert out["sq"] == 9


def test_squarer_rejects_narrow_output():
    with pytest.raises(ValueError, match="output"):
        build_squarer(3, out_width=5)


# ---------------------------------------------------------------------------
# Comparator


def test_comparator_pinned_pair():
    circ = build_gt_comparator(4, 9)
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"f": 0b1011})
    assert out["flag"] == 1  # 11 > 9
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"f": 0b0101})
    assert out["flag"] == 0  # 5 < 9


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("variant", ["prefix", "subtract"])
def test_comparator_exhaustive_constant(width, variant):
    span = 1 << width
    for cutoff in range(span):
        circ = build_gt_comparator(width, cutoff, variant=variant)
        out, _ = sweep(circ, {"f": np.arange(span)})
        got = unpack_column(circ, out, "flag")
        assert np.array_equal(got, (np.arange(span) > cutoff).astype(int)), (cutoff, variant)
        assert scratch_clean(circ, out)


@pytest.mark.parametrize("width", range(1, 7))
def test_comparator_exhaustive_register(width):
    span = 1 << width
    circ = build_gt_comparator(width, source="register")
    f = np.repeat(np.arange(span), span)
    c = np.tile(np.arange(span), span)
    out, _ = sweep(circ, {"f": f, "c": c})
    assert np.array_equal(unpack_column(circ, out, "flag"), (f > c).astype(int))
    assert np.array_equal(unpack_column(circ, out, "c"), c)  # cutoff restored
    assert scratch_clean(circ, out)


def test_comparator_variants_agree():
    for width in (3, 5):
        for cutoff in range(1 << width):
            a = build_gt_comparator(width, cutoff, variant="prefix")
            b = build_gt_comparator(width, cutoff, variant="subtract")
            fa, _ = sweep(a, {"f": np.arange(1 << width)})
            fb, _ = sweep(b, {"f": np.arange(1 << width)})
            assert np.array_equal(
                unpack_column(a, fa, "flag"), unpack_column(b, fb, "flag")
            )


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
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_fitness_circuit(2, 2, spec)
    out, sign = run_on_basis(circ, circ.zero_assignment() | {"path": 0b1001})
    assert out["fit"] == 0b100
    assert sign == 1
    assert all(out[reg.name] == 0 for reg in circ.scratch_registers())


def test_fitness_circuit_wall_blind_example():
    # (E,E) from (0,0): ends (0,2), distance to (1,1) is 2, fitness 2.
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_fitness_circuit(2, 2, spec)
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"path": 0b0101})
    assert out["fit"] == 2


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fitness_circuit_matches_reference(m, n):
    spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    maze = generate_maze(m, seed=0)
    scape = landscape(maze, n, spec)
    circ = build_fitness_circuit(m, n, spec)
    wa = arith_width(m, n, spec)
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
    circ = build_fitness_circuit(3, 2, spec, start=(2, 0), goal=(0, 2))
    wa = arith_width(3, 2, spec)
    out, _ = sweep(circ, {"path": np.arange(16)})
    assert np.array_equal(unpack_column(circ, out, "fit"), scape.values % (1 << wa))


def test_fitness_circuit_requires_main_formula():
    spec = make_spec(2, Formula.APPENDIX)
    with pytest.raises(ValueError):
        build_fitness_circuit(2, 2, spec)


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_worked_example_sign():
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_oracle_circuit(2, 2, spec, cutoff=2)
    out, sign = run_on_basis(circ, circ.zero_assignment() | {"path": 0b1001})
    assert sign == -1  # fitness 4 > 2 flips the phase
    assert out["path"] == 0b1001
    assert all(out[name] == 0 for name in circ.registers if name != "path")


def test_oracle_max_cutoff_marks_nothing():
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_oracle_circuit(2, 2, spec, cutoff=spec.offset)
    _, signs = sweep(circ, {"path": np.arange(16)})
    assert np.all(signs == 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_sign_matches_landscape(m, n):
    spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
    scape = landscape(generate_maze(m, seed=0), n, spec)
    for cutoff in (0, 1, spec.offset // 2, spec.offset - 1):
        circ = build_oracle_circuit(m, n, spec, cutoff)
        out, signs = sweep(circ, {"path": np.arange(4**n)})
        marked = set(marked_for_cutoff(scape, cutoff, Strictness.STRICT).tolist())
        want = np.array([-1 if u in marked else 1 for u in range(4**n)])
        assert np.array_equal(signs, want), (m, n, cutoff)
        assert scratch_clean(circ, out)


def test_oracle_self_inverse():
    spec = make_spec(3, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_oracle_circuit(3, 2, spec, cutoff=3)
    doubled = RevCircuit(circ.registers, circ.gates + circ.gates)
    rows = pack_rows(doubled, {"path": np.arange(16)}, 16)
    out, signs = run_batch(doubled, rows)
    assert np.array_equal(out, rows)
    assert np.all(signs == 1)


def test_oracle_rejects_out_of_range_cutoff():
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_BLIND)
    with pytest.raises(ValueError):
        build_oracle_circuit(2, 2, spec, cutoff=-1)
    with pytest.raises(ValueError):
        build_oracle_circuit(2, 2, spec, cutoff=2 ** arith_width(2, 2, spec))


# ---------------------------------------------------------------------------
# Validity circuit


def test_validity_examples(example_maze):
    circ = build_validity_circuit(2, 2)
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"path": 0b1001})
    assert out["valid"] == 1  # S,E stays inside
    out, _ = run_on_basis(circ, circ.zero_assignment() | {"path": 0b0010})
    assert out["valid"] == 0  # N,... leaves immediately


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_validity_matches_bounds_oracle(m, n):
    maze = generate_maze(m, seed=0)
    circ = build_validity_circuit(m, n)
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


# ---------------------------------------------------------------------------
# Structural invariants


def test_circuit_then_inverse_restores_everything():
    spec = make_spec(3, Formula.MAIN, SimMode.WALL_BLIND)
    circ = build_oracle_circuit(3, 2, spec, cutoff=5)
    rng = np.random.default_rng(7)
    values = {
        name: rng.integers(0, 1 << reg.width, size=200)
        for name, reg in circ.registers.items()
    }
    rows = pack_rows(circ, values, 200)
    mid, s1 = run_batch(circ, rows)
    back, s2 = run_batch(circ.inverse(), mid)
    assert np.array_equal(back, rows)
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
        rows = ((every[:, None] >> np.arange(bits)[None, :]) & 1).astype(np.uint8)
        out, _ = run_batch(circ, rows)
        packed = (out.astype(np.int64) << np.arange(bits)[None, :]).sum(axis=1)
        assert len(np.unique(packed)) == 1 << bits  # a bijection on basis states


def test_count_gates_identity_and_additivity():
    empty = RevCircuit({}, [])
    c = count_gates(empty)
    assert (c.toffoli, c.cnot, c.nots, c.depth) == (0, 0, 0, 0)
    circ = build_gt_comparator(4, 5)
    total = count_gates(circ)
    doubled = count_gates(RevCircuit(circ.registers, circ.gates + circ.gates))
    assert doubled.toffoli == 2 * total.toffoli
    assert doubled.cnot == 2 * total.cnot
    assert doubled.nots == 2 * total.nots


def test_walk_toffoli_linear_in_n():
    spec4 = make_spec(4)
    counts = [
        count_gates(build_fitness_circuit(4, n, spec4), stage="walk").toffoli
        for n in range(1, 7)
    ]
    per_step = [c / n for n, c in zip(range(1, 7), counts)]
    assert max(per_step) / min(per_step) <= 1.3  # near-constant per-step cost


def test_gate_list_export():
    circ = build_gt_comparator(2, 1)
    text = circ.to_gate_list()
    assert "# f bits 0..1 role fitness" in text
    assert any(line.startswith(("NOT", "CNOT", "TOFFOLI")) for line in text.splitlines())


def test_gate_counts_json():
    import json

    doc = json.loads(count_gates(build_gt_comparator(3, 2)).to_json())
    assert set(doc) == {"toffoli", "cnot", "nots", "phase", "depth", "ancilla"}
    assert doc["phase"] == 0 and doc["toffoli"] > 0


def test_position_width_formula():
    assert position_width(2, 2) == 4
    assert position_width(4, 1) == 4
    assert position_width(4, 6) == 5
