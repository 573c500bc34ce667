"""`verify`'s shared runs, pinned to a per-case reference.

``verify.run_all``, the one driver of the fitness, validity and oracle
suites, packs shared inputs once, runs a (maze, n)'s fitness circuit once
as its forward part P = F W and then the rest, runs only the middle
C Z C^-1 of each oracle that begins with P's gates and ends with them
reversed, proving its mirror when that middle returns its input, and
reuses the cutoff C // 2 run. The reference below runs every case whole
and on its own, the oracle doubled for involution. The two must return
equal ``SuiteResult``s, on passing circuits and on circuits that a test
has ``verify`` build mutated, by patching the builder names that
``run_all`` resolves.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qmaze import verify
from qmaze.circuits import (
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
from qmaze.fitness import make_spec
from qmaze.maze import SimMode, end_values, generate_maze, path_automaton

# ---------------------------------------------------------------------------
# Per-case reference


def _reference_check(suite, cases) -> verify.SuiteResult:
    """Pack, run and compare each case on its own; stop at the first bad case.

    A case is (where, circuit, inputs, reference, want_signs), as ``verify``
    had it before the shared runs: the expected batch is the input batch
    ORed with the packed reference registers, and each sign mismatch is
    marked row by row.
    """
    checked = 0
    for where, circ, inputs, reference, want_signs in cases:
        size = len(next(iter(inputs.values())))
        batch = pack_rows(circ, inputs, size)
        out, signs = verify.run_batch(circ, batch)
        want = batch
        if reference:
            ref = pack_rows(circ, reference, size).wires
            want = Batch(size, tuple(a | b for a, b in zip(batch.wires, ref)))
        checked += size
        bad = 0
        for a, b in zip(out.wires, want.wires):
            bad |= a ^ b
        if want_signs is not None:
            want_signs = np.broadcast_to(want_signs, signs.shape)
            for i in np.flatnonzero(signs != want_signs):
                bad |= 1 << int(i)
        if not bad:
            continue
        row = (bad & -bad).bit_length() - 1
        for name in circ.registers:
            got, exp = (int(unpack_column(circ, b, name)[row]) for b in (out, want))
            if got != exp:
                found = f"register '{name}' {got}, expected {exp}"
                break
        else:
            found = f"sign {int(signs[row])}, expected {int(want_signs[row])}"
        return verify.SuiteResult(suite, checked, bad.bit_count(), f"{where(row)}: {found}")
    return verify.SuiteResult(suite, checked, 0)


def _path_case(m, n, label=""):
    return (lambda u: f"m={m} n={n}{label} path={u:0{2*n}b}"), {"path": np.arange(4**n)}


def _reference_oracles(oracles, blind) -> list[verify.SuiteResult]:
    """oracle-sign, ancilla-cleanup and involution, each case run whole and on its own."""

    def sign_cases():
        for (maze, n), by_cutoff in oracles.items():
            for cutoff, circ in by_cutoff.items():
                where, paths = _path_case(maze.size, n, f" cutoff={cutoff}")
                yield where, circ, paths, {}, np.where(blind[maze, n] > cutoff, -1, 1)

    def half(maze, by_cutoff):
        return by_cutoff[make_spec(maze.size).offset // 2]

    def cleanup_cases():
        for (maze, n), by_cutoff in oracles.items():
            where, paths = _path_case(maze.size, n)
            yield where, half(maze, by_cutoff), paths, {}, None

    def involution_cases():
        for (maze, n), by_cutoff in oracles.items():
            circ = half(maze, by_cutoff)
            where, paths = _path_case(maze.size, n, " (oracle twice)")
            yield where, RevCircuit(circ.registers, circ.gates + circ.gates), paths, {}, 1

    return [
        _reference_check("oracle-sign", sign_cases()),
        _reference_check("ancilla-cleanup", cleanup_cases()),
        _reference_check("involution", involution_cases()),
    ]


def _fitness_cases(circuits, blind):
    for (maze, n), circ in circuits.items():
        where, paths = _path_case(maze.size, n)
        yield where, circ, paths, {"fit": blind[maze, n] % (1 << circ.registers["fit"].width)}, 1


def _validity_cases(circuits):
    for (maze, n), circ in circuits.items():
        ref = end_values(n, *path_automaton(maze, n, SimMode.BOUNDS_ONLY, lambda _, frozen: ~frozen))
        where, paths = _path_case(maze.size, n)
        yield where, circ, paths, {"valid": ref}, 1


def _reference_run_all(n_max, m_max, width_max) -> list[verify.SuiteResult]:
    """Every suite, each case run whole, with the builders ``verify`` resolves now, patched or not."""
    mazes = [generate_maze(m, seed=0) for m in range(2, m_max + 1)]
    keys = [(maze, n) for maze in mazes for n in range(1, n_max + 1)]
    blind = {key: verify._blind_values(*key) for key in keys}
    fitness = {key: verify.build_fitness_circuit(*key) for key in keys}
    oracles = {
        (maze, n): {c: verify.build_oracle_circuit(fitness[maze, n], c) for c in verify._oracle_cutoffs(maze.size)}
        for maze, n in keys
    }
    validity = {key: verify.build_validity_circuit(*key) for key in keys}
    return [
        _reference_check("fitness", _fitness_cases(fitness, blind)),
        _reference_check("comparator", _comparator_cases(width_max)),
        _reference_check("validity", _validity_cases(validity)),
        *_reference_oracles(oracles, blind),
    ]


def _comparator_cases(width_max, builder=build_gt_comparator):
    for w in range(1, width_max + 1):
        f = np.arange(1 << w)
        for cutoff in range(1 << w):
            where = lambda i: f"w={w} f={i} c={cutoff}"
            yield where, builder(w, cutoff), {"f": f}, {"flag": f > cutoff}, 1


def _oracles(maze, n) -> dict:
    fit = build_fitness_circuit(maze, n)
    return {c: build_oracle_circuit(fit, c) for c in verify._oracle_cutoffs(maze.size)}


# run_all's caps (n_max, m_max, comparator width) for the mutation tests: keys m 2-3, n 1-2.
_CAPS = (2, 3, 1)


def _run_all_and_reference(monkeypatch, caps=_CAPS):
    """``run_all`` and the per-case reference under ``verify``'s builders, and the circuits ``run_all`` ran whole."""
    reference = _reference_run_all(*caps)
    ran = []
    monkeypatch.setattr(verify, "run_batch", lambda circ, batch: ran.append(circ) or run_batch(circ, batch))
    return verify.run_all(*caps), reference, ran


def _gate_rows(monkeypatch) -> list[int]:
    """Gate rows run through ``verify.run_batch`` from now on, in a one-item list."""
    rows = [0]

    def counted(circuit, batch):
        rows[0] += len(circuit.gates) * batch.size
        return run_batch(circuit, batch)

    monkeypatch.setattr(verify, "run_batch", counted)
    return rows


def test_run_all_equals_the_per_case_reference(monkeypatch):
    rows = _gate_rows(monkeypatch)
    reference = _reference_run_all(3, 4, 6)
    reference_rows, rows[0] = rows[0], 0
    shared = verify.run_all(n_max=3, m_max=4, comparator_width_max=6)
    assert shared == reference
    assert all(r.passed for r in shared)
    # Per (maze, n), the fitness and validity circuits run all their gates.
    # The fitness circuit's forward part P = F W is the prefix its four
    # oracles share, so no oracle runs P or its mirror (P's gates reversed):
    # four runs of each are saved. So are three runs of the C // 2 oracle:
    # cleanup reads the oracle-sign run, and involution reads it again,
    # since that run restores its input.
    saved = 0
    for maze in (generate_maze(m, seed=0) for m in range(2, 5)):
        for n in range(1, 4):
            half = _oracles(maze, n)[make_spec(maze.size).offset // 2]
            saved += 4**n * (8 * _forward_hi(half) + 3 * len(half.gates))
    assert reference_rows - rows[0] == saved == 1_214_724


def test_run_all_twice_in_one_process_gives_the_reference_both_times():
    # The second call builds every circuit from gates the first put in circuits' gate table.
    first, second = verify.run_all(*_CAPS), verify.run_all(*_CAPS)
    assert first == second == _reference_run_all(*_CAPS)
    assert all(r.passed for r in first)


def test_run_all_packs_each_path_length_once(monkeypatch):
    packed = []

    def spy(circ, values, batch):
        if "path" in values:
            packed.append(circ.registers["path"].width // 2)
        return pack_rows(circ, values, batch)

    monkeypatch.setattr(verify, "pack_rows", spy)
    assert all(r.passed for r in verify.run_all(n_max=3, m_max=4, comparator_width_max=1))
    # One packing per n serves the fitness, validity and oracle layouts of every maze.
    assert packed == [1, 2, 3]


def test_run_all_builds_each_mazes_bounds_automaton_once(monkeypatch):
    built = []

    def spy(maze, n, mode, row_value):
        built.append((maze.size, mode))
        return path_automaton(maze, n, mode, row_value)

    monkeypatch.setattr(verify, "path_automaton", spy)
    assert all(r.passed for r in verify.run_all(n_max=3, m_max=4, comparator_width_max=1))
    assert built == [(m, SimMode.BOUNDS_ONLY) for m in (2, 3, 4)]


# ---------------------------------------------------------------------------
# Mutated comparators: the per-width reference must report what the per-case one reports


def _drop_comparator_gate(circ):
    at = len(circ.gates) // 2
    return circ.gates[:at] + circ.gates[at + 1 :]


def _x_on_flag(circ):
    return circ.gates + [(circ.registers["flag"].offset, ())]


def _corrupted_at(bad_w, edit):
    """``build_gt_comparator``, with ``edit``'s gates at width ``bad_w``'s cutoff 2**(bad_w - 1) - 1."""

    def builder(w, cutoff):
        circ = build_gt_comparator(w, cutoff)
        if (w, cutoff) != (bad_w, (1 << (bad_w - 1)) - 1):
            return circ
        return RevCircuit(circ.registers, edit(circ))

    return builder


def test_a_comparator_laid_out_anew_is_packed_anew():
    """At one cutoff ``flag`` comes first and ``f`` after it: the same wire count, ``f`` elsewhere."""

    def builder(w, cutoff):
        circ = build_gt_comparator(w, cutoff)
        if (w, cutoff) != (3, 2):
            return circ
        flag = circ.registers["flag"].offset
        wire = {flag: 0, **{b: b + 1 for b in range(flag)}}
        wire.update((b, b) for b in range(flag + 1, circ.num_bits))
        registers = {name: replace(r, offset=wire[r.offset]) for name, r in circ.registers.items()}
        gates = [(wire[t], tuple(wire[b] for b in c)) for t, c in circ.gates]
        return RevCircuit(registers, gates)

    got = verify.verify_comparator(3, builder)
    assert got.passed
    assert got == _reference_check("comparator", _comparator_cases(3, builder))


@pytest.mark.parametrize("width_max", range(1, 5), ids=lambda w: f"widthmax{w}")
@pytest.mark.parametrize("bad_w", range(1, 5), ids=lambda w: f"bad{w}")
@pytest.mark.parametrize("edit", [_drop_comparator_gate, _x_on_flag], ids=["drop-gate", "x-on-flag"])
def test_mutated_comparator_results_equal_the_reference(edit, bad_w, width_max):
    builder = _corrupted_at(bad_w, edit)
    got = verify.verify_comparator(width_max, builder)
    assert got == _reference_check("comparator", _comparator_cases(width_max, builder))
    assert got.passed == (bad_w > width_max)


# ---------------------------------------------------------------------------
# Mutated oracles: the shared run must report what the reference reports


def _forward_hi(circ) -> int:
    return circ.spans["distance_fitness"][1]


def _firing_site(circ) -> int:
    """The first prefix gate from the prefix's middle on whose controls are all 1 on some path row.

    A gate that fires on no row changes no wire, so the wires before each
    scanned gate are those after the gates before the middle. Editing a
    gate that never fires would change nothing, so a circuit without a
    firing gate there fails the assertion instead of making a test vacuous.
    """
    n, lo, hi = circ.registers["path"].width // 2, _forward_hi(circ) // 2, _forward_hi(circ)
    rows = pack_rows(circ, {"path": np.arange(4**n)}, 4**n)
    wires = run_batch(RevCircuit(circ.registers, circ.gates[:lo]), rows)[0].wires
    ones = (1 << rows.size) - 1
    fires = (at for at in range(lo, hi) if reduce(operator.and_, (wires[c] for c in circ.gates[at][1]), ones))
    at = next(fires, None)
    assert at is not None, "no prefix gate from the middle on fires on any path"
    return at


def _drop_prefix_gate(circ):
    at = _firing_site(circ)
    return circ.gates[:at] + circ.gates[at + 1 :]


def _drop_mirror_gate(circ):
    at = len(circ.gates) - 1 - _firing_site(circ)
    return circ.gates[:at] + circ.gates[at + 1 :]


def _move_mirror_target(circ):
    """Moves one mirror gate's target: the mirror's input is unchanged, its gates are not."""
    gates = list(circ.gates)
    at = len(gates) - 1 - _firing_site(circ)
    gates[at] = _moved_target(gates[at], circ.num_bits)
    return gates


def _drop_uncompare_gate(circ):
    """Drops the first gate of C^-1, so the mirror's input keeps that gate's bit flipped."""
    compare = (len(circ.gates) - 2 * _forward_hi(circ) - 1) // 2  # gates in C, before Z
    at = _forward_hi(circ) + compare + 1
    return circ.gates[:at] + circ.gates[at + 1 :]


def _drop_phase_mark(circ):
    return [g for g in circ.gates if g[1] is not None]


def _mark_in_prefix(circ):
    at = _forward_hi(circ) // 2
    return circ.gates[:at] + [(circ.registers["path"].offset, None)] + circ.gates[at:]


def _mark_in_prefix_and_mirror(circ):
    """One phase mark inside the prefix and the same object at the mirrored depth: the two signs cancel."""
    at, mark = _forward_hi(circ) // 2, (circ.registers["path"].offset, None)
    back = len(circ.gates) - at
    return circ.gates[:at] + [mark] + circ.gates[at:back] + [mark] + circ.gates[back:]


def _gates(edit):
    """An oracle edit from ``edit``, a gate-list edit; registers and spans stay."""
    return lambda circ: RevCircuit(circ.registers, edit(circ), circ.spans)


def _edit_oracles(monkeypatch, edit, cutoff, key=(3, 2)) -> list:
    """Has ``verify`` build the cutoff ``cutoff`` oracle of the m, n ``key`` as ``edit`` remakes it.

    ``edit`` takes and returns a ``RevCircuit``. The oracle builder knows
    the key by its fitness circuit, which the patched fitness builder keeps.
    Returns the edited oracles, in build order.
    """
    fits, edited = [], []

    def fitness_builder(maze, n):
        circ = build_fitness_circuit(maze, n)
        if (maze.size, n) == key:
            fits.append(circ)
        return circ

    def oracle_builder(fit, c):
        circ = build_oracle_circuit(fit, c)
        if c == cutoff and any(fit is f for f in fits):
            circ = edit(circ)
            edited.append(circ)
        return circ

    monkeypatch.setattr(verify, "build_fitness_circuit", fitness_builder)
    monkeypatch.setattr(verify, "build_oracle_circuit", oracle_builder)
    return edited


@pytest.mark.parametrize("index", range(4), ids=lambda i: f"cutoff{i}")
@pytest.mark.parametrize(
    "edit",
    [
        _drop_prefix_gate,
        _drop_mirror_gate,
        _move_mirror_target,
        _drop_uncompare_gate,
        _drop_phase_mark,
        _mark_in_prefix,
        _mark_in_prefix_and_mirror,
    ],
    ids=["prefix", "mirror", "mirror-target", "uncompare", "phase-mark", "mark-in-prefix", "mark-in-prefix-and-mirror"],
)
def test_mutated_oracle_results_equal_the_reference(monkeypatch, edit, index):
    assert len(verify._oracle_cutoffs(3)) == 4
    cutoff = verify._oracle_cutoffs(3)[index]
    edited = _edit_oracles(monkeypatch, _gates(edit), cutoff)
    shared, reference, ran = _run_all_and_reference(monkeypatch)
    if edit is _drop_uncompare_gate:
        # Its middle leaves a bit flipped, so the mirror is not proven.
        assert any(circ is edited[-1] for circ in ran)
    if edit is _mark_in_prefix_and_mirror:
        # The marks cancel, but the marked prefix is not the fitness
        # circuit's forward run, so the oracle runs whole at every cutoff.
        assert all(r.passed for r in shared)
        assert any(circ is edited[-1] for circ in ran)
    assert shared == reference
    # A dropped phase mark is invisible only at a cutoff that marks no path.
    blind = verify._blind_values(generate_maze(3, seed=0), 2)
    assert shared[3].passed == (
        edit is _mark_in_prefix_and_mirror or (edit is _drop_phase_mark and not (blind > cutoff).any())
    )


# ---------------------------------------------------------------------------
# Mutated fitness and validity circuits A M A^-1: each runs all its gates,
# and the result must be what the reference reports


def _first_len(kind, circ) -> int:
    """The length of A: the gates after the fitness write, or half of those besides validity's odd one."""
    if kind == "fitness":
        return len(circ.gates) - _forward_hi(circ)
    return (len(circ.gates) - 1) // 2


def _conjugated(kind, circ, edit) -> RevCircuit:
    """``circ`` with ``edit``'s (A, M, A^-1) gate lists; a fitness circuit's write still ends at M's end."""
    k, gates = _first_len(kind, circ), circ.gates
    first, middle, mirror = edit(circ, gates[:k], gates[k : len(gates) - k], gates[len(gates) - k :])
    spans = dict(circ.spans)
    if kind == "fitness":
        spans["distance_fitness"] = (spans["distance_fitness"][0], len(first) + len(middle))
    return RevCircuit(circ.registers, first + middle + mirror, spans)


def _cut_mirror(circ, first, middle, mirror):
    at = len(mirror) // 2
    return first, middle, mirror[:at] + mirror[at + 1 :]


def _retarget_mirror(circ, first, middle, mirror):
    at = len(mirror) // 2
    return first, middle, mirror[:at] + [_moved_target(mirror[at], circ.num_bits)] + mirror[at + 1 :]


def _middle_writes_path(circ, first, middle, mirror):
    """A NOT on a path bit, which A reads, after M."""
    return first, middle + [(circ.registers["path"].offset, ())], mirror


def _middle_flips_output(circ, first, middle, mirror):
    """A NOT on the output's low bit after M, which A never touches."""
    out = circ.registers["fit" if "fit" in circ.registers else "valid"]
    return first, middle + [(out.offset, ())], mirror


def _mark_in_first_and_mirror(circ, first, middle, mirror):
    """One phase mark inside A and the same object at the mirrored depth: the two signs cancel."""
    at, mark = len(first) // 2, (circ.registers["path"].offset, None)
    back = len(mirror) - at
    return first[:at] + [mark] + first[at:], middle, mirror[:back] + [mark] + mirror[back:]


def _copy_in_first(circ, first, middle, mirror):
    """An equal but distinct gate in A: the mirror still equals A reversed."""
    at = len(first) // 2
    return first[:at] + [_equal_copy(first[at], circ.num_bits)] + first[at + 1 :], middle, mirror


_CONJUGATE_EDITS = {
    "cut-mirror": _cut_mirror,
    "retarget-mirror": _retarget_mirror,
    "middle-writes-path": _middle_writes_path,
    "middle-flips-output": _middle_flips_output,
    "mark-in-first-and-mirror": _mark_in_first_and_mirror,
    "copy-in-first": _copy_in_first,
}


@pytest.mark.parametrize("edit", _CONJUGATE_EDITS.values(), ids=_CONJUGATE_EDITS.keys())
@pytest.mark.parametrize("kind", ["fitness", "validity"])
def test_mutated_fitness_and_validity_results_equal_the_reference(monkeypatch, kind, edit):
    build, made, built = (build_fitness_circuit if kind == "fitness" else build_validity_circuit), [], []

    def builder(maze, n):
        circ = build(maze, n)
        if (maze.size, n) == (3, 2):
            made.append((_conjugated(kind, circ, edit), circ))
            circ = made[-1][0]
        built.append(circ)
        return circ

    def oracle_builder(fit, cutoff):
        # Oracles are built from the unedited fitness circuit, so only this kind's suite sees the edit.
        return build_oracle_circuit(next((circ for bad, circ in made if bad is fit), fit), cutoff)

    monkeypatch.setattr(verify, f"build_{kind}_circuit", builder)
    monkeypatch.setattr(verify, "build_oracle_circuit", oracle_builder)
    got, reference, ran = _run_all_and_reference(monkeypatch)
    assert got == reference
    # The reference builds every circuit, then run_all does. Each of run_all's
    # runs all its gates, a fitness circuit as two segments, P and the rest.
    for circ in built[len(built) // 2 :]:
        assert [g for r in ran if r.registers is circ.registers for g in r.gates] == circ.gates
    assert got[0 if kind == "fitness" else 2].passed == (edit in (_mark_in_first_and_mirror, _copy_in_first))


@pytest.mark.parametrize("edit", _CONJUGATE_EDITS.values(), ids=_CONJUGATE_EDITS.keys())
def test_run_all_on_a_mutated_fitness_circuit_equals_the_reference(monkeypatch, edit):
    """The oracles share the mutated circuit's forward run: their prefix is its first gates.

    A phase mark in F is mirrored into each oracle with the rest of its prefix.
    """

    def builder(maze, n):
        circ = build_fitness_circuit(maze, n)
        return _conjugated("fitness", circ, edit) if (maze.size, n) == (3, 2) else circ

    monkeypatch.setattr(verify, "build_fitness_circuit", builder)
    reference = _reference_run_all(2, 3, 2)
    assert verify.run_all(n_max=2, m_max=3, comparator_width_max=2) == reference


# ---------------------------------------------------------------------------
# The prefix and mirrors are matched by gate equality, and the inputs by their wires


def _replace_forward_gate(circ, make):
    gates = list(circ.gates)
    at = _firing_site(circ)
    gates[at] = make(gates[at], circ.num_bits)
    return gates


def _equal_copy(gate, _num_bits):
    """A new tuple equal to ``gate``."""
    return gate[0], gate[1]


def _moved_target(gate, num_bits):
    t, c = gate
    return next(b for b in range(num_bits) if b not in (t, *c)), c


@pytest.mark.parametrize("index", range(4), ids=lambda i: f"cutoff{i}")
def test_an_equal_but_distinct_gate_is_proven_like_the_original(monkeypatch, index):
    rows = _gate_rows(monkeypatch)
    want = verify.run_all(*_CAPS)
    clean_rows, rows[0] = rows[0], 0

    cutoff = verify._oracle_cutoffs(3)[index]
    _edit_oracles(monkeypatch, _gates(lambda circ: _replace_forward_gate(circ, _equal_copy)), cutoff)
    got = verify.run_all(*_CAPS)
    assert got == want and all(r.passed for r in got)
    # The copied gate equals the original, so its oracle's prefix and mirror are proven: no more rows ran.
    assert rows[0] == clean_rows
    assert got == _reference_run_all(*_CAPS)


@pytest.mark.parametrize("index", range(4), ids=lambda i: f"cutoff{i}")
def test_a_moved_target_fails_oracle_sign_at_its_cutoff(monkeypatch, index):
    cutoff = verify._oracle_cutoffs(3)[index]
    _edit_oracles(monkeypatch, _gates(lambda circ: _replace_forward_gate(circ, _moved_target)), cutoff)
    got, reference, _ = _run_all_and_reference(monkeypatch)
    sign = got[3]
    assert not sign.passed
    assert sign.counterexample.startswith(f"m=3 n=2 cutoff={cutoff} path=")
    assert got == reference


def _path_elsewhere(circ):
    registers = dict(circ.registers)
    registers["path"] = replace(registers["path"], offset=registers["pos_i"].offset)
    return RevCircuit(registers, circ.gates, circ.spans)


@pytest.mark.parametrize("index", range(4), ids=lambda i: f"cutoff{i}")
def test_an_oracle_packed_elsewhere_runs_whole(monkeypatch, index):
    """The same gates, but ``path`` labels other wires: the shared prefix output does not apply."""
    edited = _edit_oracles(monkeypatch, _path_elsewhere, verify._oracle_cutoffs(3)[index])
    got, reference, ran = _run_all_and_reference(monkeypatch)
    assert not got[3].passed
    assert any(circ is edited[-1] for circ in ran)
    assert got == reference


# ---------------------------------------------------------------------------
# Failure reports


def _all_signs_flipped(circ):
    """The oracle, then X Z X on ``flag``: flag is 0 on every row after the oracle, so every sign flips."""
    flag = circ.registers["flag"].offset
    return RevCircuit(circ.registers, circ.gates + [(flag, ()), (flag, None), (flag, ())], circ.spans)


def test_all_wrong_signs_report_every_row(monkeypatch):
    m, n = 2, 8
    _edit_oracles(monkeypatch, _all_signs_flipped, make_spec(m).offset // 2, key=(m, n))
    got, reference, _ = _run_all_and_reference(monkeypatch, caps=(n, m, 1))
    assert got[3].failures == 4**n
    assert got == reference
