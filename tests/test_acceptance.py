"""Acceptance suite: the end-to-end contract, one criterion per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import math
import time

import numpy as np

from qmaze import codec, verify
from qmaze.adaptive import Policy, SearchConfig, Status, Strictness, marked_for_cutoff, run_adaptive
from qmaze.circuits import (
    RevCircuit,
    build_fitness_circuit,
    build_gt_comparator,
    build_oracle_circuit,
    build_validity_circuit,
    count_gates,
    pack_rows,
    run_batch,
    unpack_column,
)
from qmaze.cli import main as cli_main
from qmaze.engine import (
    GroverGeometry,
    apply_diffuser,
    apply_oracle,
    optimal_rounds,
    prepare_uniform,
)
from qmaze.fitness import Formula, landscape, make_spec
from qmaze.maze import Maze, SimMode, generate_maze, simulate_path
from qmaze.resources import linear_fit, measured
from reference import run_on_basis

EXAMPLE_MAZE = Maze(2, ((0b0110, 0b0001), (0b1100, 0b0001)), (0, 0), (1, 1))


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_worked_example():
    from qmaze.fitness import fitness as fitness_fn

    t0 = time.perf_counter()
    spec = make_spec(2, Formula.MAIN, SimMode.WALL_AWARE)
    path = codec.decode_index(0b1001, 2)
    classical = fitness_fn(EXAMPLE_MAZE, path, spec)

    fit_circ = build_fitness_circuit(EXAMPLE_MAZE, 2)
    out, _ = run_on_basis(fit_circ, dict.fromkeys(fit_circ.registers, 0) | {"path": 0b1001})
    register = out["fit"]

    oracle = build_oracle_circuit(fit_circ, cutoff=2)
    _, sign = run_on_basis(oracle, dict.fromkeys(oracle.registers, 0) | {"path": 0b1001})
    elapsed = time.perf_counter() - t0

    ok = classical == 4 and register == 0b100 and sign == -1 and elapsed < 1.0
    report(
        "criterion-1 worked example",
        ok,
        f"classical={classical} register={register:b} sign={sign} ({elapsed:.3f}s)",
    )


def test_criterion_2_comparator_exact():
    t0 = time.perf_counter()
    mismatches = 0
    pairs = 0
    for w in range(1, 7):
        span = 1 << w
        for cutoff in range(span):
            circ = build_gt_comparator(w, cutoff)
            rows = pack_rows(circ, {"f": np.arange(span)}, span)
            out, _ = run_batch(circ, rows)
            got = unpack_column(circ, out, "flag")
            mismatches += int(np.sum(got != (np.arange(span) > cutoff)))
            pairs += span
    pinned = build_gt_comparator(4, 9)
    hit, _ = run_on_basis(pinned, dict.fromkeys(pinned.registers, 0) | {"f": 11})
    miss, _ = run_on_basis(pinned, dict.fromkeys(pinned.registers, 0) | {"f": 5})
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and hit["flag"] == 1 and miss["flag"] == 0 and elapsed < 10.0
    report(
        "criterion-2 comparator exactness",
        ok,
        f"{pairs} pairs, {mismatches} mismatches, (11,9)->{hit['flag']} "
        f"(5,9)->{miss['flag']} ({elapsed:.2f}s)",
    )


def test_criterion_3_superposition_exact():
    worst_n = None
    for n in range(0, 9):
        state = prepare_uniform(n)
        if not (state.dim == 4**n and np.all(state.amps == 1.0 / 2**n)):
            worst_n = n
            break
    report(
        "criterion-3 uniform superposition",
        worst_n is None,
        "amplitudes exactly 1/2^n for n <= 8" if worst_n is None else f"failed at n={worst_n}",
    )


def test_criterion_4_rotation_dynamics():
    t0 = time.perf_counter()
    worst_err = 0.0
    argmax_ok = True
    for n in range(1, 7):
        big_n = 4**n
        for k in sorted({1, 2, big_n // 4, big_n // 2, big_n - 1}):
            geometry = GroverGeometry(big_n, k)
            r_star = optimal_rounds(geometry)
            marked = np.arange(k)
            state = prepare_uniform(n)
            probs = []
            for r in range(3 * max(1, r_star) + 1):
                probs.append(state.marked_probability(marked))
                worst_err = max(worst_err, abs(probs[-1] - geometry.success_probability(r)))
                state = apply_diffuser(apply_oracle(state, marked))
            first_period = probs[: 2 * r_star + 2]
            argmax_ok &= abs(int(np.argmax(first_period)) - r_star) <= 1
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-9 and argmax_ok and elapsed < 60.0
    report(
        "criterion-4 rotation dynamics",
        ok,
        f"max |sim - sin^2((2r+1)theta)| = {worst_err:.2e}, argmax within 1 of r* "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_oracle_interchangeable():
    mismatches = 0
    cases = 0
    for m in (2, 3, 4):
        spec = make_spec(m, Formula.MAIN, SimMode.WALL_BLIND)
        maze = generate_maze(m, seed=0)
        for n in (1, 2, 3):
            scape = landscape(maze, n, spec)
            fitness_circ = build_fitness_circuit(maze, n)
            for cutoff in sorted({0, 1, spec.offset // 2, spec.offset - 1}):
                circ = build_oracle_circuit(fitness_circ, cutoff)
                rows = pack_rows(circ, {"path": np.arange(4**n)}, 4**n)
                out, signs = run_batch(circ, rows)
                marked = np.zeros(4**n, dtype=bool)
                marked[marked_for_cutoff(scape, cutoff, Strictness.STRICT)] = True
                want = np.where(marked, -1, 1)
                mismatches += int(np.sum(signs != want))
                doubled = RevCircuit(circ.registers, circ.gates + circ.gates)
                out2, signs2 = run_batch(doubled, rows)
                mismatches += int(np.sum(signs2 != 1))
                for name in circ.registers:
                    ref = np.arange(4**n) if name == "path" else 0
                    mismatches += int(np.sum(unpack_column(circ, out, name) != ref))
                    mismatches += int(np.sum(unpack_column(circ, out2, name) != ref))
                cases += 4**n
    report(
        "criterion-5 oracle interchangeability",
        mismatches == 0,
        f"{cases} basis cases across m<=4, n<=3: {mismatches} mismatches",
    )


def test_criterion_6_validity_operator():
    mismatches = 0
    cases = 0
    for m in (2, 3, 4):
        maze = generate_maze(m, seed=0)
        for n in (1, 2, 3):
            circ = build_validity_circuit(maze, n)
            rows = pack_rows(circ, {"path": np.arange(4**n)}, 4**n)
            out, _ = run_batch(circ, rows)
            got = unpack_column(circ, out, "valid")
            want = np.array(
                [
                    int(simulate_path(maze, codec.decode_index(u, n), SimMode.BOUNDS_ONLY).fail_step is None)
                    for u in range(4**n)
                ]
            )
            mismatches += int(np.sum(got != want))
            cases += 4**n
    report(
        "criterion-6 validity operator",
        mismatches == 0,
        f"{cases} paths across m in 2..4, n <= 3: {mismatches} mismatches",
    )


def test_criterion_7_cutoff_convergence():
    t0 = time.perf_counter()
    epsilon = 0.05
    runs = 100
    successes = 0
    monotone_ok = True
    increase_ok = True
    sizes = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
    for i in range(runs):
        m, n = sizes[i % len(sizes)]
        maze = generate_maze(m, seed=i)
        scape = landscape(maze, n, make_spec(m))
        config = SearchConfig(
            initial_cutoff=0, max_rounds=32,
            policy=Policy.KNOWN_K, samples=3, seed=10_000 + i,
        )
        trace = run_adaptive(scape, config)
        cutoffs = [r.cutoff for r in trace.rounds]
        monotone_ok &= all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))
        increase_ok &= sum(r.new_cutoff > r.cutoff for r in trace.rounds) <= scape.f_max - 0
        successes += int(
            trace.status is Status.CONVERGED_OPTIMAL and trace.best_fitness == scape.f_max
        )
    fraction = successes / runs
    margin = 3 * math.sqrt(epsilon * (1 - epsilon) / runs)
    elapsed = time.perf_counter() - t0
    ok = monotone_ok and increase_ok and fraction >= 1 - epsilon - margin and elapsed < 300
    report(
        "criterion-7 cutoff convergence",
        ok,
        f"{successes}/{runs} optimal (need >= {1 - epsilon - margin:.3f}), "
        f"monotone={monotone_ok}, increases bounded={increase_ok} ({elapsed:.1f}s)",
    )


def test_criterion_8_resource_scaling():
    widths = list(range(2, 9))
    cmp_tof = [
        count_gates(build_gt_comparator(w, 2 ** (w - 1) + 1)).toffoli for w in widths
    ]
    cmp_fit = linear_fit(widths, cmp_tof)

    ns = list(range(1, 7))
    walk_tof = [measured(generate_maze(4, seed=0), n).stages["path_sim"].toffoli for n in ns]
    walk_fit = linear_fit(ns, walk_tof)

    path_ok = True
    for m in (2, 3, 4):
        maze = generate_maze(m, seed=0)
        for n in (1, 2, 3):
            fitness_circ = build_fitness_circuit(maze, n)
            for circ in (
                fitness_circ,
                build_oracle_circuit(fitness_circ, 1),
                build_validity_circuit(maze, n),
            ):
                path_ok &= circ.registers["path"].width == 2 * n

    ok = cmp_fit.residual_ratio < 0.05 and walk_fit.residual_ratio < 0.05 and path_ok
    report(
        "criterion-8 resource scaling",
        ok,
        f"comparator fit residual {cmp_fit.residual_ratio:.4f}, path-sim fit residual "
        f"{walk_fit.residual_ratio:.4f}, path register 2n everywhere: {path_ok}",
    )


def test_criterion_9_solver_determinism(tmp_path, capsys):
    blobs = []
    maze_file = tmp_path / "maze.txt"
    maze_file.write_text("2 0 0 1 1\n61\nc1\n")
    for fmt in ("csv", "json"):
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{fmt}-{run}"
            code = cli_main(
                [
                    "solve", "--maze", str(maze_file), "--n", "2", "--seed", "77",
                    "--format", fmt, "--out", str(out),
                ]
            )
            assert code == 0
            pair.append(out.read_bytes() + capsys.readouterr().out.encode())
        blobs.append(pair[0] == pair[1])
    with capsys.disabled():
        report(
            "criterion-9 determinism",
            all(blobs),
            f"csv identical={blobs[0]}, json identical={blobs[1]}",
        )


def test_verification_suites_all_green():
    # The cross-module suites behind `qmaze verify`, at the acceptance caps.
    results = verify.run_all(n_max=3, m_max=4, comparator_width_max=6)
    bad = [r for r in results if not r.passed]
    report(
        "verification suites",
        not bad,
        ", ".join(f"{r.name}({r.checked})" for r in results) if not bad else str(bad[0]),
    )
