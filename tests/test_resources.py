"""Resource model: predicted widths/counts must equal the built circuits."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from qmaze.circuits import arith_width, build_gt_comparator, count_gates, position_width
from qmaze.fitness import make_spec
from qmaze.maze import generate_maze
from qmaze.resources import (
    FitClaim,
    _square_counts,
    check_asymptotics,
    comparator_counts,
    linear_fit,
    measured,
    predict,
)
from reference import build_squarer

GRID = [(n, m) for m in (2, 3, 4) for n in (1, 2, 3)]


def test_path_register_is_2n():
    for n, m in GRID:
        maze = generate_maze(m, seed=0)
        assert predict(maze, n).register_widths["path"] == 2 * n
        assert measured(maze, n).register_widths["path"] == 2 * n


def test_fitness_width_for_2x2():
    assert make_spec(2).offset == 4
    report = predict(generate_maze(2, seed=0), 2)
    # Width covers both the +C top and the most negative wall-blind score.
    assert report.register_widths["fit"] == arith_width(2, 2) == 5


# Up to the verify command's caps; position widths change inside this range.
# Each size also runs with the corners swapped and with a central pair.
@pytest.mark.parametrize("n,m", [(n, m) for m in range(2, 9) for n in range(1, 10)])
def test_predict_matches_measured_exactly(n, m):
    c = m // 2
    for start, goal in (((0, 0), (m - 1, m - 1)), ((m - 1, m - 1), (0, 0)), ((c, c), (c - 1, c))):
        maze = replace(generate_maze(m, seed=0), start=start, goal=goal)
        pred = predict(maze, n)
        act = measured(maze, n)
        assert pred.register_widths == act.register_widths
        assert pred.ancilla == act.ancilla
        for stage in ("path_sim", "distance_fitness", "comparator", "oracle_total"):
            assert pred.stages[stage] == act.stages[stage], (n, m, start, goal, stage)


@pytest.mark.parametrize("n,m", GRID)
def test_ancilla_high_water_within_budget(n, m):
    maze = generate_maze(m, seed=0)
    assert measured(maze, n).ancilla <= predict(maze, n).ancilla


def test_total_qubits_identity():
    report = predict(generate_maze(3, seed=0), 2)
    assert report.total_qubits == sum(report.register_widths.values()) + report.ancilla


def test_measured_depth_below_prediction_bound():
    for n, m in [(1, 2), (2, 3)]:
        maze = generate_maze(m, seed=0)
        assert 0 < measured(maze, n).depth <= predict(maze, n).depth


def test_path_sim_doubling_ratio():
    # Doubling n at fixed m must not much more than double the walk cost.
    # The per-step cost is proportional to the increment chain, w - 1 for
    # position width w, so the clean <= 2.2 bound applies where the width is
    # stable across the doubling; in general the ratio is exactly
    # 2 * (w(2n) - 1)/(w(n) - 1).
    maze = generate_maze(4, seed=0)
    for n in (1, 2, 3):
        a = measured(maze, n).stages["path_sim"].toffoli
        b = measured(maze, 2 * n).stages["path_sim"].toffoli
        w_a, w_b = position_width(4, n), position_width(4, 2 * n)
        assert b / a == pytest.approx(2 * (w_b - 1) / (w_a - 1))
        if w_a == w_b:
            assert b / a <= 2.2


def test_comparator_counts_formula_matches_circuit():
    for w in range(1, 9):
        for cutoff in (0, 1, 2 ** (w - 1) + 1, 2**w - 2, 2**w - 1):
            want = count_gates(build_gt_comparator(w, cutoff))
            got = comparator_counts(w, cutoff)
            assert (got.toffoli, got.cnot, got.nots) == (want.toffoli, want.cnot, want.nots)


def test_square_counts_formula_matches_circuit():
    for w in range(1, 10):
        assert _square_counts(w, w - 1) == count_gates(build_squarer(w, w)), w
        # The source's sign bit repeated up to the output width, as in the fitness circuit.
        for extend in range(1, 8):
            want = count_gates(build_squarer(w, w + extend, extend))
            assert _square_counts(w + extend, w - 1) == want, (w, extend)


def test_comparator_fit_is_linear():
    claims = check_asymptotics(generate_maze(4, seed=0), range(1, 7))
    cmp_claim = claims["comparator_linear_in_width"]
    assert cmp_claim.passed
    assert cmp_claim.residual_ratio < 1e-12  # the fixed cutoff shape is exactly linear
    assert cmp_claim.slope == pytest.approx(3.0)


def test_fits_on_exact_lines_are_exact():
    # `qmaze resources --n 2 --m 2` fits these; both sets of counts lie on a line.
    claims = check_asymptotics(generate_maze(2, seed=0), range(1, 4))
    walk, cmp_claim = claims["path_sim_linear_in_n_times_width"], claims["comparator_linear_in_width"]
    assert (walk.slope, walk.intercept, walk.residual_ratio) == (4.0, 0.0, 0.0)
    assert (cmp_claim.slope, cmp_claim.intercept, cmp_claim.residual_ratio) == (3.0, -6.0, 0.0)
    assert f"{walk.intercept:.3f}" == "0.000"


def test_linear_fit_rejects_a_single_x_value():
    with pytest.raises(ValueError):
        linear_fit([2, 2, 2], [1, 2, 3])


def test_path_sim_fit_under_threshold():
    claims = check_asymptotics(generate_maze(4, seed=0), range(1, 7))
    walk = claims["path_sim_linear_in_n_times_width"]
    assert walk.passed
    assert walk.residual_ratio < 0.05


# `qmaze resources --n N --m M` fits n = 1..max(3, N); the position width
# steps inside that range at many of these sizes, and the fit must still pass.
@pytest.mark.parametrize("m", range(2, 9))
def test_walk_fit_passes_at_every_cli_size(m):
    maze = generate_maze(m, seed=0)
    for n in range(1, 13):
        walk = check_asymptotics(maze, range(1, max(3, n) + 1))["path_sim_linear_in_n_times_width"]
        assert walk.passed, (m, n, walk)


def test_walk_fit_rejects_a_quadratic_cost():
    # A walk that cost n^2 * (w - 1) Toffolis would fail the same fit.
    ns = range(1, 10)
    chain_lengths = [n * (position_width(8, n) - 1) for n in ns]
    quadratic = linear_fit(chain_lengths, [n * x for n, x in zip(ns, chain_lengths)])
    assert not quadratic.passed
    assert quadratic.residual_ratio == pytest.approx(0.14, abs=0.005)


def test_check_asymptotics_rejects_sparse_input():
    with pytest.raises(ValueError):
        check_asymptotics(generate_maze(4, seed=0), [1, 2])


def test_linear_fit_recovers_exact_line():
    fit = linear_fit([1, 2, 3, 4], [5, 7, 9, 11])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(3.0)
    assert fit.residual_ratio < 1e-12
    assert fit.passed


def test_report_serializes_to_json():
    doc = json.loads(json.dumps(predict(generate_maze(2, seed=0), 2).as_dict()))
    assert doc["register_widths"]["path"] == 4
    assert doc["total_qubits"] == doc["ancilla"] + sum(doc["register_widths"].values())


def test_predict_rejects_bad_args():
    with pytest.raises(ValueError):
        predict(generate_maze(2, seed=0), 0)
    with pytest.raises(ValueError):
        predict(generate_maze(1, seed=0), 1)


def test_position_width_offset_correction():
    # Offset encoding widens positions beyond ceil(log2 m).
    for n, m in GRID:
        assert position_width(m, n) >= (m - 1).bit_length() + 1


def test_fit_claim_threshold():
    assert FitClaim(1.0, 0.0, 0.049).passed
    assert not FitClaim(1.0, 0.0, 0.051).passed
