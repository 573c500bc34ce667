"""Command-line behavior: exit codes, determinism, formats, verification."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qmaze import cli, fitness, resources, verify
from qmaze.adaptive import SearchConfig, run_adaptive
from qmaze.circuits import RevCircuit, build_gt_comparator, build_oracle_circuit
from qmaze.cli import main, parse_config, UsageError
from qmaze.fitness import landscape, make_spec
from qmaze.maze import parse_maze


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # Only `verify` and `resources` need the circuits.
        pytest.param("qmaze.cli", ("qmaze.verify", "qmaze.resources", "qmaze.circuits"), id="qmaze.cli"),
        # The package root holds only `__version__`.
        pytest.param("qmaze", ("numpy", "qmaze.*"), id="qmaze"),
    ],
)
def test_cli_import_leaves_the_circuit_layer_unloaded(module, unloaded):
    """A fresh import of ``module`` loads no module that matches a pattern in ``unloaded``."""
    probe = (
        f"import sys, {module}, fnmatch; "
        "print([m for m in sys.modules if any(fnmatch.fnmatchcase(m, p) for p in sys.argv[1:])])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *unloaded],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# generate


def test_generate_round_trips(tmp_path, capsys):
    out = tmp_path / "maze.txt"
    code, _, _ = run_cli(capsys, "generate", "--m", "2", "--seed", "7", "--out", str(out))
    assert code == 0
    maze = parse_maze(out.read_text())
    assert maze.size == 2
    # Writing it again produces the identical file.
    out2 = tmp_path / "maze2.txt"
    run_cli(capsys, "generate", "--m", "2", "--seed", "7", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_generate_rejects_small_m(capsys):
    code, stdout, err = run_cli(capsys, "generate", "--m", "1")
    assert code == 2
    assert "m must be" in err
    assert err == "error: --m must be >= 2\n" and stdout == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "3", "--start", "5", "5"], "--start 5 5 lies outside the 3x3 grid"),
        (["--m", "3", "--goal", "0", "-1"], "--goal 0 -1 lies outside the 3x3 grid"),
        (["--m", "3", "--start", "2", "2"], "--start and --goal must differ"),
        (["--m", "3", "--seed", "-5"], "--seed must be >= 0"),
    ],
    ids=["start-outside", "goal-outside", "start-is-goal", "seed-negative"],
)
def test_generate_bad_cells_exit_2(flags, message, capsys):
    code, stdout, err = run_cli(capsys, "generate", *flags)
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""


def test_generate_16x16_valid(tmp_path, capsys):
    out = tmp_path / "m16.txt"
    code, _, _ = run_cli(capsys, "generate", "--m", "16", "--seed", "3", "--out", str(out))
    assert code == 0
    parse_maze(out.read_text())  # validator is the oracle


# ---------------------------------------------------------------------------
# solve


@pytest.fixture
def example_maze_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text("2 0 0 1 1\n61\nc1\n")
    return path


def test_solve_example_maze(example_maze_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(
        capsys, "solve", "--maze", str(example_maze_file), "--n", "2",
        "--seed", "4", "--cutoff0", "0", "--out", str(out),
    )
    assert code == 0
    assert "best path: SE (|1001>) fitness 4" in stdout
    assert "optimal: yes" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "round,cutoff,k,theta,r,outcome_index,outcome_fitness,new_cutoff"
    assert len(lines) >= 2


def test_solve_byte_identical_reruns(example_maze_file, tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, stdout, _ = run_cli(
            capsys, "solve", "--maze", str(example_maze_file), "--n", "2",
            "--seed", "123", "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes() + stdout.encode())
    assert outs[0] == outs[1]


def test_solve_json_byte_identical(example_maze_file, tmp_path, capsys):
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "solve", "--maze", str(example_maze_file), "--n", "2",
            "--seed", "9", "--format", "json", "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["status"] == "converged-optimal"
    assert doc["best"]["letters"] == "SE"
    assert doc["best"]["bits"] == "1001"


def test_solve_degenerate_reports_status(example_maze_file, tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "solve", "--maze", str(example_maze_file), "--n", "2",
        "--cutoff0", "4", "--strictness", "strict", "--seed", "1",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0  # degenerate is a status, not an error
    assert "status: degenerate" in stdout


def test_solve_from_generated_maze(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "solve", "--m", "3", "--n", "4", "--seed", "2",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "status:" in stdout


def test_solve_defaults_are_search_configs(monkeypatch, capsys):
    configs, specs = [], []

    def capture(scape, config):
        configs.append(config)
        return run_adaptive(scape, config)

    def capture_spec(maze, n, spec):
        specs.append(spec)
        return landscape(maze, n, spec)

    monkeypatch.setattr(cli, "run_adaptive", capture)
    monkeypatch.setattr(fitness, "landscape", capture_spec)
    code, _, _ = run_cli(capsys, "solve", "--m", "3", "--n", "2")
    assert code == 0
    assert configs == [SearchConfig(seed=cli._child_seed(0, 1))]
    assert specs == [make_spec(3)]


def test_solve_requires_inputs(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "2")
    assert code == 2
    assert "--maze" in err or "--m" in err


def test_solve_with_config_file(example_maze_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"maze = {example_maze_file}\nn = 2\nseed = 4\ncutoff0 = 0\n"
        "samples = 3\nformat = csv\n# comment line\n"
    )
    out = tmp_path / "via_config.csv"
    code, stdout, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    direct = tmp_path / "direct.csv"
    run_cli(
        capsys, "solve", "--maze", str(example_maze_file), "--n", "2",
        "--seed", "4", "--cutoff0", "0", "--out", str(direct),
    )
    assert out.read_bytes() == direct.read_bytes()


def test_solve_rejects_bad_config_format_before_solving(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 3\nn = 2\nformat = xml\n")
    code, stdout, err = run_cli(capsys, "solve", "--config", str(config))
    assert code == 2
    assert "--format must be one of: csv, json" in err
    assert stdout == ""


@pytest.mark.parametrize(
    "config, flags",
    [
        ("", ["--maze", "MAZE", "--m", "7", "--n", "2"]),
        ("maze = MAZE\nm = 7\nn = 2\n", []),
        ("maze = MAZE\nn = 2\n", ["--m", "7"]),
    ],
    ids=["flags", "config", "config-and-flag"],
)
def test_solve_rejects_maze_with_m(config, flags, example_maze_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.replace("MAZE", str(example_maze_file)))
    flags = [str(example_maze_file) if flag == "MAZE" else flag for flag in flags]
    config_flags = ["--config", str(cfg)] if config else []
    code, stdout, err = run_cli(capsys, "solve", *config_flags, *flags)
    assert code == 2
    assert err == "error: --maze and --m cannot both be given\n"
    assert stdout == ""


def test_config_rejects_unknown_key():
    with pytest.raises(UsageError, match="unknown key"):
        parse_config("n = 2\nbogus = 1\n")
    with pytest.raises(UsageError, match="unknown key"):
        parse_config("n = 2\nepsilon = 0.05\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_config("n = 2\nn = 3\n")
    with pytest.raises(UsageError, match="bad value"):
        parse_config("n = two\n")


def test_solve_missing_maze_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--maze", str(tmp_path / "nope.txt"),
                           "--n", "2", "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "cannot read maze" in err


@pytest.mark.parametrize("flag, what", [("--maze", "maze"), ("--config", "config")])
def test_solve_unreadable_text_exits_2(flag, what, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes.fromhex("fffe00626164"))  # not UTF-8
    code, stdout, err = run_cli(capsys, "solve", flag, str(bad), "--n", "2")
    assert code == 2
    assert err.startswith(f"error: cannot read {what}: ")
    assert stdout == ""


def test_solve_rejects_bad_maze_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0 0 1 1\n63\nc9\n")  # cycle
    code, _, err = run_cli(capsys, "solve", "--maze", str(bad), "--n", "2",
                           "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "not a tree" in err


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_peak_at_optimum(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    code, _, _ = run_cli(
        capsys, "dynamics", "--n", "2", "--k", "1", "--rmax", "6", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,predicted,simulated"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    for _, predicted, simulated in rows:
        assert abs(float(predicted) - float(simulated)) < 1e-9
    probs = [float(p) for _, p, _ in rows]
    # First-period peak sits within one round of the closed-form optimum (2).
    assert max(range(4), key=lambda r: probs[r]) in (2, 3)


def test_dynamics_all_marked(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    code, _, _ = run_cli(
        capsys, "dynamics", "--n", "1", "--k", "4", "--rmax", "3", "--out", str(out)
    )
    assert code == 0
    for line in out.read_text().strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0)


def test_dynamics_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "dynamics", "--n", "1", "--k", "5")
    assert code == 2
    assert "--k" in err


def test_dynamics_rejects_negative_rmax(capsys):
    code, stdout, err = run_cli(capsys, "dynamics", "--n", "2", "--k", "1", "--rmax", "-1")
    assert code == 2
    assert err == "error: --rmax must be >= 0\n"
    assert stdout == ""


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "caps,cases",
    [
        (["--nmax", "2", "--mmax", "3", "--widthmax", "4"], (40, 340, 40, 160, 40, 40)),
        ([], (252, 5460, 252, 1008, 252, 252)),
    ],
    ids=["small", "defaults"],
)
def test_verify_passes_at_small_caps(capsys, caps, cases):
    code, stdout, _ = run_cli(capsys, "verify", *caps)
    assert code == 0
    assert stdout.count("PASS") == 6
    assert "FAIL" not in stdout
    names = ("fitness", "comparator", "validity", "oracle-sign", "ancilla-cleanup", "involution")
    assert stdout == "".join(f"PASS {name} ({count} cases)\n" for name, count in zip(names, cases))


def test_verify_cap_exceeded(capsys):
    for flag, value in (("--nmax", "10"), ("--mmax", "9"), ("--widthmax", "9")):
        code, _, err = run_cli(capsys, "verify", flag, value)
        assert code == 2
        assert flag in err


def test_verify_accepts_its_caps(monkeypatch, capsys):
    caps = []
    monkeypatch.setattr(verify, "run_all", lambda *args: caps.append(args) or [])
    code, stdout, err = run_cli(capsys, "verify", "--nmax", "9", "--mmax", "8", "--widthmax", "8")
    assert (code, stdout, err) == (0, "", "")
    assert caps == [(9, 8, 8)]


def test_verify_exits_1_when_a_suite_fails(monkeypatch, capsys):
    results = [verify.SuiteResult("fitness", 4, 0), verify.SuiteResult("comparator", 4, 1, "w=1 f=1 c=0: x")]
    monkeypatch.setattr(verify, "run_all", lambda *caps: results)
    code, stdout, _ = run_cli(capsys, "verify")
    assert code == 1
    assert stdout == "PASS fitness (4 cases)\nFAIL comparator: w=1 f=1 c=0: x\n"


def test_verify_reports_counterexample_for_corrupted_comparator():
    def corrupted(width, cutoff):
        circ = build_gt_comparator(width, cutoff)
        if width == 3 and cutoff == 2:
            circ.gates = circ.gates[:-1]  # drop a cleanup gate
        return circ

    result = verify.verify_comparator(width_max=3, builder=corrupted)
    assert not result.passed
    assert result.counterexample is not None
    assert "w=3" in result.counterexample


def _dropped(circ: RevCircuit, index: int = -1) -> RevCircuit:
    """The same circuit with one gate removed."""
    gates = list(circ.gates)
    del gates[index]
    return RevCircuit(circ.registers, gates, circ.spans)


def _suite(name: str) -> verify.SuiteResult:
    """The ``name`` suite's result from ``run_all`` over m 2-3, n 1-2 and comparator width 1."""
    return next(r for r in verify.run_all(n_max=2, m_max=3, comparator_width_max=1) if r.name == name)


def _corrupt_at_3_2(monkeypatch, name: str, edit):
    """Has ``verify`` build its m = 3, n = 2 ``name`` circuit as ``edit`` remakes it."""
    build = getattr(verify, name)

    def builder(maze, n):
        circ = build(maze, n)
        return edit(circ) if (maze.size, n) == (3, 2) else circ

    monkeypatch.setattr(verify, name, builder)


def _corrupt_fitness(monkeypatch):
    _corrupt_at_3_2(monkeypatch, "build_fitness_circuit", _dropped)
    return _suite("fitness")


def _corrupt_comparator(_monkeypatch):
    def builder(width, cutoff):
        circ = build_gt_comparator(width, cutoff)
        return _dropped(circ) if (width, cutoff) == (3, 2) else circ

    return verify.verify_comparator(width_max=3, builder=builder)


def _corrupt_validity(monkeypatch):
    _corrupt_at_3_2(monkeypatch, "build_validity_circuit", _dropped)
    return _suite("validity")


def _corrupt_oracle(monkeypatch, edit):
    """Has ``verify`` build the m = 3, n = 2 oracle at the cutoff C // 2 = 8 as ``edit`` remakes it.

    The oracle builder knows that key by its fitness circuit, whose path
    register is 4 bits wide, and at m = 2 no oracle has the cutoff 8.
    """
    assert 8 not in verify._oracle_cutoffs(2)

    def builder(fit, cutoff):
        circ = build_oracle_circuit(fit, cutoff)
        return edit(circ) if (fit.registers["path"].width, cutoff) == (4, 8) else circ

    monkeypatch.setattr(verify, "build_oracle_circuit", builder)


def _corrupt_oracle_sign(monkeypatch):
    _corrupt_oracle(monkeypatch, lambda circ: RevCircuit(circ.registers, [g for g in circ.gates if g[1] is not None]))
    return _suite("oracle-sign")


def _corrupt_cleanup(monkeypatch):
    _corrupt_oracle(monkeypatch, _dropped)
    return _suite("ancilla-cleanup")


def _corrupt_involution(monkeypatch):
    _corrupt_oracle(monkeypatch, lambda circ: _dropped(circ, 0))
    return _suite("involution")


@pytest.mark.parametrize(
    "run,where,found",
    [
        pytest.param(_corrupt_fitness, "m=3 n=2 path=0000", "register 'pos_i' 2, expected 0", id="fitness"),
        pytest.param(_corrupt_comparator, "w=3 f=0 c=2", "register 'f' 4, expected 0", id="comparator"),
        pytest.param(_corrupt_validity, "m=3 n=2 path=0000", "register 'path' 8, expected 0", id="validity"),
        pytest.param(_corrupt_oracle_sign, "m=3 n=2 cutoff=8 path=0101", "sign 1, expected -1", id="oracle-sign"),
        pytest.param(_corrupt_cleanup, "m=3 n=2 path=0000", "register 'pos_i' 2, expected 0", id="ancilla-cleanup"),
        pytest.param(
            _corrupt_involution, "m=3 n=2 (oracle twice) path=0101", "sign -1, expected 1", id="involution"
        ),
    ],
)
def test_each_suite_names_a_counterexample_for_a_corrupted_circuit(request, monkeypatch, run, where, found):
    result = run(monkeypatch)
    assert result.name == request.node.callspec.id
    assert not result.passed and result.failures > 0
    assert result.counterexample == f"{where}: {found}"


# ---------------------------------------------------------------------------
# resources and sweep


def test_resources_table(capsys):
    code, stdout, _ = run_cli(capsys, "resources", "--n", "2", "--m", "2")
    assert code == 0
    assert "path" in stdout
    assert "-> PASS" in stdout
    assert "FAIL" not in stdout.replace("-> PASS", "")


def test_resources_json_schema(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, _, _ = run_cli(
        capsys, "resources", "--n", "2", "--m", "2", "--format", "json", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"predicted", "measured", "fits"}
    assert doc["predicted"]["register_widths"] == doc["measured"]["register_widths"]
    assert doc["predicted"]["register_widths"]["path"] == 4
    assert all(fit["passed"] for fit in doc["fits"].values())


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_resources_exits_1_when_a_fit_fails(monkeypatch, capsys, fmt):
    check = resources.check_asymptotics
    walk = "path_sim_linear_in_n_times_width"

    def failing(maze, ns):
        claims = check(maze, ns)
        return {**claims, walk: dataclasses.replace(claims[walk], residual_ratio=0.06)}

    monkeypatch.setattr(resources, "check_asymptotics", failing)
    code, stdout, _ = run_cli(capsys, "resources", "--n", "2", "--m", "3", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert not json.loads(stdout)["fits"][walk]["passed"]
    else:
        assert walk in stdout and "-> FAIL" in stdout
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "resources", "--n", "2", "--m", "3", "--format", fmt)
    assert code == 0


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_resources_exits_1_when_predict_and_measured_disagree(monkeypatch, capsys, fmt):
    predict = resources.predict

    def off_by_one(maze, n):
        report = predict(maze, n)
        stages = dict(report.stages)
        stages["comparator"] = dataclasses.replace(stages["comparator"], cnot=stages["comparator"].cnot + 1)
        return dataclasses.replace(report, ancilla=report.ancilla + 1, stages=stages)

    monkeypatch.setattr(resources, "predict", off_by_one)
    code, stdout, _ = run_cli(capsys, "resources", "--n", "2", "--m", "2", "--format", fmt)
    assert code == 1
    if fmt == "json":
        doc = json.loads(stdout)
        assert doc["predicted"]["ancilla"] == doc["measured"]["ancilla"] + 1
        assert all(fit["passed"] for fit in doc["fits"].values())
    else:
        assert "FAIL" not in stdout
        mismatched = [line.split(":")[0] for line in stdout.splitlines() if line.startswith("MISMATCH")]
        assert mismatched == ["MISMATCH ancilla", "MISMATCH stage comparator"]


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        pytest.param(
            ["--n", "2", "--m", "2", "--format", "json"],
            0,
            "c5552291cf67db93e6da339b07121f56abc600802d5dbe5ef8f6ded857e414fe",
            id="readme-json",
        ),
        pytest.param(
            ["--n", "9", "--m", "8"],
            0,
            "f912a624ae73fe04ee40dad499ec8877b60da20a53aafa7c1ef4d5fc75eeeef0",
            id="ci-table",
        ),
        # The fitted range n = 1..5 crosses a position-width step at m = 8.
        pytest.param(
            ["--n", "5", "--m", "8"],
            0,
            "144cf1553e7faf263dccd33f9c110ff2ae28c0194c3ccff971932aba6150dfa8",
            id="m8-width-step",
        ),
    ],
)
def test_resources_output_bytes_are_pinned(argv, code, digest, capsys):
    got, stdout, err = run_cli(capsys, "resources", *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_sweep_success_fraction(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--m", "3", "--n", "2", "--runs", "50", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    assert "success fraction:" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "run,status,rounds_used,best_fitness,f_max,success"
    assert len(lines) == 51
    fraction = float(stdout.split("success fraction: ")[1].split(" ")[0])
    assert fraction >= 1 - 0.05


def test_sweep_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "sweep", "--m", "2", "--n", "2", "--runs", "5", "--seed", "3",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# golden bytes: exact stdout and --out file of seven small runs

_SOLVE_SUMMARY = (
    "status: converged-optimal\nrounds used: 2\n"
    "best path: SE (|1001>) fitness 4\noptimal: yes (f_max 4)\n"
)
_SWEEP_SUMMARY = "success fraction: 1.0 (3/3)\n"


def _lines(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


@pytest.mark.parametrize(
    "argv, stdout, written",
    [
        pytest.param(
            ["solve", "--maze", "MAZE", "--n", "2", "--seed", "4"],
            _SOLVE_SUMMARY,
            _lines("""
                round,cutoff,k,theta,r,outcome_index,outcome_fitness,new_cutoff
                1,0,16,1.5707963267948966,0,6,3,3
                2,3,1,0.25268025514207865,2,9,4,4
            """),
            id="solve-csv",
        ),
        pytest.param(
            ["solve", "--maze", "MAZE", "--n", "2", "--seed", "4", "--format", "json"],
            _SOLVE_SUMMARY,
            _lines("""
                {
                  "best": {
                    "bits": "1001",
                    "fitness": 4,
                    "index": 9,
                    "letters": "SE"
                  },
                  "f_max": 4,
                  "optimal": true,
                  "rounds": [
                    {
                      "cutoff": 0,
                      "k": 16,
                      "new_cutoff": 3,
                      "outcome_fitness": 3,
                      "outcome_index": 6,
                      "r": 0,
                      "round": 1,
                      "theta": 1.5707963267948966
                    },
                    {
                      "cutoff": 3,
                      "k": 1,
                      "new_cutoff": 4,
                      "outcome_fitness": 4,
                      "outcome_index": 9,
                      "r": 2,
                      "round": 2,
                      "theta": 0.25268025514207865
                    }
                  ],
                  "status": "converged-optimal"
                }
            """),
            id="solve-json",
        ),
        pytest.param(
            ["solve", "--maze", "MAZE", "--n", "2", "--cutoff0", "4", "--strictness", "strict",
             "--format", "json"],
            "status: degenerate\nrounds used: 0\n",
            _lines("""
                {
                  "best": null,
                  "f_max": 4,
                  "optimal": false,
                  "rounds": [],
                  "status": "degenerate"
                }
            """),
            id="solve-degenerate-json",
        ),
        pytest.param(
            ["sweep", "--m", "3", "--n", "2", "--runs", "3", "--seed", "1"],
            _SWEEP_SUMMARY,
            _lines("""
                run,status,rounds_used,best_fitness,f_max,success
                0,converged-optimal,1,12,12,1
                1,converged-optimal,3,14,14,1
                2,converged-optimal,1,12,12,1
            """),
            id="sweep-csv",
        ),
        pytest.param(
            ["sweep", "--m", "3", "--n", "2", "--runs", "3", "--seed", "1", "--format", "json"],
            _SWEEP_SUMMARY,
            _lines("""
                {
                  "runs": [
                    {
                      "best_fitness": 12,
                      "f_max": 12,
                      "rounds_used": 1,
                      "run": 0,
                      "status": "converged-optimal",
                      "success": true
                    },
                    {
                      "best_fitness": 14,
                      "f_max": 14,
                      "rounds_used": 3,
                      "run": 1,
                      "status": "converged-optimal",
                      "success": true
                    },
                    {
                      "best_fitness": 12,
                      "f_max": 12,
                      "rounds_used": 1,
                      "run": 2,
                      "status": "converged-optimal",
                      "success": true
                    }
                  ],
                  "success_fraction": 1.0
                }
            """),
            id="sweep-json",
        ),
        pytest.param(
            ["sweep", "--m", "3", "--n", "2", "--runs", "2", "--cutoff0", "100"],
            "success fraction: 0.0 (0/2)\n",
            _lines("""
                run,status,rounds_used,best_fitness,f_max,success
                0,degenerate,0,,12,0
                1,degenerate,0,,12,0
            """),
            id="sweep-degenerate-csv",
        ),
        pytest.param(
            ["dynamics", "--n", "2", "--k", "1", "--rmax", "3"],
            "",
            _lines("""
                r,predicted,simulated
                0,0.0625,0.0625
                1,0.47265625,0.47265625
                2,0.908447265625,0.908447265625
                3,0.9613189697265625,0.9613189697265625
            """),
            id="dynamics",
        ),
    ],
)
def test_cli_output_golden_bytes(argv, stdout, written, example_maze_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(example_maze_file) if arg == "MAZE" else arg for arg in argv]
    code, got, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, err) == (0, "")
    assert got == stdout
    assert out.read_bytes() == written.encode()


def test_guessed_k_sweep_output_is_pinned(tmp_path, capsys):
    """Guessed-k at the benchmark's maze size: each run draws its r per round,
    so these bytes pin the iterate, the sampler and the policy's draws together."""
    out = tmp_path / "out"
    argv = ["sweep", "--m", "8", "--n", "9", "--runs", "20", "--seed", "3", "--policy", "guessed-k"]
    code, got, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, err) == (0, "")
    assert got == "success fraction: 0.05 (1/20)\n"
    digest = "4ca80782ccb69dd061cd5d14214ea69bdeac86c3acb145a9a6b3e4aaa1912cb9"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# error mapping: only validation errors exit 2


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "flags, message, flag",
    [
        (["--m", "1", "--n", "2"], "--m must be >= 2", "--m"),
        (["--m", "3", "--n", "13"], "--n must lie in", "--n"),
        (["--m", "3", "--n", "-1"], "--n must lie in", "--n"),
        (["--m", "3", "--n", "2", "--rounds", "0"], "round budget", "--rounds"),
        (["--m", "3", "--n", "2", "--samples", "0"], "samples per round", "--samples"),
        (["--m", "3", "--n", "2", "--seed", "-1"], "--seed must be >= 0", "--seed"),
    ],
    ids=["m-1", "n-13", "n-negative", "rounds-0", "samples-0", "seed-negative"],
)
def test_bad_search_settings_exit_2(command, flags, message, flag, capsys):
    extra = ["--runs", "2"] if command == "sweep" else []
    code, stdout, err = run_cli(capsys, command, *flags, *extra)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert flag in err
    assert stdout == ""


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("m", "1", "--m must be >= 2"),
        ("n", "13", "--n must lie in 0..12"),
        ("n", "-1", "--n must lie in 0..12"),
        ("seed", "-1", "--seed must be >= 0"),
        ("rounds", "0", "--rounds (round budget) must be >= 1"),
        ("samples", "0", "--samples (samples per round) must be >= 1"),
        ("mode", "walls", "--mode must be one of: wall-aware, bounds, blind"),
        ("formula", "paper", "--formula must be one of: maintext, appendix"),
        ("policy", "bogus", "--policy must be one of: known-k, guessed-k"),
        ("format", "xml", "--format must be one of: csv, json"),
        ("strictness", "loose", "--strictness must be one of: strict, ge-at-max"),
    ],
    ids=["m-1", "n-13", "n-negative", "seed-negative", "rounds-0", "samples-0",
         "mode", "formula", "policy", "format", "strictness"],
)
def test_flag_and_config_key_share_one_parser(key, value, message, tmp_path, capsys):
    settings = {"m": "3", "n": "2", key: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    flags = [arg for k, v in settings.items() for arg in (f"--{k}", v)]
    runs = [["solve", "--config", str(cfg)], ["solve", *flags]]
    if key != "strictness":
        runs.append(["sweep", *flags, "--runs", "2"])
    for argv in runs:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_bad_config_value_is_rejected_under_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nn = 2\nrounds = 0\n")
    code, stdout, err = run_cli(capsys, "solve", "--config", str(cfg), "--rounds", "4")
    assert (code, stdout, err) == (2, "", "error: --rounds (round budget) must be >= 1\n")


@pytest.mark.parametrize("flag", ["--m", "--rounds"])
def test_non_integer_flag_keeps_argparse_wording(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "2", flag, "x"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, choices",
    [
        ("solve", ["--mode {wall-aware,bounds,blind}", "--formula {maintext,appendix}",
                   "--policy {known-k,guessed-k}", "--format {csv,json}", "--strictness {strict,ge-at-max}"]),
        ("sweep", ["--mode {wall-aware,bounds,blind}", "--formula {maintext,appendix}",
                   "--policy {known-k,guessed-k}", "--format {csv,json}"]),
        ("resources", ["--format {table,json}"]),
    ],
)
def test_usage_lists_each_choice_set(command, choices, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert [c for c in choices if f"[{c}]" not in usage] == []
    assert ("--strictness" in usage) == (command == "solve")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--m", "3"],
        ["solve", "--m", "3", "--n", "2"],
        ["sweep", "--m", "3", "--n", "2", "--runs", "2"],
        ["dynamics", "--n", "2", "--k", "1"],
        ["resources", "--n", "1", "--m", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error: cannot write --out: ") and str(out) in err
    assert not out.exists()
    assert stdout == ""


def test_internal_value_error_propagates(monkeypatch, capsys):
    def broken(scape, config):
        raise ValueError("internal fault")

    monkeypatch.setattr("qmaze.cli.run_adaptive", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", "--m", "3", "--n", "2"])


# ---------------------------------------------------------------------------
# One parser per process


def test_parser_is_built_once_and_reused_across_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run_cli(capsys, "solve", "--m", "3", "--n", "2", "--format", "json")
    assert first[0] == 0 and first[1]
    assert run_cli(capsys, "solve", "--m", "1") == (2, "", "error: --m must be >= 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: qmaze solve")
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"m = 3\nn = 2\n# caf\xe9\n")
    code, stdout, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert (code, stdout) == (2, "") and err.startswith("error: cannot read config: ")
    code, stdout, _ = run_cli(capsys, "verify", "--nmax", "1", "--mmax", "2", "--widthmax", "2")
    assert code == 0 and stdout.count("PASS") == 6
    again = run_cli(capsys, "solve", "--m", "3", "--n", "2", "--format", "json")
    assert again[:2] == first[:2]  # same exit code, byte-identical stdout
