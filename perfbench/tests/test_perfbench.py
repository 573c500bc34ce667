"""Tests of the benchmark itself: its output checks, its tracer and its catalogue.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from qmaze import verify
from qmaze.adaptive import Policy

ROOT = run.ROOT


# ---------------------------------------------------------------------------
# Checks reject corrupted outputs


@pytest.fixture(scope="module")
def known_search():
    wl = workloads.Search("search-known", Policy.KNOWN_K, m=4, n=4, maze_seed=1)
    wl.setup()
    config = wl.input(0, 0)
    return wl, config, wl.run(config)


def _replace_round(trace, index, **changes):
    rounds = list(trace.rounds)
    rounds[index] = dataclasses.replace(rounds[index], **changes)
    return dataclasses.replace(trace, rounds=rounds)


SEARCH_CORRUPTIONS = {
    "ratchet goes down": lambda t: _replace_round(t, -1, new_cutoff=t.rounds[-1].cutoff - 1),
    "wrong k": lambda t: _replace_round(t, 0, k=t.rounds[0].k + 1),
    "wrong r": lambda t: _replace_round(t, -1, rounds=t.rounds[-1].rounds + 1),
    "wrong outcome fitness": lambda t: _replace_round(t, 0, outcome_fitness=t.rounds[0].outcome_fitness + 1),
    "wrong best fitness": lambda t: dataclasses.replace(t, best_fitness=t.best_fitness + 1),
}


def test_search_check_accepts_the_real_trace(known_search):
    wl, config, trace = known_search
    assert len(trace.rounds) >= 1
    assert wl.check(config, trace) == []


@pytest.mark.parametrize("corruption", sorted(SEARCH_CORRUPTIONS))
def test_search_check_rejects_corrupted_trace(known_search, corruption):
    wl, config, trace = known_search
    assert wl.check(config, SEARCH_CORRUPTIONS[corruption](trace))


def test_cutoffs_that_decrease_between_rounds_are_rejected():
    assert workloads._cutoff_problems([(3, 5), (4, 6)])
    assert workloads._cutoff_problems([(3, 5), (5, 5)]) == []


@pytest.fixture(scope="module")
def solve_output():
    wl = workloads.Sweep(m=4, n=4)
    seed = wl.input(0, 0)
    return wl, seed, wl.run(seed)


def _with_doc(result, change):
    text = result.text
    head = text[: text.index("\n{") + 1]
    doc = workloads.parse_solve(text)
    change(doc)
    return workloads.CliResult(result.code, head + json.dumps(doc))


def _other_path(letters):
    first = "S" if letters[0] != "S" else "E"
    return first + letters[1:]


SOLVE_CORRUPTIONS = {
    "fitness": lambda d: d["best"].update(fitness=d["best"]["fitness"] - 1),
    "path": lambda d: d["best"].update(letters=_other_path(d["best"]["letters"])),
    "short path": lambda d: d["best"].update(letters=d["best"]["letters"][:-1]),
    "above f_max": lambda d: d.update(f_max=d["best"]["fitness"] - 1),
    "no best": lambda d: d.update(best=None),
}


def test_solve_check_accepts_the_real_output(solve_output):
    wl, seed, result = solve_output
    assert wl.check(seed, result) == []


@pytest.mark.parametrize("corruption", sorted(SOLVE_CORRUPTIONS))
def test_solve_check_rejects_corrupted_best_path(solve_output, corruption):
    wl, seed, result = solve_output
    corrupted = _with_doc(result, SOLVE_CORRUPTIONS[corruption])
    if corruption == "path":
        # Only a path that scores differently is a detectable corruption.
        doc = workloads.parse_solve(corrupted.text)
        maze = workloads.generate_maze(4, workloads.maze_seed_for_solve(seed))
        path = tuple(workloads.Direction[c] for c in doc["best"]["letters"])
        if workloads.fitness.fitness(maze, path, workloads.fitness.make_spec(4)) == doc["best"]["fitness"]:
            pytest.skip("the altered path happens to score the same")
    assert wl.check(seed, corrupted)


def test_solve_check_rejects_nonzero_exit(solve_output):
    wl, seed, result = solve_output
    assert wl.check(seed, workloads.CliResult(2, result.text))


def _verify_text(**overrides):
    lines = []
    for name in workloads.VERIFY_SUITES:
        lines.append(overrides.get(name, f"PASS {name} (10 cases)"))
    return "\n".join(line for line in lines if line) + "\n"


def test_verify_check_accepts_a_real_small_run():
    assert workloads.check_verify(workloads.run_cli(["verify", "--nmax", "1", "--mmax", "2", "--widthmax", "1"])) == []


@pytest.mark.parametrize(
    "result",
    [
        workloads.CliResult(1, _verify_text()),
        workloads.CliResult(0, _verify_text(comparator="FAIL comparator: w=1 f=0 c=0: flag 1, expected 0")),
        workloads.CliResult(0, _verify_text(validity="PASS validity (0 cases)")),
        workloads.CliResult(0, _verify_text(involution="")),
    ],
    ids=["exit code", "failed suite", "no cases", "missing suite"],
)
def test_verify_check_rejects_corrupted_output(result):
    assert workloads.check_verify(workloads.CliResult(0, _verify_text())) == []
    assert workloads.check_verify(result)


# ---------------------------------------------------------------------------
# Tracer


def _site_objects():
    objects = {}
    for target in spans.TARGETS:
        for module_name, attr in target.sites:
            objects[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    return objects


def test_wrappers_restore_the_original_functions():
    before = _site_objects()
    comparator_defaults = verify.verify_comparator.__defaults__
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            during = _site_objects()
            assert all(during[key] is not before[key] for key in before)
            assert verify.verify_comparator.__defaults__ != comparator_defaults
            raise RuntimeError("leave the block early")
    after = _site_objects()
    assert all(after[key] is before[key] for key in before)
    assert verify.verify_comparator.__defaults__ == comparator_defaults
    assert tracer.missing == set()


def test_missing_site_is_skipped_and_noted():
    tracer = spans.Tracer()
    target = spans.Target("ghost", (("qmaze.engine", "no_such_function"),))
    with spans.installed(tracer, targets=(target,)):
        pass
    assert tracer.missing == {"qmaze.engine.no_such_function"}


@pytest.mark.parametrize(
    "wl",
    [
        workloads.Sweep(m=4, n=4),
        workloads.Verify(),
    ],
    ids=["sweep", "verify-small"],
)
def test_self_times_are_nonnegative_and_fit_in_the_operation(wl, monkeypatch):
    if isinstance(wl, workloads.Verify):
        monkeypatch.setattr(wl, "input", lambda seed, i: ["verify", "--nmax", "2", "--mmax", "3", "--widthmax", "3"])
    tracer = spans.Tracer()
    for op in range(2):
        inp = wl.input(0, op)
        with spans.installed(tracer), tracer.operation(op):
            out = wl.run(inp)
        assert wl.check(inp, out) == []
    selfs = tracer.self_times()
    walls = tracer.op_walls()
    assert len(walls) == 2
    assert all(value >= 0 for value in selfs.values())
    layers = sum(value for name, value in selfs.items() if name != spans.ROOT_SPAN)
    assert layers <= sum(walls)
    assert selfs[spans.ROOT_SPAN] + layers == pytest.approx(sum(walls), rel=1e-9)
    assert all(name in spans.LAYERS + (spans.ROOT_SPAN,) for name in selfs)


def test_work_counters_repeat_exactly_for_a_seed():
    def traced_counts():
        wl = workloads.Search("search-guessed", Policy.GUESSED_K, m=4, n=4, maze_seed=1)
        wl.setup()
        tracer = spans.Tracer()
        pairs, traced, plain = run.measure_traced(wl, tracer, seed=5, seconds=0)
        metrics = run.layer_metrics(tracer, traced, wl, plain)
        exact = [
            "engine.grover_iterate.amp_updates",
            "engine.grover_iterate.calls",
            "adaptive.rounds",
            "adaptive.grover_iterations",
            "adaptive.hit_rate",
        ]
        return {key: metrics[key] for key in exact}, run.digest(wl, traced[: wl.cycle])

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first[0]["engine.grover_iterate.calls"] > 0


def test_untraced_loop_probes_the_host_before_and_after_each_operation():
    pairs, latencies, elapsed, slowdowns = run.measure(workloads.Sweep(m=3, n=3), seed=0, seconds=0)
    assert len(pairs) == len(latencies) == len(slowdowns) - 1 == 1
    assert all(s > 0 for s in slowdowns)
    assert 0 < latencies[0] <= elapsed


@pytest.mark.parametrize("probe", sorted(run.PROBES))
def test_host_slowdown_reading_is_plausible(probe):
    # loose: the nominal times are typical readings, not limits
    assert 0.1 < run.host_slowdown(probe) < 10


def test_layer_metrics_report_every_layer_even_without_calls():
    wl = workloads.Sweep(m=3, n=3)
    tracer = spans.Tracer()
    pairs, traced, plain = run.measure_traced(wl, tracer, seed=0, seconds=0)
    metrics = run.layer_metrics(tracer, traced, wl, plain)
    assert set(run.PER_LAYER) <= set(metrics)
    assert metrics["circuits.run_batch.calls"] == 0
    assert metrics["fitness.landscape.calls"] == 1
    assert metrics["fitness.landscape.paths"] == 4**3


def test_adaptive_metrics_count_hits_against_each_rounds_marked_set():
    summary = workloads.SearchSummary(
        rounds=((0, 12, 0.5, 1, 5), (5, 2, 0.2, 3, 5), (5, 2, 0.2, 3, 9)),
        f_max=9,
        num_states=16,
        best_fitness=9,
        samples=3,
    )
    metrics = workloads.adaptive_metrics([summary])
    assert metrics["adaptive.rounds"] == 3
    assert metrics["adaptive.grover_iterations"] == 7
    assert metrics["adaptive.hit_rate"] == pytest.approx(2 / 3)
    assert metrics["adaptive.success_fraction"] == 1
    assert workloads.adaptive_metrics([])["adaptive.hit_rate"] == 0


# ---------------------------------------------------------------------------
# Catalogue and contract


def test_benchmark_json_declares_what_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    for layer in spans.LAYERS:
        assert f"{layer}.self_s" in run.PER_LAYER


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
