"""Command-line front end: generate mazes, run solves and sweeps, check
circuits against their references, and report resource costs.

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(bad flags, config file, maze file, a file that cannot be read as text, or
unwritable --out) and nothing else; any other exception is an internal fault
and propagates with its traceback. Each setting's type and bounds or choices
live in one parser function, which is both the flag's argparse ``type`` and
the converter of its config value, so a bad value gets the same message
either way.
All randomness derives from the single --seed value: maze generation uses
child stream (seed, 0[, run]) and the search loop uses (seed, 1[, run]),
so identical configs reproduce byte-identical outputs.
The argparse parser is built once per process, on the first ``main`` call.
``verify`` and ``resources``, and the circuit layer under them, are imported
only by the subcommands that use them, so the others start without them.
The solve trace, the sweep runs and the dynamics rows go through one CSV
writer, and every JSON output through one JSON writer. A command writes
--out before it prints its summary lines, so a failed write prints nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import adaptive, codec, engine, fitness
from .adaptive import Policy, SearchConfig, Strictness, run_adaptive
from .fitness import Formula, make_spec
from .maze import MazeFormatError, SimMode, generate_maze, parse_maze, serialize_maze


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Settings: one parser per key, shared by its flag and its config line


def _int(flag: str, lo: int, hi: int | None = None):
    """A parser for an integer in ``lo..hi``; a non-integer raises ValueError,
    which argparse reports as an invalid int and ``parse_config`` as a bad value."""
    bound = f"must be >= {lo}" if hi is None else f"must lie in {lo}..{hi}"

    def parse(text) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise UsageError(f"{flag} {bound}")
        return value

    parse.__name__ = "int"
    return parse


def _choice(flag: str, values):
    """A parser for one of ``values`` (strings or enum members), named by
    its string value; ``metavar`` renders like argparse's ``choices``."""
    by_name = {getattr(v, "value", v): v for v in values}

    def parse(text):
        if text not in by_name:
            raise UsageError(f"{flag} must be one of: {', '.join(by_name)}")
        return by_name[text]

    parse.metavar = "{" + ",".join(by_name) + "}"
    return parse


_SEARCH = SearchConfig()
_M = _int("--m", 2)
_SEED = _int("--seed", 0)
_PATH_LENGTH = _int("--n", 1, codec.MAX_PATH_LENGTH)

# Each solve/sweep setting: config key -> (parser, default). The search
# defaults are SearchConfig's; mode and formula stay unset, so make_spec
# picks them. The flags appear in --help in this order.
_SETTINGS = {
    "maze": (str, None),
    "m": (_M, None),
    "n": (_int("--n", 0, codec.MAX_PATH_LENGTH), None),
    "seed": (_SEED, 0),
    "cutoff0": (int, _SEARCH.initial_cutoff),
    "rounds": (_int("--rounds (round budget)", 1), _SEARCH.max_rounds),
    "samples": (_int("--samples (samples per round)", 1), _SEARCH.samples),
    "mode": (_choice("--mode", SimMode), None),
    "formula": (_choice("--formula", Formula), None),
    "policy": (_choice("--policy", Policy), _SEARCH.policy),
    "out": (str, None),
    "format": (_choice("--format", ("csv", "json")), "csv"),
    "strictness": (_choice("--strictness", Strictness), _SEARCH.strictness),
}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; unknown keys are errors, not warnings.

    Each value goes through its key's parser, the same one its flag uses.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got '{raw}'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SETTINGS:
            raise UsageError(f"config line {lineno}: unknown key '{key}'")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _SETTINGS[key][0](val)
        except ValueError:
            raise UsageError(
                f"config line {lineno}: bad value '{val}' for '{key}'"
            ) from None
    return values


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


# ---------------------------------------------------------------------------
# Output: one CSV writer, one JSON writer, one write order

# The trace columns are RoundRecord's fields in order, two of them renamed.
_ROUND_FIELDS = tuple(f.name for f in dataclasses.fields(adaptive.RoundRecord))
TRACE_COLUMNS = tuple({"t": "round", "rounds": "r"}.get(name, name) for name in _ROUND_FIELDS)


def _to_csv(columns: Sequence[str], rows: list[dict]) -> str:
    """A header line, then one line per row; a bool prints as 0/1 and None as an empty cell."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row[c] for c in columns)
        lines.append(",".join("" if v is None else str(int(v) if isinstance(v, bool) else v) for v in cells))
    return "\n".join(lines) + "\n"


def _to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_out(text: str, out: str | None, summary: Sequence[str] = ()) -> None:
    """Write ``text`` to ``out`` before printing ``summary``, so a failed write
    prints nothing; without ``out``, print ``summary`` and then ``text``."""
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
        text = ""
    sys.stdout.write("".join(line + "\n" for line in summary) + text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    m = args.m
    # The carve does not depend on the placement, so an unset cell is the generated maze's.
    maze = generate_maze(m, args.seed)
    start = tuple(args.start) if args.start else maze.start
    goal = tuple(args.goal) if args.goal else maze.goal
    for flag, cell in (("--start", start), ("--goal", goal)):
        if not all(0 <= x < m for x in cell):
            raise UsageError(f"{flag} {cell[0]} {cell[1]} lies outside the {m}x{m} grid")
    if start == goal:
        raise UsageError("--start and --goal must differ")
    _write_out(serialize_maze(dataclasses.replace(maze, start=start, goal=goal)), args.out)
    return 0


def _load_solve_settings(args) -> dict:
    """``_SETTINGS`` defaults, then the config file (``solve`` only), then flags."""
    settings = {key: default for key, (_, default) in _SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(parse_config(_read_text(args.config, "config")))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["n"] is None:
        raise UsageError("path length --n is required")
    if settings["maze"]:
        if settings["m"] is not None:
            raise UsageError("--maze and --m cannot both be given")
    elif settings["m"] is None:
        raise UsageError("either --maze FILE or --m SIZE is required")
    return settings


def _solve_once(settings: dict, *run: int) -> tuple[fitness.FitnessLandscape, adaptive.CutoffTrace]:
    """One seeded search; ``run`` (a sweep's run index) is appended to both child seeds."""
    config = SearchConfig(
        initial_cutoff=settings["cutoff0"],
        max_rounds=settings["rounds"],
        policy=settings["policy"],
        strictness=settings["strictness"],
        samples=settings["samples"],
        seed=_child_seed(settings["seed"], 1, *run),
    )
    if settings["maze"]:
        maze = parse_maze(_read_text(settings["maze"], "maze"))
    else:
        maze = generate_maze(settings["m"], _child_seed(settings["seed"], 0, *run))
    spec = make_spec(maze.size, **{k: settings[k] for k in ("formula", "mode") if settings[k] is not None})
    scape = fitness.landscape(maze, settings["n"], spec)
    return scape, run_adaptive(scape, config)


def cmd_solve(args) -> int:
    settings = _load_solve_settings(args)
    scape, trace = _solve_once(settings)
    n = settings["n"]
    summary = [f"status: {trace.status.value}", f"rounds used: {len(trace.rounds)}"]
    f_max = scape.f_max
    optimal = trace.best_fitness == f_max
    best = None
    if trace.best_index is not None:
        best = {
            "index": trace.best_index,
            "bits": codec.path_bits(trace.best_index, n),
            "letters": codec.path_letters(codec.decode_index(trace.best_index, n)),
            "fitness": trace.best_fitness,
        }
        summary.append(f"best path: {best['letters']} (|{best['bits']}>) fitness {best['fitness']}")
        summary.append(f"optimal: {'yes' if optimal else 'no'} (f_max {f_max})")
    rounds = [
        {col: getattr(rec, name) for col, name in zip(TRACE_COLUMNS, _ROUND_FIELDS)}
        for rec in trace.rounds
    ]
    if settings["format"] == "json":
        text = _to_json({"status": trace.status.value, "f_max": f_max,
                         "optimal": optimal, "best": best, "rounds": rounds})
    else:
        text = _to_csv(TRACE_COLUMNS, rounds)
    _write_out(text, settings["out"], summary)
    return 0


def cmd_sweep(args) -> int:
    settings = _load_solve_settings(args)
    rows = []
    for run in range(args.runs):
        scape, trace = _solve_once(settings, run)
        f_max = scape.f_max
        rows.append(
            {
                "run": run,
                "status": trace.status.value,
                "rounds_used": len(trace.rounds),
                "best_fitness": trace.best_fitness,
                "f_max": f_max,
                "success": trace.best_fitness == f_max,
            }
        )
    successes = sum(row["success"] for row in rows)
    fraction = successes / args.runs
    if settings["format"] == "json":
        text = _to_json({"runs": rows, "success_fraction": fraction})
    else:
        text = _to_csv(list(rows[0]), rows)
    _write_out(text, settings["out"], [f"success fraction: {fraction!r} ({successes}/{args.runs})"])
    return 0


def cmd_dynamics(args) -> int:
    n, k = args.n, args.k
    total = codec.path_count(n)
    if not 1 <= k <= total:
        raise UsageError(f"--k must lie in 1..{total}")
    geometry = engine.GroverGeometry(num_states=total, num_marked=k)
    r_max = args.rmax if args.rmax is not None else 3 * max(1, engine.optimal_rounds(geometry))
    marked = np.arange(k)
    state = engine.prepare_uniform(n)
    rows = []
    for r in range(r_max + 1):
        rows.append({"r": r, "predicted": geometry.success_probability(r),
                     "simulated": state.marked_probability(marked)})
        state = engine.apply_diffuser(engine.apply_oracle(state, marked))
    _write_out(_to_csv(("r", "predicted", "simulated"), rows), args.out)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(args.nmax, args.mmax, args.widthmax)
    for res in results:
        if res.passed:
            print(f"PASS {res.name} ({res.checked} cases)")
        else:
            print(f"FAIL {res.name}: {res.counterexample}")
    return 0 if all(res.passed for res in results) else 1


def cmd_resources(args) -> int:
    from . import resources

    maze = generate_maze(args.m, seed=0)
    pred = resources.predict(maze, args.n)
    act = resources.measured(maze, args.n)
    claims = resources.check_asymptotics(maze, range(1, max(3, args.n) + 1))
    mismatches = resources.mismatches(pred, act)
    code = 0 if all(c.passed for c in claims.values()) and not mismatches else 1
    if args.format == "json":
        doc = {
            "predicted": pred.as_dict(),
            "measured": act.as_dict(),
            "fits": {name: {**dataclasses.asdict(c), "passed": c.passed} for name, c in claims.items()},
        }
        _write_out(_to_json(doc), args.out)
        return code
    lines = [f"resources for n={args.n}, m={args.m} (cutoff {pred.cutoff})", ""]
    lines.append(f"{'register':<12}{'predicted':>10}{'actual':>10}")
    for name in pred.register_widths:
        lines.append(
            f"{name:<12}{pred.register_widths[name]:>10}{act.register_widths.get(name, 0):>10}"
        )
    lines.append(f"{'ancilla':<12}{pred.ancilla:>10}{act.ancilla:>10}")
    lines.append(f"{'total':<12}{pred.total_qubits:>10}{act.total_qubits:>10}")
    lines.append("")
    lines.append(f"{'stage toffoli':<22}{'predicted':>10}{'actual':>10}")
    for name in pred.stages:
        lines.append(
            f"{name:<22}{pred.stages[name].toffoli:>10}{act.stages[name].toffoli:>10}"
        )
    lines.append(f"measured oracle depth: {act.depth} (prediction bound {pred.depth})")
    lines.append("")
    for name, c in claims.items():
        lines.append(
            f"fit {name}: slope {c.slope:.3f} intercept {c.intercept:.3f} "
            f"residual {c.residual_ratio:.4f} -> {'PASS' if c.passed else 'FAIL'}"
        )
    lines.extend(f"MISMATCH {m}" for m in mismatches)
    _write_out("\n".join(lines) + "\n", args.out)
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _flag(p: argparse.ArgumentParser, flag: str, parse, **kwargs) -> None:
    p.add_argument(flag, type=parse, metavar=getattr(parse, "metavar", None), **kwargs)


def _add_search_flags(p: argparse.ArgumentParser, skip: Sequence[str], required: Sequence[str] = ()) -> None:
    """The ``_SETTINGS`` flags, each parsed as its config line is; defaults stay in the table."""
    for key, (parse, _) in _SETTINGS.items():
        if key not in skip:
            _flag(p, f"--{key}", parse, required=key in required)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qmaze`` parser, built on the first call and reused for the rest of the process.

    Parsing keeps no state in the parser, and argparse reads the terminal
    width only when it prints, so reuse changes no output. Each subcommand's
    ``cmd_*`` function looks its helpers up by module name when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="qmaze",
        description="Amplitude-amplification maze solver and circuit checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a perfect maze file")
    _flag(p, "--m", _M, required=True)
    _flag(p, "--seed", _SEED, default=0)
    p.add_argument("--start", type=int, nargs=2, metavar=("I", "J"))
    p.add_argument("--goal", type=int, nargs=2, metavar=("I", "J"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run the adaptive search on one maze")
    p.add_argument("--config", help="flat key=value settings file")
    p.add_argument("--maze", help="maze file (otherwise generated from --m)")
    _add_search_flags(p, skip=("maze",))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="many seeded solves, success statistics")
    _add_search_flags(p, skip=("maze", "strictness"), required=("m", "n"))
    _flag(p, "--runs", _int("--runs", 1), required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", help="predicted vs simulated success per round count")
    _flag(p, "--n", _PATH_LENGTH, required=True)
    p.add_argument("--k", type=int, required=True)
    _flag(p, "--rmax", _int("--rmax", 0))
    p.add_argument("--out")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("verify", help="exhaustive circuit-vs-reference suites")
    _flag(p, "--nmax", _int("--nmax", 1, 9), default=3)
    _flag(p, "--mmax", _int("--mmax", 2, 8), default=4)
    _flag(p, "--widthmax", _int("--widthmax", 1, 8), default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("resources", help="predicted vs measured circuit costs")
    _flag(p, "--n", _PATH_LENGTH, required=True)
    _flag(p, "--m", _M, required=True)
    _flag(p, "--format", _choice("--format", ("table", "json")), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MazeFormatError as exc:
        print(f"error: bad maze file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
