"""Command-line front end: generate mazes, run solves and sweeps, check
circuits against their references, and report resource costs.

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(bad flags, config file, maze file or unwritable --out) and nothing else;
any other exception is an internal fault and propagates with its traceback.
All randomness derives from the single --seed value: maze generation uses
child stream (seed, 0[, run]) and the search loop uses (seed, 1[, run]),
so identical configs reproduce byte-identical outputs.
The solve trace, the sweep runs and the dynamics rows go through one CSV
writer, and every JSON output through one JSON writer. A command writes
--out before it prints its summary lines, so a failed write prints nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import adaptive, codec, engine, fitness, resources, verify
from .adaptive import Policy, SearchConfig, Strictness, run_adaptive
from .fitness import Formula, make_spec
from .maze import MazeFormatError, SimMode, generate_maze, parse_maze, serialize_maze


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Config file handling (flat key = value lines)

_CONFIG_SCHEMA = {
    "maze": str,
    "m": int,
    "n": int,
    "seed": int,
    "cutoff0": int,
    "rounds": int,
    "samples": int,
    "mode": str,
    "formula": str,
    "policy": str,
    "strictness": str,
    "out": str,
    "format": str,
}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; unknown keys are errors, not warnings."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got '{raw}'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_SCHEMA:
            raise UsageError(f"config line {lineno}: unknown key '{key}'")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _CONFIG_SCHEMA[key](val)
        except ValueError:
            raise UsageError(
                f"config line {lineno}: bad value '{val}' for '{key}'"
            ) from None
    return values


def _enum_value(enum_cls, value: str, flag: str):
    for member in enum_cls:
        if member.value == value:
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise UsageError(f"{flag} must be one of: {choices}")


# ---------------------------------------------------------------------------
# Output: one CSV writer, one JSON writer, one write order

# The trace columns are RoundRecord's fields in order, two of them renamed.
TRACE_COLUMNS = tuple(
    {"t": "round", "rounds": "r"}.get(f.name, f.name)
    for f in dataclasses.fields(adaptive.RoundRecord)
)


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
    if m < 2:
        raise UsageError("--m must be >= 2")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    start = tuple(args.start) if args.start else (0, 0)
    goal = tuple(args.goal) if args.goal else (m - 1, m - 1)
    for flag, cell in (("--start", start), ("--goal", goal)):
        if not all(0 <= x < m for x in cell):
            raise UsageError(f"{flag} {cell[0]} {cell[1]} lies outside the {m}x{m} grid")
    if start == goal:
        raise UsageError("--start and --goal must differ")
    maze = generate_maze(m, args.seed, start=start, goal=goal)
    _write_out(serialize_maze(maze), args.out)
    return 0


def _load_solve_settings(args) -> dict:
    """Defaults, then the config file (``solve`` only), then flags; validated once."""
    settings = {
        "maze": None, "m": None, "n": None, "seed": 0,
        "cutoff0": 0, "rounds": 32, "samples": 3, "mode": "wall-aware",
        "formula": "maintext", "policy": "known-k", "strictness": "ge-at-max",
        "out": None, "format": "csv",
    }
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        settings.update(parse_config(text))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["n"] is None:
        raise UsageError("path length --n is required")
    if not 0 <= settings["n"] <= codec.MAX_PATH_LENGTH:
        raise UsageError(f"--n must lie in 0..{codec.MAX_PATH_LENGTH}")
    if settings["maze"]:
        if settings["m"] is not None:
            raise UsageError("--maze and --m cannot both be given")
    elif settings["m"] is None:
        raise UsageError("either --maze FILE or --m SIZE is required")
    elif settings["m"] < 2:
        raise UsageError("--m must be >= 2")
    if settings["seed"] < 0:
        raise UsageError("--seed must be >= 0")
    if settings["rounds"] < 1:
        raise UsageError("--rounds (round budget) must be >= 1")
    if settings["samples"] < 1:
        raise UsageError("--samples (samples per round) must be >= 1")
    if settings["format"] not in ("csv", "json"):
        raise UsageError("--format must be csv or json")
    for key, enum_cls in (("policy", Policy), ("strictness", Strictness),
                          ("formula", Formula), ("mode", SimMode)):
        settings[key] = _enum_value(enum_cls, settings[key], f"--{key}")
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
        try:
            maze = parse_maze(Path(settings["maze"]).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read maze: {exc}") from None
    else:
        maze = generate_maze(settings["m"], _child_seed(settings["seed"], 0, *run))
    spec = make_spec(maze.size, settings["formula"], settings["mode"])
    scape = fitness.landscape(maze, settings["n"], spec)
    return scape, run_adaptive(scape, config)


def cmd_solve(args) -> int:
    settings = _load_solve_settings(args)
    scape, trace = _solve_once(settings)
    n = settings["n"]
    summary = [f"status: {trace.status.value}", f"rounds used: {len(trace.rounds)}"]
    optimal = trace.best_fitness == scape.f_max
    best = None
    if trace.best_index is not None:
        best = {
            "index": trace.best_index,
            "bits": codec.path_bits(trace.best_index, n),
            "letters": codec.path_letters(codec.decode_index(trace.best_index, n)),
            "fitness": trace.best_fitness,
        }
        summary.append(f"best path: {best['letters']} (|{best['bits']}>) fitness {best['fitness']}")
        summary.append(f"optimal: {'yes' if optimal else 'no'} (f_max {scape.f_max})")
    rounds = [dict(zip(TRACE_COLUMNS, dataclasses.astuple(rec))) for rec in trace.rounds]
    if settings["format"] == "json":
        text = _to_json({"status": trace.status.value, "f_max": scape.f_max,
                         "optimal": optimal, "best": best, "rounds": rounds})
    else:
        text = _to_csv(TRACE_COLUMNS, rounds)
    _write_out(text, settings["out"], summary)
    return 0


def cmd_sweep(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    settings = _load_solve_settings(args)
    rows = []
    for run in range(args.runs):
        scape, trace = _solve_once(settings, run)
        rows.append(
            {
                "run": run,
                "status": trace.status.value,
                "rounds_used": len(trace.rounds),
                "best_fitness": trace.best_fitness,
                "f_max": scape.f_max,
                "success": trace.best_fitness == scape.f_max,
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
    if n < 1 or n > codec.MAX_PATH_LENGTH:
        raise UsageError(f"--n must lie in 1..{codec.MAX_PATH_LENGTH}")
    total = codec.path_count(n)
    if not 1 <= k <= total:
        raise UsageError(f"--k must lie in 1..{total}")
    if args.rmax is not None and args.rmax < 0:
        raise UsageError("--rmax must be >= 0")
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
    if not 1 <= args.nmax <= 4:
        raise UsageError("--nmax must lie in 1..4")
    if not 2 <= args.mmax <= 6:
        raise UsageError("--mmax must lie in 2..6")
    if not 1 <= args.widthmax <= 8:
        raise UsageError("--widthmax must lie in 1..8")
    results = verify.run_all(args.nmax, args.mmax, args.widthmax)
    for res in results:
        if res.passed:
            print(f"PASS {res.name} ({res.checked} cases)")
        else:
            print(f"FAIL {res.name}: {res.counterexample}")
    return 0 if all(res.passed for res in results) else 1


def cmd_resources(args) -> int:
    if args.n < 1 or args.n > codec.MAX_PATH_LENGTH:
        raise UsageError(f"--n must lie in 1..{codec.MAX_PATH_LENGTH}")
    if args.m < 2:
        raise UsageError("--m must be >= 2")
    pred = resources.predict(args.n, args.m)
    act = resources.measured(args.n, args.m)
    fit_points = [(i, args.m) for i in range(1, max(3, args.n) + 1)]
    claims = resources.check_asymptotics(fit_points)
    code = 0 if all(c.passed for c in claims.values()) else 1
    if args.format == "json":
        doc = {
            "predicted": pred.as_dict(),
            "measured": act.as_dict(),
            "fits": {
                name: {
                    "slope": c.slope,
                    "intercept": c.intercept,
                    "residual_ratio": c.residual_ratio,
                    "passed": c.passed,
                }
                for name, c in claims.items()
            },
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
    _write_out("\n".join(lines) + "\n", args.out)
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _add_search_flags(p: argparse.ArgumentParser, sizes_required: bool) -> None:
    """Flags that ``solve`` and ``sweep`` share; their defaults live in the settings dict."""
    p.add_argument("--m", type=int, required=sizes_required)
    p.add_argument("--n", type=int, required=sizes_required)
    p.add_argument("--seed", type=int)
    p.add_argument("--cutoff0", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--mode", choices=[m.value for m in SimMode])
    p.add_argument("--formula", choices=[f.value for f in Formula])
    p.add_argument("--policy", choices=[pol.value for pol in Policy])
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaze",
        description="Amplitude-amplification maze solver and circuit checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a perfect maze file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=int, nargs=2, metavar=("I", "J"))
    p.add_argument("--goal", type=int, nargs=2, metavar=("I", "J"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run the adaptive search on one maze")
    p.add_argument("--config", help="flat key=value settings file")
    p.add_argument("--maze", help="maze file (otherwise generated from --m)")
    _add_search_flags(p, sizes_required=False)
    p.add_argument("--strictness", choices=[s.value for s in Strictness])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="many seeded solves, success statistics")
    _add_search_flags(p, sizes_required=True)
    p.add_argument("--runs", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", help="predicted vs simulated success per round count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rmax", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("verify", help="exhaustive circuit-vs-reference suites")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=4)
    p.add_argument("--widthmax", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("resources", help="predicted vs measured circuit costs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MazeFormatError as exc:
        print(f"error: bad maze file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
