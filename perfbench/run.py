"""qmaze benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy. The last line printed is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sweep", "search-known", "search-guessed", "verify")
SETUP_REPEATS = 3
MAX_PROBLEMS_SHOWN = 5

# Host-speed probes. On the shared 2-vCPU Xeon VM this benchmark was tuned
# on, the same fixed work ran up to 1.7x slower for minutes at a time, which
# alone spread the wall-time medians of ten 20 s runs by up to 35%. Each run
# therefore times a fixed probe, code that no change to qmaze can touch,
# before the first operation and after every one, and divides each
# operation's time by the reading after it. Interpreter-bound and
# numpy-bound work slowed down by different amounts there, so there are two
# probes and each workload uses the one that tracked its operations best
# (`Workload.host_probe`). A reading is the probe's time over its nominal
# time, its typical time on that VM. The raw wall times are printed beside
# the rescaled ones and kept in the record.
PROBE_LOOPS = 200_000
PROBE_REPEATS = 3
PROBE_AMPLITUDES = 1 << 18
PROBE_ITERATES = 20


def probe_python() -> float:
    """Median wall time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_numpy() -> float:
    """Wall time of fixed sign-flip and inversion-about-the-mean passes over complex128 amplitudes."""
    import numpy as np

    amps = np.full(PROBE_AMPLITUDES, PROBE_AMPLITUDES**-0.5, dtype=np.complex128)
    marked = np.arange(0, PROBE_AMPLITUDES, 97)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATES):
        amps[marked] = -amps[marked]
        amps = 2 * amps.mean() - amps
    return time.perf_counter() - t0


# name -> (probe, nominal seconds)
PROBES = {
    "python": (probe_python, 0.010),
    "numpy": (probe_numpy, 0.020),
}
SETUP_PROBE = "python"  # set-up is imports and landscape building: interpreter-bound


def host_slowdown(probe_name: str) -> float:
    """Current host slowdown: 1.0 on the nominal host, 2.0 when the probe takes twice as long."""
    probe, nominal = PROBES[probe_name]
    return probe() / nominal


# name -> unit; BENCHMARK.json declares the same names and units.
END_TO_END = {
    "latency_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.op_wall_s": "s/op",
    "trace.overhead_frac": "ratio",
    "cli.self_s": "s/op",
    "maze.generate_maze.self_s": "s/op",
    "fitness.landscape.calls": "count/op",
    "fitness.landscape.self_s": "s/op",
    "fitness.landscape.paths": "count/op",
    "fitness.landscape.us_per_path": "us",
    "adaptive.run_adaptive.self_s": "s/op",
    "adaptive.marked_for_cutoff.self_s": "s/op",
    "engine.prepare_uniform.self_s": "s/op",
    "engine.grover_iterate.calls": "count/op",
    "engine.grover_iterate.self_s": "s/op",
    "engine.grover_iterate.amp_updates": "count/op",
    "engine.grover_iterate.ns_per_amp_update": "ns",
    "engine.grover_iterate.bytes_computed": "B/op",
    "engine.measure_shots.calls": "count/op",
    "engine.measure_shots.shots": "count/op",
    "engine.measure_shots.self_s": "s/op",
    "adaptive.rounds": "count/op",
    "adaptive.grover_iterations": "count/op",
    "adaptive.grover_iterations_scale": "count/op",
    "adaptive.hit_rate": "ratio",
    "adaptive.p_predicted_mean": "ratio",
    "adaptive.p_hit_predicted_mean": "ratio",
    "adaptive.success_fraction": "ratio",
    "verify.self_s": "s/op",
    "verify.cases": "count/op",
    "verify.failures": "count/op",
    "circuits.build.calls": "count/op",
    "circuits.build.gates": "count/op",
    "circuits.build.self_s": "s/op",
    "circuits.run_batch.calls": "count/op",
    "circuits.run_batch.gate_rows": "count/op",
    "circuits.run_batch.self_s": "s/op",
    "circuits.run_batch.ns_per_gate_row": "ns",
    "circuits.pack_unpack.self_s": "s/op",
}

# Counters the traced run reports beyond calls and self time.
COUNTERS = (
    "fitness.landscape.paths",
    "engine.grover_iterate.amp_updates",
    "engine.measure_shots.shots",
    "verify.cases",
    "verify.failures",
    "circuits.build.gates",
    "circuits.run_batch.gate_rows",
)

# One complex128 amplitude read and written per update: a computed minimum, not a measurement.
BYTES_PER_AMP_UPDATE = 32


def environment(seed: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Failed:
    """An operation that raised; it counts as failed."""

    def __init__(self, error: str):
        self.error = error


def attempt(workload, inp):
    try:
        return workload.run(inp)
    except Exception:  # the client keeps running; the failure is counted and shown
        return Failed(traceback.format_exc())


def problems_of(workload, inp, out) -> list[str]:
    if isinstance(out, Failed):
        return [out.error]
    try:
        return workload.check(inp, out)
    except Exception:
        return ["check raised:\n" + traceback.format_exc()]


def fresh_import_s() -> float:
    """Import time of run.py, the package and the workloads in a fresh interpreter, from its first statement."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        "import run, qmaze, workloads; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def timed_imports(in_process: float) -> tuple[list[float], list[float]]:
    """This process's import time and fresh interpreters', SETUP_REPEATS in all, each with the host reading after it."""
    times, slowdowns = [in_process], [host_slowdown(SETUP_PROBE)]
    for _ in range(SETUP_REPEATS - 1):
        times.append(fresh_import_s())
        slowdowns.append(host_slowdown(SETUP_PROBE))
    return times, slowdowns


def timed_set_ups(workload) -> tuple[list[float], list[float]]:
    """SETUP_REPEATS set-ups of the workload, each with the host reading after it."""
    times, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        slowdowns.append(host_slowdown(SETUP_PROBE))
    return times, slowdowns


def rescaled(times: list[float], slowdowns: list[float]) -> list[float]:
    """Each time on the nominal host: divided by the host reading taken right after it."""
    return [t / slowdown for t, slowdown in zip(times, slowdowns)]


def digest(workload, pairs) -> str:
    h = hashlib.sha256()
    for inp, out in pairs:
        h.update(b"failed" if isinstance(out, Failed) else workload.canonical(inp, out).encode())
    return h.hexdigest()


def count_failures(workload, pairs) -> int:
    failed = 0
    for inp, out in pairs:
        problems = problems_of(workload, inp, out)
        if problems:
            failed += 1
            if failed <= MAX_PROBLEMS_SHOWN:
                print(f"{workload.name}: operation failed: " + "; ".join(problems), file=sys.stderr)
    return failed


def measure(workload, seed: int, seconds: float) -> tuple[list, list[float], float, list[float]]:
    """Closed loop with fresh inputs until ``seconds`` have passed; tracing off.

    The host is probed before the first operation and after every one,
    outside the operations' timing. Returns the pairs, the latencies, the
    time spent outside the probes, and the probe readings (one more than
    the operations).
    """
    pairs, latencies, slowdowns = [], [], [host_slowdown(workload.host_probe)]
    probing = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        inp = workload.input(seed, i)
        t0 = time.perf_counter()
        out = attempt(workload, inp)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        pairs.append((inp, out))
        slowdowns.append(host_slowdown(workload.host_probe))
        probing += time.perf_counter() - t1
        i += 1
        if time.perf_counter() - start >= seconds:
            return pairs, latencies, time.perf_counter() - start - probing, slowdowns


def measure_traced(workload, tracer, seed: int, seconds: float) -> tuple[list, list, list[float]]:
    """Repeat the first ``cycle`` inputs in whole cycles until ``seconds`` have passed.

    Each input runs once untraced and once traced, alternating which goes
    first. Whole cycles make every work counter repeat exactly for a seed.
    Returns every (input, output) pair, the traced ones, and the untraced
    wall times.
    """
    cycle = [workload.input(seed, i) for i in range(workload.cycle)]
    pairs, traced_pairs, plain = [], [], []
    start = time.perf_counter()
    op = 0
    while True:
        for inp in cycle:
            for traced in (op % 2 == 1, op % 2 == 0):
                if traced:
                    with spans.installed(tracer), tracer.operation(op):
                        out = attempt(workload, inp)
                    traced_pairs.append((inp, out))
                else:
                    t0 = time.perf_counter()
                    out = attempt(workload, inp)
                    plain.append(time.perf_counter() - t0)
                pairs.append((inp, out))
            op += 1
        if time.perf_counter() - start >= seconds:
            return pairs, traced_pairs, plain


def layer_metrics(tracer, traced_pairs, workload, plain: list[float]) -> dict[str, float]:
    from workloads import adaptive_metrics

    ops = len(traced_pairs)
    selfs = tracer.self_times()
    counts = tracer.counts
    walls = tracer.op_walls()
    metrics = {
        "trace.op_wall_s": sum(walls) / ops,
        "trace.overhead_frac": sum(walls) / sum(plain) - 1,
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0) / ops
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0) / ops
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0) / ops
    metrics["engine.grover_iterate.bytes_computed"] = (
        BYTES_PER_AMP_UPDATE * metrics["engine.grover_iterate.amp_updates"]
    )

    def per_unit(seconds_name, work_name, scale):
        work = counts.get(work_name, 0)
        return selfs.get(seconds_name, 0.0) / work * scale if work else 0.0

    metrics["fitness.landscape.us_per_path"] = per_unit("fitness.landscape", "fitness.landscape.paths", 1e6)
    metrics["engine.grover_iterate.ns_per_amp_update"] = per_unit(
        "engine.grover_iterate", "engine.grover_iterate.amp_updates", 1e9
    )
    metrics["circuits.run_batch.ns_per_gate_row"] = per_unit(
        "circuits.run_batch", "circuits.run_batch.gate_rows", 1e9
    )
    summaries = [workload.summary(inp, out) for inp, out in traced_pairs if not isinstance(out, Failed)]
    metrics.update(adaptive_metrics([s for s in summaries if s is not None]))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "qmaze" / "__init__.py").is_file():
        print(f"error: no qmaze sources at {SRC}; run from a qmaze checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qmaze

    if Path(qmaze.__file__).resolve().parent != SRC / "qmaze":
        print(f"error: qmaze imported from {qmaze.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    imports, import_slowdowns = timed_imports(time.perf_counter() - STARTED)
    workload = workloads.make(name)
    setups, setup_slowdowns = timed_set_ups(workload)
    imports_s = statistics.median(imports)
    setup_s = imports_s + statistics.median(setups)

    if trace:
        tracer = spans.Tracer()
        pairs, traced_pairs, plain = measure_traced(workload, tracer, seed, seconds)
        attempted = len(pairs)
        failed = count_failures(workload, pairs)
        values = layer_metrics(tracer, traced_pairs, workload, plain)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}
        tracer.dump(HERE / "out" / f"spans-{name}-seed{seed}.csv")
        record = {
            "traced_ops": len(traced_pairs),
            "untraced_ops": len(plain),
            "missing_sites": sorted(tracer.missing),
            "digest": digest(workload, traced_pairs[: workload.cycle]),
        }
        print(f"{name} seed={seed}: {len(traced_pairs)} traced and {len(plain)} untraced operations")
        for key, unit in PER_LAYER.items():
            print(f"  {key:<42}{values[key]:>16.6g} {unit}")
    else:
        pairs, latencies, elapsed, slowdowns = measure(workload, seed, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(pairs)
        failed = count_failures(workload, pairs)
        nominal = rescaled(latencies, slowdowns[1:])
        wall = {
            "latency_p50_s": statistics.median(latencies),
            "ops_per_s": len(pairs) / elapsed,
            "setup_s": setup_s,
        }
        values = {
            "latency_p50_s": statistics.median(nominal),
            "ops_per_s": len(pairs) / sum(nominal),
            "setup_s": statistics.median(rescaled(imports, import_slowdowns))
            + statistics.median(rescaled(setups, setup_slowdowns)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        slowdown = statistics.median(slowdowns)
        record = {
            "samples": len(latencies),
            "timed_s": elapsed,
            "imports_s": imports,
            "setups_s": setups,
            "wall": wall,
            "host_probe": workload.host_probe,
            "host_slowdown_median": slowdown,
            "setup_host_slowdowns": import_slowdowns + setup_slowdowns,
            "digest": digest(workload, pairs[: workload.cycle]),
            "digest_ops": min(len(pairs), workload.cycle),
        }
        print(f"{name} seed={seed}: {len(latencies)} operations in {elapsed:.2f} s, one closed-loop client")
        print(f"  host probe     {workload.host_probe}: {slowdown:.4f} x its nominal time, median of"
              f" {len(slowdowns)} readings; each operation's time is divided by the reading after it")
        print(f"  latency_p50_s  {values['latency_p50_s']:.6f} s    median of {len(latencies)} operations"
              f" (wall {wall['latency_p50_s']:.6f} s)")
        print(f"  ops_per_s      {values['ops_per_s']:.6f} 1/s  {len(pairs)} operations over their summed"
              f" rescaled times (wall {wall['ops_per_s']:.6f} 1/s over {elapsed:.3f} s)")
        print(f"  setup_s        {values['setup_s']:.6f} s    median of {SETUP_REPEATS} imports"
              f" {imports_s:.3f} s + median of {SETUP_REPEATS} set-ups (wall {setup_s:.6f} s)")
        print(f"  peak_rss_mb    {peak_rss_mb:.3f} MB   peak resident set, tracing off")
    record["env"] = environment(seed)
    print(json.dumps({"record": {"workload": name, "trace": trace, **record}}, sort_keys=True))
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up and peak memory stay its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    if not trace:
        print(f"\n{'workload':<16}" + "".join(f"{key:>18}" for key in END_TO_END) + f"{'ops':>8}{'failed':>8}")
        for name, result in results.items():
            cells = "".join(f"{result['metrics'][key]['value']:>14.6g} {END_TO_END[key]:<3}" for key in END_TO_END)
            print(f"{name:<16}{cells}{result['attempted']:>8}{result['failed']:>8}")
    metrics = {
        f"{name}.{key}": value for name, result in results.items() for key, value in result["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
