"""Outside-in span tracer for qmaze.

The tracer wraps qmaze's public functions at the name each caller
resolves (a module attribute, or a default argument bound when the
caller was defined), records one span per call in memory, and turns the
spans into per-layer self times and work counters. Nothing inside the
package is edited: every span is a call boundary seen from outside.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT_SPAN = "op"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _landscape_counts(args, kwargs, result) -> dict[str, int]:
    return {"paths": int(result.values.size)}


def _iterate_counts(args, kwargs, result) -> dict[str, int]:
    state = _arg(args, kwargs, 0, "state")
    return {"amp_updates": int(_arg(args, kwargs, 2, "rounds")) * int(state.amps.size)}


def _shot_counts(args, kwargs, result) -> dict[str, int]:
    return {"shots": int(result.size)}


def _build_counts(args, kwargs, result) -> dict[str, int]:
    return {"gates": len(result.gates)}


def _batch_counts(args, kwargs, result) -> dict[str, int]:
    circuit = _arg(args, kwargs, 0, "circuit")
    return {"gate_rows": len(circuit.gates) * int(result[1].size)}


def _suite_counts(args, kwargs, result) -> dict[str, int]:
    return {
        "cases": sum(r.checked for r in result),
        "failures": sum(r.failures for r in result),
    }


@dataclass(frozen=True)
class Target:
    """One layer: the call sites to wrap and the work counters to record."""

    layer: str
    sites: tuple[tuple[str, str], ...]  # (module, attribute) a caller resolves
    count: Callable | None = None


# `codec` gets no span: it runs once per path inside `landscape`, where a
# wrapper would mostly time itself. `resources` runs in no workload.
TARGETS = (
    Target("cli", (("qmaze.cli", "main"),)),
    Target("maze.generate_maze", (("qmaze.cli", "generate_maze"), ("qmaze.verify", "generate_maze"))),
    Target("fitness.landscape", (("qmaze.fitness", "landscape"),), _landscape_counts),
    Target("adaptive.run_adaptive", (("qmaze.cli", "run_adaptive"), ("qmaze.adaptive", "run_adaptive"))),
    Target("adaptive.marked_for_cutoff", (("qmaze.adaptive", "marked_for_cutoff"),)),
    Target("engine.prepare_uniform", (("qmaze.adaptive", "prepare_uniform"),)),
    Target("engine.grover_iterate", (("qmaze.adaptive", "grover_iterate"),), _iterate_counts),
    Target("engine.measure_shots", (("qmaze.adaptive", "measure_shots"),), _shot_counts),
    Target("verify", (("qmaze.verify", "run_all"),), _suite_counts),
    Target(
        "circuits.build",
        tuple(
            ("qmaze.verify", name)
            for name in (
                "build_fitness_circuit",
                "build_gt_comparator",
                "build_oracle_circuit",
                "build_validity_circuit",
            )
        ),
        _build_counts,
    ),
    Target("circuits.run_batch", (("qmaze.verify", "run_batch"),), _batch_counts),
    Target("circuits.pack_unpack", (("qmaze.verify", "pack_rows"), ("qmaze.verify", "unpack_column"))),
)

LAYERS = tuple(t.layer for t in TARGETS)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._clock = clock

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self._clock()
        return span

    def _close(self, span: list):
        span[2] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span around one timed operation; layer spans nest inside it."""
        self._op = op
        span = self._open(ROOT_SPAN)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def wrap(self, layer: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, children):
            totals[span[0]] += span[2] - span[1] - child
        return dict(totals)

    def op_walls(self) -> list[float]:
        return [end - start for name, start, end, parent, _ in self.spans if parent is None]

    def dump(self, path: Path):
        """Write the spans as CSV: index,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start", "end", "parent", "op"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), "" if parent is None else parent, op])


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target site for the duration of the block, then restore.

    A site missing from the package is skipped and noted in
    ``tracer.missing``; its layer then reports zero calls.
    """
    saved: list[tuple[object, str, object]] = []
    defaults: list[tuple[types.FunctionType, tuple]] = []
    try:
        wrappers: dict[int, Callable] = {}
        modules = {}
        for target in targets:
            for module_name, attr in target.sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    tracer.missing.add(f"{module_name}.{attr}")
                    continue
                wrapper = tracer.wrap(target.layer, original, target.count)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
                wrappers[id(original)] = wrapper
                modules[module_name] = module
        # A default argument bound at definition time still points at the
        # original function (verify_comparator's `builder`, for one).
        for module in modules.values():
            for fn in list(vars(module).values()):
                if isinstance(fn, types.FunctionType) and fn.__defaults__:
                    if any(id(d) in wrappers for d in fn.__defaults__):
                        defaults.append((fn, fn.__defaults__))
                        fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
        yield tracer
    finally:
        for fn, original_defaults in reversed(defaults):
            fn.__defaults__ = original_defaults
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
