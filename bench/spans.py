"""In-memory span recorder that wraps bcmcf functions from the outside.

A traced run replaces selected module attributes of the package with
wrappers that record one span per call: name, start, end, parent span and
operation id, plus an optional note taken from the return value (a cycle
found, a solver's iteration count, a frontier's point count).  Spans stay
in memory until the run ends.  Untraced runs call :func:`assert_unpatched`
before timing so that they are known to execute the package as shipped.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    note: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module.attr`` records spans named ``name``.

    ``home`` is the module that defines the function; where ``module`` only
    re-imports it, the attribute must be the very object ``home`` holds.
    """

    module: str
    attr: str
    name: str
    home: str
    note: Callable[[object], float] | None = None


def _found(result: object) -> float:
    return 0.0 if result is None else 1.0


def _iterations(result: object) -> float:
    return float(result.iterations)  # type: ignore[attr-defined]


def _count(result: object) -> float:
    return float(len(result))  # type: ignore[arg-type]


TARGETS: tuple[Target, ...] = (
    Target("cli", "main", "cli.main", "cli"),
    Target("cli", "parse_instance", "model.parse_instance", "model"),
    Target("cli", "preprocess", "model.preprocess", "model"),
    Target("cli", "format_solution", "model.format_solution", "model"),
    Target("exact", "solve_exact", "exact.solve_exact", "exact"),
    Target("exact", "lambda_callback", "exact.lambda_callback", "exact"),
    Target("exact", "enumerate_frontier", "exact.enumerate_frontier", "exact", _count),
    Target("exact", "min_cost_circulation", "mcc.min_cost_circulation", "mcc"),
    Target("mcc", "find_negative_cycle", "mcc.find_negative_cycle", "mcc", _found),
    Target("fptas", "solve_gk", "fptas.solve_gk", "fptas", _iterations),
    Target("fptas", "solve_gk_acyclic", "fptas.solve_gk_acyclic", "fptas", _iterations),
    Target("fptas", "min_ratio_cycle", "fptas.min_ratio_cycle", "fptas"),
    Target("fptas", "min_ratio_path_dag", "fptas.min_ratio_path_dag", "fptas"),
)


class Recorder:
    """Collects spans; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._clock = clock
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Callable[[object], float] | None = None) -> Callable:
        spans, open_stack, clock = self.spans, self._open, self._clock

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_stack[-1] if open_stack else None, self.op)
            open_stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.note] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "note"], "spans": rows}, handle)


@contextlib.contextmanager
def installed(recorder: Recorder, modules: dict[str, ModuleType]) -> Iterator[Recorder]:
    """Patch every target with a recording wrapper; restore originals on exit."""
    saved = []
    try:
        for t in TARGETS:
            mod = modules[t.module]
            original = getattr(mod, t.attr)
            saved.append((mod, t.attr, original))
            setattr(mod, t.attr, recorder.wrap(t.name, original, t.note))
        yield recorder
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def assert_unpatched(modules: dict[str, ModuleType]) -> None:
    """Raise unless every target attribute is the package's own function."""
    for t in TARGETS:
        fn = getattr(modules[t.module], t.attr)
        home = modules[t.home]
        if hasattr(fn, "__wrapped__") or getattr(home, getattr(fn, "__name__", ""), None) is not fn:
            raise RuntimeError(f"{t.module}.{t.attr} is not the original bcmcf function")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
