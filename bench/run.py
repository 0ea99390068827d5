"""Benchmark of the bcmcf solvers: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Each run imports ``bcmcf`` from this checkout's ``src``, builds the
workload's operations from ``--seed`` (see ``workloads.py``), and runs them
back to back in one process for about ``--seconds``, in whole passes over
the operation list.  Every output is checked against the reference table
after the timed region.  Timings are scaled by a reference loop timed
around each one (``calibrate``), because the host's speed changes from
minute to minute.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced by the span recorder of ``spans.py``, and the last line reports
the per-layer metrics.  Lines before
the last describe the run for a human reader.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import refs
import spans
import workloads

MODULES = ("cli", "model", "exact", "mcc", "fptas")
SETUP_REPEATS = 11
MIN_PASSES = 3
OUT_DIR = refs.BENCH_DIR / "out"

# The host runs this process at one speed for seconds to minutes and then at
# up to twice that time (see README, "The host"), so wall seconds of the same
# work differ from run to run by more than any bound.  Every timing is
# therefore scaled by a fixed loop timed right before and right after it:
# reference seconds = wall seconds * CAL_REF_S / loop seconds.  The loop
# shares no code with bcmcf, so a change to the package moves only the
# numerator.  CAL_REF_S is about the loop's least time on the VM where the
# baseline was measured, so a reference second is close to a wall second
# there in its fast phase.
CAL_STEPS = 6000
CAL_REF_S = 0.0009
_CAL_TABLE = dict.fromkeys(range(64), 1)


def calibrate() -> float:
    """Wall seconds of the reference loop: int and dict work, no allocation
    the garbage collector tracks, so the package's heap cannot slow it."""
    table = _CAL_TABLE
    t0 = time.perf_counter()
    for i in range(CAL_STEPS):
        k = i & 63
        table[k] = math.gcd(table[k] + i, 360360)
    return time.perf_counter() - t0


def scale(wall: float, cal_before: float, cal_after: float) -> float:
    """``wall`` seconds in reference seconds, by the loop times around it."""
    return wall * 2 * CAL_REF_S / (cal_before + cal_after)


@dataclass
class Setup:
    modules: dict
    ops: list
    entries: list[dict]


@dataclass
class Pass:
    """One pass: wall and CPU seconds in total (with the loops), each
    operation's wall seconds, and the reference loop's time before the first
    operation and after each one."""

    wall: float
    cpu: float
    times: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)

    def scaled(self) -> list[float]:
        """Each operation's time in reference seconds."""
        return [scale(t, a, b) for t, a, b in zip(self.times, self.cals, self.cals[1:])]


@dataclass
class Tally:
    """Failed operations, their first messages and the achieved ratios."""

    failed: int = 0
    messages: list[str] = field(default_factory=list)
    ratios: list[Fraction] = field(default_factory=list)
    seen: dict = field(default_factory=dict)  # (op index, output) -> check result

    def check_pass(self, setup: Setup, outputs: list) -> None:
        """Check one pass's outputs; an output one operation repeats is checked once."""
        for i, (op, out) in enumerate(zip(setup.ops, outputs)):
            key = (i, out if isinstance(out, str) else repr(out))
            if key not in self.seen:
                try:
                    self.seen[key] = check(setup.modules, op, setup.entries[op.case], out)
                except Exception as exc:  # an unreadable output fails its check
                    self.seen[key] = (f"check raised {exc!r}", None)
            message, ratio = self.seen[key]
            if message is not None:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"op {i} (case {op.case}, eps {op.epsilon}): {message}")
            elif ratio is not None:
                self.ratios.append(ratio)


def fresh_import() -> dict:
    """Import bcmcf anew, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "bcmcf" or m.startswith("bcmcf.")]:
        del sys.modules[name]
    bcmcf = refs.import_bcmcf()
    modules = {name: importlib.import_module(f"bcmcf.{name}") for name in MODULES}
    modules["bcmcf"] = bcmcf
    return modules


def run_op(modules: dict, op) -> object:
    """The timed operation: what a user of ``bcmcf solve`` waits for."""
    cli = modules["cli"]
    if op.kind == "frontier":
        return modules["exact"].enumerate_frontier(cli.preprocess(cli.parse_instance(op.text)))
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(op.text), io.StringIO()
    try:
        code = cli.main(op.argv())
        text = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    if code != 0:
        raise RuntimeError(f"bcmcf solve exited with code {code}")
    return text


def set_up(workload: str, corpus_seed: int, seed: int) -> Setup:
    modules = fresh_import()
    bcmcf = modules["bcmcf"]
    ops = workloads.make_ops(bcmcf, workload, corpus_seed, seed)
    corpus = workloads.WORKLOADS[workload][0]
    entries = refs.load(bcmcf, corpus_seed)[corpus]
    # warm up on an operation that is cheap in every lane: a zero budget,
    # few frontier points, the coarsest accuracy
    cases = workloads.corpus_cases(corpus, corpus_seed)
    warm = min(ops, key=lambda op: (cases[op.case].budget_mode != "zero",
                                    len(entries[op.case]["frontier"]), op.case, -(op.epsilon or 0)))
    run_op(modules, warm)
    return Setup(modules, ops, entries)


def run_passes(setup: Setup, budget_s: float, min_passes: int, tally: Tally,
               recorder=None, between: Callable[[], object] | None = None) -> list[Pass]:
    """Whole passes until the next one would overrun ``budget_s``.  Each
    pass's outputs are checked after its timing ends, then dropped, so that
    memory does not grow with the number of passes.  ``between`` runs after
    each pass, inside the budget."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(p.wall for p in passes) <= budget_s
    ):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        p = Pass(0.0, 0.0, cals=[calibrate()])
        outputs = []  # each output, or the exception raised
        for op in setup.ops:
            if recorder is not None:
                recorder.op += 1
            t0 = time.perf_counter()
            try:
                out = run_op(setup.modules, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            p.times.append(time.perf_counter() - t0)
            p.cals.append(calibrate())
            outputs.append(out)
        p.wall = time.perf_counter() - wall0
        p.cpu = time.process_time() - cpu0
        passes.append(p)
        tally.check_pass(setup, outputs)
        if between is not None:
            between()
    return passes


def check(modules: dict, op, entry: dict, out) -> tuple[str | None, Fraction | None]:
    """(failure message or None, objective/optimum for approximate solves)."""
    if isinstance(out, Exception):
        return "".join(traceback.format_exception_only(type(out), out)).strip(), None
    if op.kind == "frontier":
        got = [(p.cost, p.fee) for p in out]
        return (None if got == entry["frontier"] else f"frontier {got} != reference"), None
    model = modules["model"]
    doc = model.parse_solution(out)
    inst = model.parse_instance(op.text)
    report = model.validate_flow(inst, model.Flow.from_values(inst, doc.values))
    if not report.ok:
        return f"infeasible flow: {report.summary()}", None
    if report.cost != doc.objective or doc.algorithm != op.kind:
        return f"document disagrees with its flow or algorithm ({doc.algorithm})", None
    opt = entry["optimum"]
    if op.kind == "exact":
        if (doc.objective, doc.lam) != (opt, entry["lambda"]):
            return f"objective {doc.objective}, lambda {doc.lam} != reference {opt}, {entry['lambda']}", None
        return None, Fraction(1) if opt else None
    if not opt <= doc.objective <= (1 - Fraction(op.epsilon)) * opt:
        return f"objective {doc.objective} outside [{opt}, (1 - {op.epsilon}) * {opt}]", None
    return None, doc.objective / opt if opt else None


def input_properties(setup: Setup) -> dict[str, float]:
    ops, entries = setup.ops, setup.entries
    props = {
        "binding_share": sum(entries[op.case]["binds"] for op in ops) / len(ops),
        "zero_optimum_share": sum(entries[op.case]["optimum"] == 0 for op in ops) / len(ops),
        "points_per_instance": statistics.mean(len(entries[op.case]["frontier"]) for op in ops),
    }
    for eps in sorted({op.epsilon for op in ops if op.epsilon is not None}):
        props[f"eps_{eps}_share"] = sum(op.epsilon == eps for op in ops) / len(ops)
    return props


def end_to_end_metrics(setup_times: list[float], untraced: list[Pass], tail_pct: int,
                       peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The timings in reference seconds; ``setup_times`` are scaled already."""
    per_pass = [p.scaled() for p in untraced]
    times = [t for ts in per_pass for t in ts]
    # each operation's median over the passes; the median of these, not of
    # all samples, because operation times cluster with gaps between them,
    # and the median of all samples would pick an edge sample of a cluster
    per_op = [statistics.median(ts) for ts in zip(*per_pass)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s_p50": (statistics.median(per_op), "s"),
        "solve_s_tail": (statistics.quantiles(times, n=20, method="inclusive")[tail_pct // 5 - 1], "s"),
        "pass_s": (sum(per_op), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(recorder: spans.Recorder, traced: list[Pass], untraced: list[Pass],
                  ratios: list[Fraction], props: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures derived from the spans of the traced passes."""
    n_pass = len(traced)
    selfs = spans.self_times(recorder.spans)
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    note: dict[str, float] = {}
    for s, self_s in zip(recorder.spans, selfs):
        count[s.name] = count.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_s
        note[s.name] = note.get(s.name, 0.0) + (s.note or 0.0)

    def total(table: dict, *names: str) -> float:
        return sum(table.get(n, 0) for n in names) / n_pass

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    oracles = ("fptas.min_ratio_cycle", "fptas.min_ratio_path_dag")
    solvers = ("fptas.solve_gk", "fptas.solve_gk_acyclic")
    op_time = sum(sum(p.times) for p in traced) / n_pass
    front = (total(busy, "model.parse_instance") + total(busy, "model.preprocess")
             + total(busy, "model.format_solution") + total(own, "cli.main"))
    return {
        "model.parse_s": (total(busy, "model.parse_instance"), "s"),
        "model.preprocess_s": (total(busy, "model.preprocess"), "s"),
        "model.format_s": (total(busy, "model.format_solution"), "s"),
        "cli.self_s": (total(own, "cli.main"), "s"),
        "cli_model.share": (ratio(front, op_time), "frac"),
        "exact.probes": (total(count, "exact.lambda_callback"), "count"),
        "exact.probe_s": (ratio(total(busy, "exact.lambda_callback"), total(count, "exact.lambda_callback")), "s"),
        "exact.self_s": (total(own, "exact.solve_exact", "exact.lambda_callback", "exact.enumerate_frontier"), "s"),
        "exact.binding_share": (props["binding_share"], "frac"),
        "frontier.points": (total(note, "exact.enumerate_frontier"), "count"),
        "frontier.solves_per_point": (ratio(total(count, "mcc.min_cost_circulation"),
                                           total(note, "exact.enumerate_frontier")), "ratio"),
        "mcc.solves": (total(count, "mcc.min_cost_circulation"), "count"),
        "mcc.busy_s": (total(busy, "mcc.min_cost_circulation"), "s"),
        "mcc.self_s": (total(own, "mcc.min_cost_circulation"), "s"),
        "mcc.cycles_canceled": (total(note, "mcc.find_negative_cycle"), "count"),
        "mcc.cycle_search_s": (total(busy, "mcc.find_negative_cycle"), "s"),
        "mcc.s_per_cycle": (ratio(total(busy, "mcc.find_negative_cycle"), total(note, "mcc.find_negative_cycle")), "s"),
        "fptas.iterations": (total(note, *solvers), "count"),
        "fptas.oracle_calls": (total(count, *oracles), "count"),
        "fptas.oracle_calls_per_iteration": (ratio(total(count, *oracles), total(note, *solvers)), "ratio"),
        "fptas.oracle_busy_s": (total(busy, *oracles), "s"),
        "fptas.s_per_oracle_call": (ratio(total(busy, *oracles), total(count, *oracles)), "s"),
        "fptas.loop_self_s": (total(own, *solvers), "s"),
        "fptas.achieved_ratio_min": (float(min(ratios)) if ratios else 0.0, "ratio"),
        "fptas.zero_optimum_share": (props["zero_optimum_share"], "frac"),
        "trace.overhead_frac": (statistics.median(sum(t.scaled()) / sum(u.scaled())
                                                  for u, t in zip(untraced, traced)) - 1, "frac"),
        "bench.wall_over_cpu": (sum(p.wall for p in untraced) / sum(p.cpu for p in untraced), "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="run seed: relabeling and order")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="corpus seed; a missing reference table is built first")
    args = parser.parse_args(argv)

    refs.import_bcmcf()  # fail fast, before any work, without the package sources
    if not refs.table_path(args.corpus_seed).is_file():
        subprocess.run([sys.executable, str(refs.BENCH_DIR / "refs.py"),
                        "--corpus-seed", str(args.corpus_seed)], check=True)

    setup_times = []

    def timed_set_up() -> Setup:
        before = calibrate()
        t0 = time.perf_counter()
        fresh = set_up(args.workload, args.corpus_seed, args.seed)
        wall = time.perf_counter() - t0
        setup_times.append(scale(wall, before, calibrate()))
        return fresh

    setup = timed_set_up()
    spans.assert_unpatched(setup.modules)

    n_ops = len(setup.ops)
    # the highest multiple of 5 percent that leaves ten samples beyond it
    # even in a run of the fewest passes
    tail_pct = 5 * math.floor((100 - 1000 / (n_ops * MIN_PASSES)) / 5)
    recorder = None
    tally = Tally()
    if args.trace:
        # alternate untraced and traced passes, so that a change in the
        # host's speed does not pass for tracing overhead
        recorder = spans.Recorder()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start + untraced[-1].wall
                             + traced[-1].wall <= args.seconds):
            untraced += run_passes(setup, 0.0, 1, tally)
            with spans.installed(recorder, setup.modules):
                traced += run_passes(setup, 0.0, 1, tally, recorder)
            spans.assert_unpatched(setup.modules)
    else:
        # the other set-ups are timed between passes, spread evenly over the
        # run, so that setup_s samples the host's speed as the passes do; a
        # fixed count keeps peak_rss_mb independent of the number of passes.
        # The passes keep running on the first set-up.
        start = time.perf_counter()

        def set_ups_due() -> None:
            share = min(1.0, (time.perf_counter() - start) / args.seconds)
            while len(setup_times) < 1 + round((SETUP_REPEATS - 1) * share):
                timed_set_up()

        untraced = run_passes(setup, args.seconds, MIN_PASSES, tally, between=set_ups_due)
        while len(setup_times) < SETUP_REPEATS:
            timed_set_up()
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = tally.failed
    attempted = n_ops * (len(untraced) + len(traced))
    props = input_properties(setup)
    e2e = end_to_end_metrics(setup_times, untraced, tail_pct, peak_rss_mb)

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} corpus-seed {args.corpus_seed}: "
          f"{n_ops} operations per pass, {len(untraced)} untraced and {len(traced)} traced passes")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    print(f"  solve_s_tail is p{tail_pct:g} of {n_ops * len(untraced)} samples")
    print(f"  unscaled: solve p50 {statistics.median(t for p in untraced for t in p.times):.6g} s, "
          f"reference loop p50 {statistics.median(c for p in untraced for c in p.cals):.6g} s "
          f"(CAL_REF_S {CAL_REF_S})")
    print(f"  failed_frac              {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value in props.items():
        print(f"  input {name:<18} {value:.6g}")
    if tally.ratios:
        print(f"  achieved_ratio_min       {float(min(tally.ratios)):.6g}")

    if args.trace:
        metrics = layer_metrics(recorder, traced, untraced, tally.ratios, props)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:.6g} {unit}")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
