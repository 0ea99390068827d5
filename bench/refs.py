"""Build the reference table of a corpus.

    python3 bench/refs.py --corpus-seed 0

For every corpus instance (after ``preprocess``) the table stores, as exact
rational strings, the optimum and multiplier reported by ``solve_exact``,
whether the budget binds (multiplier above zero), and the extreme points of
``enumerate_frontier``.  Before anything is written, the optimum must equal
the value of the frontier at the budget and, where the assignment space is
at most ``ORACLE_GUARD``, the brute-force ``oracle_optimum``.  A mismatch
aborts the build, and so does a table in which the oracle checked no
instance: the small ``oracle`` corpus exists so that it checks some.  The
table for corpus seed 0 is committed; ``run.py`` calls this step itself for
any other corpus seed before it starts timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import CORPORA, corpus_cases

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFS_DIR = BENCH_DIR / "refs"

# assignment-space cap for the brute-force cross-check, below the package
# default of 10**7
ORACLE_GUARD = 10**6


def import_bcmcf():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC_DIR / "bcmcf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bcmcf sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import bcmcf

    if Path(bcmcf.__file__).resolve().parent != SRC_DIR / "bcmcf":
        raise SystemExit(f"bench: imported bcmcf from {bcmcf.__file__}, not {SRC_DIR}")
    return bcmcf


def table_path(corpus_seed: int) -> Path:
    return REFS_DIR / f"corpus-{corpus_seed}.json"


def instance_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def frontier_value(points, budget: int) -> Fraction:
    """Least cost of the lower-left frontier at fee ``budget``.

    ``points`` are (cost, fee) extreme points by increasing fee; the first
    has fee 0 (the zero flow is always feasible).
    """
    budget = Fraction(budget)
    for (c1, f1), (c2, f2) in zip(points, points[1:]):
        if f1 <= budget < f2:
            return c1 + (c2 - c1) * (budget - f1) / (f2 - f1)
    return points[-1][0]


def reference_entry(bcmcf, case) -> dict:
    """Solve one corpus case three ways and return its cross-checked entry."""
    raw = case.generate(bcmcf)
    inst = bcmcf.preprocess(raw)
    sol = bcmcf.solve_exact(inst)
    points = [(p.cost, p.fee) for p in bcmcf.enumerate_frontier(inst)]
    if not bcmcf.validate_flow(inst, sol.flow).ok:
        raise RuntimeError(f"{case}: solve_exact returned an infeasible flow")
    at_budget = frontier_value(points, inst.budget)
    if sol.objective != at_budget:
        raise RuntimeError(f"{case}: solve_exact {sol.objective} != frontier value {at_budget}")
    try:
        brute = bcmcf.oracle_optimum(inst, guard=ORACLE_GUARD).objective
    except bcmcf.EnumerationGuardError:
        brute = None
    if brute is not None and brute != sol.objective:
        raise RuntimeError(f"{case}: solve_exact {sol.objective} != oracle {brute}")
    fmt = bcmcf.format_fraction
    return {
        "case": [case.nodes, case.edges, case.max_capacity, case.budget_mode,
                 case.acyclic, case.gen_seed],
        "digest": instance_digest(bcmcf.serialize_instance(raw)),
        "optimum": fmt(sol.objective),
        "lambda": fmt(sol.lam),
        "binds": sol.lam > 0,
        "frontier": [[fmt(c), fmt(f)] for c, f in points],
        "oracle_checked": brute is not None,
    }


def build(bcmcf, corpus_seed: int, log=None) -> dict:
    corpora = {}
    for corpus in CORPORA:
        entries = []
        for case in corpus_cases(corpus, corpus_seed):
            start = time.perf_counter()
            entries.append(reference_entry(bcmcf, case))
            if log is not None:
                print(f"{corpus} {case} {time.perf_counter() - start:.3f}s", file=log)
        corpora[corpus] = entries
    checked = sum(e["oracle_checked"] for entries in corpora.values() for e in entries)
    if not checked:
        raise RuntimeError("the oracle checked no instance of the table")
    if log is not None:
        print(f"oracle_optimum agreed on {checked} instances", file=log)
    return {"corpus_seed": corpus_seed, "oracle_guard": ORACLE_GUARD, "corpora": corpora}


def load(bcmcf, corpus_seed: int) -> dict[str, list[dict]]:
    """The table with numbers as Fractions, each entry checked against its instance."""
    with open(table_path(corpus_seed), encoding="utf-8") as handle:
        table = json.load(handle)
    parse = bcmcf.model.parse_fraction
    out = {}
    for corpus, entries in table["corpora"].items():
        cases = corpus_cases(corpus, corpus_seed)
        if len(cases) != len(entries):
            raise RuntimeError(f"reference table for {corpus} does not match the corpus")
        for case, entry in zip(cases, entries):
            if instance_digest(bcmcf.serialize_instance(case.generate(bcmcf))) != entry["digest"]:
                raise RuntimeError(f"reference table entry for {case} is stale")
            entry["optimum"] = parse(entry["optimum"])
            entry["lambda"] = parse(entry["lambda"])
            entry["frontier"] = [(parse(c), parse(f)) for c, f in entry["frontier"]]
        out[corpus] = entries
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bcmcf = import_bcmcf()
    table = build(bcmcf, args.corpus_seed, log=sys.stderr)
    REFS_DIR.mkdir(exist_ok=True)
    path = table_path(args.corpus_seed)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)
    print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
