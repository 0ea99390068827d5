"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The corpora are generated deterministically and
shared across criteria through session fixtures.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from bcmcf import (
    Solution,
    enumerate_frontier,
    generate_instance,
    instance_stats,
    oracle_optimum,
    parse_instance,
    preprocess,
    serialize_instance,
    solve_exact,
    solve_gk,
    solve_gk_acyclic,
    validate_flow,
)
from bcmcf import fptas
from bcmcf.exact import edge_multiplier
from bcmcf.model import Flow, Instance
from bcmcf.oracle import iter_integral_values
from conftest import (
    corpus_instances,
    cycle_test,
    dag_corpus_instances,
    path_test,
    scaled_flow,
    threshold_violation,
)
from reference_oracles import (
    VerdictKind,
    exhaustive_min_ratio_cycle,
    exhaustive_min_ratio_path,
    oracle_frontier,
    trichotomy,
)


def report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {len(failures)} failure(s); first: {failures[0]}"


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return corpus_instances(300)


@pytest.fixture(scope="session")
def corpus_optima(corpus) -> list[Solution]:
    return [oracle_optimum(inst) for inst in corpus]


@pytest.fixture(scope="session")
def corpus_exact(corpus) -> list[Solution]:
    return [solve_exact(inst) for inst in corpus]


@pytest.fixture(scope="session")
def dag_corpus() -> list[Instance]:
    return dag_corpus_instances(100)


def test_exact_matches_oracle(corpus):
    """Exact solver equals the brute-force optimum, witnesses re-validate."""
    start = time.monotonic()
    failures = []
    for inst in corpus:
        sol = solve_exact(inst)
        ref = oracle_optimum(inst)
        if sol.objective != ref.objective:
            failures.append(f"objective {sol.objective} != {ref.objective} on {inst}")
            continue
        check = validate_flow(inst, sol.flow)
        if not check.ok or sol.flow.fee > inst.budget:
            failures.append(f"witness infeasible on {inst}")
    elapsed = time.monotonic() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    report(f"exact-oracle equivalence (300 instances, {elapsed:.1f}s)", failures)


def test_search_probe_bound(corpus, corpus_exact):
    """All multiplier probes stay within the grid's logarithmic budget."""
    failures = []
    for inst, sol in zip(corpus, corpus_exact):
        stats = instance_stats(inst)
        grid = 2 * stats.bbar * stats.cbar**2 + 1
        bound = (grid - 1).bit_length() + 2 if grid > 1 else 2
        probes = sol.iterations
        if probes > bound:
            failures.append(f"{probes} probes > bound {bound} on {inst}")
    report("probe bound (ceil(log2(2*bbar*cbar^2+1)) + 2)", failures)


def test_frontier_slope_separation(corpus):
    """Frontiers match the oracle exactly; adjacent slopes differ >= 1/cbar^2."""
    failures = []
    for inst in corpus:
        mine = enumerate_frontier(inst)
        ref = oracle_frontier(inst)
        if [(p.cost, p.fee) for p in mine] != [(p.cost, p.fee) for p in ref]:
            failures.append(f"frontier sets differ on {inst}")
            continue
        cbar = instance_stats(inst).cbar
        if cbar == 0:
            continue
        slopes = [
            Fraction(b.fee - a.fee, b.cost - a.cost) for a, b in zip(mine, mine[1:])
        ]
        gap = Fraction(1, cbar**2)
        for s1, s2 in zip(slopes, slopes[1:]):
            if abs(s1 - s2) < gap:
                failures.append(f"slope gap {abs(s1 - s2)} < {gap} on {inst}")
    report("frontier slope separation (exact rational)", failures)


def lambda_star_interval(points, budget: int) -> tuple[Fraction, Fraction | None]:
    """Closed multiplier interval the trichotomy test reports as Inside.

    Derived from the oracle frontier.  With budget slack beyond the
    highest-fee extreme point, only the zero multiplier reports Inside
    (every positive one sees its fee-maximal optimum undershoot the
    budget); otherwise the interval brackets the budget crossing.
    """
    top = points[-1]
    if budget > top.fee:
        return Fraction(0), Fraction(0)
    if budget == top.fee:
        return top.lambda_low, top.lambda_high
    for i in range(len(points) - 1):
        if points[i].fee <= budget < points[i + 1].fee:
            if budget == points[i].fee:
                return points[i].lambda_low, points[i].lambda_high
            lam = edge_multiplier(points[i], points[i + 1])
            return lam, lam
    raise AssertionError("budget below the minimum achievable fee")


def test_trichotomy_pattern(corpus):
    """Fifty evenly spaced multipliers give Below*, Inside*, Above* verdicts.

    Each verdict is also checked against the exact optimal-multiplier
    interval derived from the oracle frontier, so an Inside appears whenever
    the sample grid touches that interval.
    """
    failures = []
    rank = {VerdictKind.BELOW: 0, VerdictKind.INSIDE: 1, VerdictKind.ABOVE: 2}
    for inst in corpus[:120]:
        stats = instance_stats(inst)
        lo, hi = lambda_star_interval(oracle_frontier(inst), inst.budget)
        top = stats.lambda_above_all_slopes()
        kinds = []
        for k in range(50):
            lam = Fraction(k) * top / 49
            verdict = trichotomy(inst, lam)
            kinds.append(verdict.kind)
            if lam < lo:
                expected = VerdictKind.BELOW
            elif hi is None or lam <= hi:
                expected = VerdictKind.INSIDE
            else:
                expected = VerdictKind.ABOVE
            if verdict.kind is not expected:
                failures.append(f"lam={lam}: {verdict.kind} != {expected} on {inst}")
        ranks = [rank[k] for k in kinds]
        if ranks != sorted(ranks):
            failures.append(f"verdicts interleave on {inst}")
    report("trichotomy monotonicity (50-sample sweeps)", failures)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_fptas_guarantee(corpus, corpus_optima, eps):
    """General-graph scheme meets the (1 - eps) bound with a feasible flow."""
    start = time.monotonic()
    failures = []
    for inst, ref in zip(corpus, corpus_optima):
        sol = solve_gk(inst, eps)
        check = validate_flow(inst, sol.flow)
        if not check.ok or sol.flow.fee > inst.budget:
            failures.append(f"infeasible output on {inst}")
        elif sol.objective > (1 - Fraction(eps)) * ref.objective:
            failures.append(
                f"objective {float(sol.objective):.4f} misses "
                f"{float((1 - Fraction(eps)) * ref.objective):.4f} on {inst}"
            )
    elapsed = time.monotonic() - start
    report(f"approximation guarantee eps={eps} ({elapsed:.0f}s)", failures)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_fptas_acyclic_guarantee(dag_corpus, eps, monkeypatch):
    """Acyclic scheme meets the bound; every threshold test is shadow-checked."""
    failures = []
    path_test_fn = fptas.min_ratio_path_dag

    def audited(graph, arcs, source, sink, weights):
        # the audit sees the weights w = num - lam * den alone, so it checks
        # the contract at threshold 0 on the numerators w
        result = path_test_fn(graph, arcs, source, sink, weights)
        if graph.node_count > 12:
            return result
        den = [-e.cost for e in graph.edges]
        best = exhaustive_min_ratio_path(graph, weights, den, source, sink)
        violation = threshold_violation(graph, result, weights, den, 0.0, best, (source, sink))
        assert violation is None, violation
        return result

    monkeypatch.setattr(fptas, "min_ratio_path_dag", audited)

    for inst in dag_corpus:
        ref = oracle_optimum(inst)
        sol = solve_gk_acyclic(inst, eps)
        check = validate_flow(inst, sol.flow)
        if not check.ok or sol.flow.fee > inst.budget:
            failures.append(f"infeasible output on {inst}")
        elif sol.objective > (1 - Fraction(eps)) * ref.objective:
            failures.append(f"guarantee missed on {inst}")
    report(f"acyclic guarantee eps={eps} (100 dags, audited tests)", failures)


@pytest.mark.parametrize(
    "gap, oracle",
    [
        pytest.param(0.1, "cycle", id="0.1"),
        pytest.param(0.01, "cycle", id="0.01"),
        pytest.param(0.1, "path", id="path-0.1"),
        pytest.param(0.01, "path", id="path-0.01"),
    ],
)
def test_cycle_oracle_quality(gap, oracle):
    """The cycle threshold test, or the path test on DAGs, keeps its
    contract against exhaustive search at thresholds a factor (1 + gap)
    above and below the minimum ratio: a cycle or path with a ratio below
    the threshold above, nothing below."""
    rng = random.Random(314)
    failures = []
    checked = 0
    seed = 0
    acyclic = oracle == "path"
    while checked < 100:
        seed += 1
        inst = preprocess(
            generate_instance(
                nodes=2 + seed % 7, edges=2 + seed % 11, acyclic=acyclic, seed=2000 + seed
            )
        )
        if inst.node_count > 8:
            continue
        num = [rng.uniform(0.0, 5.0) for _ in inst.edges]
        den = [float(-e.cost) for e in inst.edges]
        if acyclic:
            best = exhaustive_min_ratio_path(inst, num, den)
            ends = (inst.source, inst.sink)
        else:
            best = exhaustive_min_ratio_cycle(inst, num, den)
            ends = None
        checked += best is not None
        lams = [5.0] if best is None else [float(best[1]) / (1 + gap), float(best[1]) * (1 + gap)]
        for lam in lams:
            if acyclic:
                found = path_test(inst, num, den, lam)
            else:
                found = cycle_test(inst, num, den, lam)
            violation = threshold_violation(inst, found, num, den, lam, best, ends)
            if violation is not None:
                failures.append(f"{violation} on {inst}")
            elif (found is None) != (best is None or lam < best[1]):
                failures.append(f"{oracle} test at {lam} answered {found} on {inst}")
    report(f"{oracle} threshold test at (1 +/- {gap}) x minimum (100 graphs)", failures)


def test_rescaling(corpus, corpus_optima):
    """Dividing a slightly over-budget flow by (1 + eps) restores feasibility."""
    eps = Fraction(1, 4)
    failures = []
    checked = 0
    for inst, ref in zip(corpus, corpus_optima):
        if inst.budget < 1:
            continue
        unbudgeted = Instance(
            node_count=inst.node_count,
            edges=inst.edges,
            source=inst.source,
            sink=inst.sink,
            budget=10**9,
        )
        for values in iter_integral_values(inst):
            x = Flow.from_values(inst, values)
            if not inst.budget < x.fee <= (1 + eps) * inst.budget:
                continue
            checked += 1
            scaled = scaled_flow(x, Fraction(1) / (1 + eps))
            if not validate_flow(unbudgeted, scaled).ok:
                failures.append(f"rescaled flow infeasible on {inst}")
            if scaled.fee > inst.budget:
                failures.append(f"fee {scaled.fee} > budget {inst.budget}")
            if scaled.cost != x.cost / (1 + eps):
                failures.append("cost did not scale linearly")
            if x.cost <= (1 - eps) * ref.objective and scaled.cost > (
                1 - 2 * eps
            ) * ref.objective:
                failures.append(f"two-eps bound missed on {inst}")
            if checked >= 100:
                break
        if checked >= 100:
            break
    if checked < 100:
        failures.append(f"only {checked} over-budget flows found")
    report("bicriteria rescaling (100 synthetic flows)", failures)


def test_roundtrip_and_determinism():
    """Serialization round-trips and generation is byte-deterministic."""
    failures = []
    for seed in range(100):
        kwargs = dict(
            nodes=2 + seed % 6,
            edges=1 + seed % 12,
            budget_mode=("tight", "slack", "zero")[seed % 3],
            acyclic=seed % 2 == 1,
            seed=seed,
        )
        inst = generate_instance(**kwargs)
        if parse_instance(serialize_instance(inst)) != inst:
            failures.append(f"round-trip failed for seed {seed}")
        again = serialize_instance(generate_instance(**kwargs))
        if again.encode() != serialize_instance(inst).encode():
            failures.append(f"generation not deterministic for seed {seed}")
    report("round-trip and determinism (100 files)", failures)
