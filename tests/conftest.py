"""Shared fixtures: hand-built instances and generated corpora."""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Sequence

import pytest

from bcmcf import EdgeData, Flow, FrontierPoint, Instance, generate_instance, preprocess
from bcmcf.fptas import _arcs, min_ratio_cycle, min_ratio_path_dag, topological_order

# Hypothesis imports libcst to print a failing test's patch, and libcst's own
# import raises a DeprecationWarning, which `-W error` turns into an
# INTERNALERROR that ends the session at the first failing @given test.
# Importing it here once, with only that warning ignored, keeps every other
# warning an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def scaled_flow(x: Flow, factor: Fraction) -> Flow:
    """``x`` with every value and both totals multiplied by ``factor``."""
    return Flow(tuple(v * factor for v in x.values), x.cost * factor, x.fee * factor)


def point_flow(inst: Instance, p: FrontierPoint) -> Flow:
    """The exact :class:`Flow` of frontier point ``p``'s int witness on ``inst``."""
    return Flow.from_values(inst, p.values)


def dag_arcs(inst: Instance) -> list[tuple[int, int, int]]:
    """``inst``'s arcs sorted by a topological order of their tails, as
    ``solve_gk_acyclic`` builds them once per solve."""
    rank = {v: k for k, v in enumerate(topological_order(inst))}
    return sorted(_arcs(inst), key=lambda arc: rank[arc[0]])


def cycle_test(
    inst: Instance, num: Sequence[float], den: Sequence[float], lam: float
) -> list[int] | None:
    """One ``min_ratio_cycle`` test at ``lam`` on ``inst``'s own arcs."""
    return min_ratio_cycle(inst, _arcs(inst), [x - lam * d for x, d in zip(num, den)])


def path_test(
    inst: Instance,
    num: Sequence[float],
    den: Sequence[float],
    lam: float,
    source: int | None = None,
    sink: int | None = None,
) -> list[int] | None:
    """One ``min_ratio_path_dag`` test at ``lam`` between ``inst``'s source
    and sink by default, with the arcs built for it alone."""
    source = inst.source if source is None else source
    sink = inst.sink if sink is None else sink
    weights = [x - lam * d for x, d in zip(num, den)]
    return min_ratio_path_dag(inst, dag_arcs(inst), source, sink, weights)


def threshold_violation(
    inst: Instance,
    found: Sequence[int] | None,
    num: Sequence[float],
    den: Sequence[float],
    lam: float,
    best: tuple[tuple[int, ...], Fraction] | None,
    ends: tuple[int, int] | None = None,
) -> str | None:
    """How a threshold test's answer ``found`` at ``lam`` breaks its contract, or None.

    ``best`` is the enumerated minimum ratio over columns with a positive
    denominator, as ``(column, ratio)``, or None when there is no such
    column.  A column found must be a simple cycle of ``inst``, or with
    ``ends`` a path from ``ends[0]`` to ``ends[1]``, whose ratio is below
    ``lam``; None is allowed only when ``best``'s ratio is at least
    ``lam``.  Both are checked on the exact weight num - lam * den of the
    column, with a slack of 1e-12 times the sum of its terms' magnitudes.
    """

    def weight_and_slack(column: Sequence[int]) -> tuple[Fraction, Fraction]:
        terms = [Fraction(num[i]) - Fraction(lam) * Fraction(den[i]) for i in column]
        scale = sum(abs(Fraction(num[i])) + abs(Fraction(lam) * Fraction(den[i])) for i in column)
        return sum(terms, Fraction(0)), scale * Fraction(1, 10**12)

    if found is None:
        if best is not None:
            weight, slack = weight_and_slack(best[0])
            if weight < -slack:
                return f"nothing found at {lam} though a column has ratio {float(best[1])}"
        return None
    edges = [inst.edges[i] for i in found]
    tails = [e.tail for e in edges]
    heads = [e.head for e in edges]
    if ends is None:
        if heads != tails[1:] + tails[:1] or len(set(tails)) != len(tails):
            return f"{list(found)} is not a simple cycle"
    elif tails != [ends[0], *heads[:-1]] or heads[-1] != ends[1] or len(set(tails)) != len(tails):
        return f"{list(found)} is not a simple path from {ends[0]} to {ends[1]}"
    if not sum(Fraction(den[i]) for i in found) > 0:
        return f"{list(found)} has no positive denominator"
    weight, slack = weight_and_slack(found)
    if not weight < slack:
        return f"{list(found)} has weight {float(weight)} at {lam}, not below 0"
    return None


@pytest.fixture
def inst_two_parallel() -> Instance:
    """Two parallel source-sink edges: one cheap with fees, one mild without."""
    return Instance(
        node_count=2,
        edges=(EdgeData(1, 2, 2, -4, 2), EdgeData(1, 2, 2, -1, 0)),
        source=1,
        sink=2,
        budget=2,
    )


@pytest.fixture
def inst_single_positive() -> Instance:
    """One positive-cost edge; the zero flow is optimal."""
    return Instance(
        node_count=2,
        edges=(EdgeData(1, 2, 1, 1, 0),),
        source=1,
        sink=2,
        budget=0,
    )


@pytest.fixture
def inst_two_hop() -> Instance:
    """Source-sink via a middle node plus a direct edge."""
    return Instance(
        node_count=3,
        edges=(
            EdgeData(1, 2, 2, -1, 1),
            EdgeData(2, 3, 2, -1, 1),
            EdgeData(1, 3, 1, -3, 1),
        ),
        source=1,
        sink=3,
        budget=3,
    )


def corpus_instances(count: int = 300) -> list[Instance]:
    """Small random instances covering all budget modes, preprocessed."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        inst = generate_instance(
            nodes=2 + seed % 5,
            edges=1 + (seed * 7) % 10,
            max_capacity=3,
            max_cost=5,
            max_fee=5,
            budget_mode=("tight", "slack", "zero")[seed % 3],
            acyclic=False,
            seed=seed,
        )
        out.append(preprocess(inst))
    return out


def dag_corpus_instances(count: int = 100) -> list[Instance]:
    """Random acyclic instances; capacities capped so enumeration stays cheap."""
    out = []
    seed = 10_000
    while len(out) < count:
        seed += 1
        inst = generate_instance(
            nodes=3 + seed % 6,
            edges=2 + (seed * 5) % 13,
            max_capacity=2,
            max_cost=5,
            max_fee=5,
            budget_mode=("tight", "slack", "zero")[seed % 3],
            acyclic=True,
            seed=seed,
        )
        out.append(preprocess(inst))
    return out
