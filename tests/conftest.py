"""Shared fixtures: hand-built instances and generated corpora."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest

from bcmcf import EdgeData, Flow, Instance, generate_instance, preprocess
from bcmcf.fptas import (
    RatioResult,
    _cycle_arcs,
    _path_setup,
    min_ratio_cycle,
    min_ratio_path_dag,
    topological_order,
)


def scaled_flow(x: Flow, factor: Fraction) -> Flow:
    """``x`` with every value and both totals multiplied by ``factor``."""
    return Flow(tuple(v * factor for v in x.values), x.cost * factor, x.fee * factor)


def ratio_cycle(
    inst: Instance,
    num: Sequence[float],
    den: Sequence[float],
    rel_tol: float,
    start: Sequence[int] | None = None,
) -> RatioResult | None:
    """One ``min_ratio_cycle`` call, with the arcs and positive-denominator
    sum that ``solve_gk`` builds once per solve built for it alone."""
    return min_ratio_cycle(
        inst, num, den, rel_tol, _cycle_arcs(inst), sum(d for d in den if d > 0), start
    )


def ratio_path(
    inst: Instance,
    num: Sequence[float],
    den: Sequence[float],
    source: int,
    sink: int,
    rel_tol: float,
) -> RatioResult | None:
    """One ``min_ratio_path_dag`` call, with the set-up that
    ``solve_gk_acyclic`` builds once per solve built for it alone."""
    setup = _path_setup(inst, topological_order(inst), den, source, sink)
    return min_ratio_path_dag(inst, num, source, sink, setup, rel_tol)


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
