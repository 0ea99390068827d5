"""Tests for the brute-force oracle and the test-local references."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bcmcf import (
    EdgeData,
    EnumerationGuardError,
    Instance,
    generate_instance,
    oracle_optimum,
    preprocess,
    validate_flow,
)
from bcmcf.oracle import build_point_cloud
from conftest import point_flow
from reference_oracles import (
    circulation_form,
    enumerate_integral_flows,
    exhaustive_min_ratio_cycle,
    iter_simple_cycles,
    oracle_frontier,
)


class TestEnumerate:
    def test_single_edge_has_two_flows(self, inst_single_positive):
        flows = enumerate_integral_flows(inst_single_positive)
        assert sorted(f.values[0] for f in flows) == [0, 1]

    def test_parallel_edges_are_uncoupled(self, inst_two_parallel):
        flows = enumerate_integral_flows(inst_two_parallel)
        assert len(flows) == 9
        assert {tuple(f.values) for f in flows} == {
            (Fraction(a), Fraction(b)) for a in range(3) for b in range(3)
        }

    def test_conservation_enforced_at_middle_nodes(self, inst_two_hop):
        for f in enumerate_integral_flows(inst_two_hop):
            assert f.values[0] == f.values[1]

    def test_guard(self):
        inst = Instance(
            node_count=2,
            edges=tuple(EdgeData(1, 2, 9, -1, 0) for _ in range(12)),
            source=1,
            sink=2,
            budget=0,
        )
        with pytest.raises(EnumerationGuardError):
            enumerate_integral_flows(inst)


class TestOracleOptimum:
    def test_two_parallel(self, inst_two_parallel):
        sol = oracle_optimum(inst_two_parallel)
        assert sol.objective == -6
        assert sol.flow.values == (1, 2)
        assert validate_flow(inst_two_parallel, sol.flow).ok

    def test_zero_flow_when_costs_positive(self, inst_single_positive):
        sol = oracle_optimum(inst_single_positive)
        assert sol.objective == 0
        assert sol.flow.values == (0,)

    def test_zero_budget(self, inst_two_parallel):
        tight = Instance(
            node_count=2, edges=inst_two_parallel.edges, source=1, sink=2, budget=0
        )
        sol = oracle_optimum(tight)
        assert sol.objective == -2
        assert sol.flow.values == (0, 2)

    def test_is_lower_bound_with_feasible_witness(self):
        for seed in range(30):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5,
                    edges=1 + seed % 8,
                    budget_mode=("tight", "slack", "zero")[seed % 3],
                    seed=300 + seed,
                )
            )
            sol = oracle_optimum(inst)
            assert validate_flow(inst, sol.flow).ok
            assert sol.flow.cost == sol.objective
            for f in enumerate_integral_flows(inst):
                if f.fee <= inst.budget:
                    assert sol.objective <= f.cost


class TestOracleFrontier:
    def test_two_parallel(self, inst_two_parallel):
        points = [(p.cost, p.fee) for p in oracle_frontier(inst_two_parallel)]
        assert points == [(-2, 0), (-10, 4)]

    def test_single_positive_edge(self, inst_single_positive):
        points = [(p.cost, p.fee) for p in oracle_frontier(inst_single_positive)]
        assert points == [(0, 0)]

    def test_all_positive_costs_collapse_to_origin(self, inst_two_parallel):
        flipped = Instance(
            node_count=2,
            edges=tuple(
                EdgeData(e.tail, e.head, e.capacity, -e.cost, e.fee)
                for e in inst_two_parallel.edges
            ),
            source=1,
            sink=2,
            budget=2,
        )
        assert [(p.cost, p.fee) for p in oracle_frontier(flipped)] == [(0, 0)]

    def test_origin_stays_efficient_when_fees_cost_money(self, inst_two_parallel):
        # dropping the free edge leaves (0,0) efficient: smaller fee than (-8,4)
        only_feed = Instance(
            node_count=2, edges=inst_two_parallel.edges[:1], source=1, sink=2, budget=2
        )
        points = [(p.cost, p.fee) for p in oracle_frontier(only_feed)]
        assert points == [(0, 0), (-8, 4)]

    def test_hull_properties_on_random_instances(self):
        for seed in range(40):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5, edges=1 + seed % 9, seed=400 + seed
                )
            )
            points = oracle_frontier(inst)
            for p in points:
                flow = point_flow(inst, p)
                assert validate_flow(
                    Instance(
                        node_count=inst.node_count,
                        edges=inst.edges,
                        source=inst.source,
                        sink=inst.sink,
                        budget=10**9,
                    ),
                    flow,
                ).ok
                assert (flow.cost, flow.fee) == (p.cost, p.fee)
            # strictly decreasing fee-per-cost slopes (convexity), fee ascending
            for (a, b) in zip(points, points[1:]):
                assert a.fee < b.fee and a.cost > b.cost
            slopes = [
                Fraction(b.fee - a.fee, b.cost - a.cost) for a, b in zip(points, points[1:])
            ]
            assert all(s2 < s1 for s1, s2 in zip(slopes, slopes[1:]))
            # no cloud point strictly below any hull segment
            cloud = build_point_cloud(inst)
            for a, b in zip(points, points[1:]):
                for c, f in cloud.points:
                    if a.fee <= f <= b.fee:
                        lam = Fraction(a.cost - b.cost, b.fee - a.fee)
                        assert c + lam * f >= a.cost + lam * a.fee


class TestCycleEnumeration:
    def test_simple_cycles_of_circulation_form(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        cycles = {frozenset(c) for c in iter_simple_cycles(circ)}
        assert cycles == {frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3})}

    def test_self_loop_is_a_cycle(self):
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 1, 1, -1, 0), EdgeData(1, 2, 1, 0, 0)),
            source=1,
            sink=2,
            budget=0,
        )
        assert (0,) in set(iter_simple_cycles(inst))

    def test_min_ratio_by_enumeration(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        # unit dual lengths on the instance's edges, none on the closure arcs,
        # denominators -cost; the closure arcs' own cycle has den 0
        num = [e.fee * 1 + 1 for e in circ.edges[:-2]] + [0, 0]
        den = [-e.cost for e in circ.edges]
        best = exhaustive_min_ratio_cycle(circ, num, den)
        assert best is not None
        cycle, ratio = best
        assert frozenset(cycle) == frozenset({0, 3})
        assert ratio == Fraction(3, 4)
