"""Tests for the trichotomy callback, exact solver, and frontier enumeration."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcmcf.exact as exact_mod
from bcmcf import (
    EdgeData,
    Flow,
    Instance,
    InternalSolverError,
    enumerate_frontier,
    generate_instance,
    instance_stats,
    oracle_optimum,
    preprocess,
    solve_exact,
    solve_gk,
    solve_gk_acyclic,
    validate_flow,
)
from bcmcf.exact import (
    VerdictKind,
    Witness,
    budget_combination,
    edge_multiplier,
    lambda_callback,
)
from bcmcf.mcc import Basis, lambda_cost, min_cost_circulation
from bcmcf.oracle import iter_integral_values
from conftest import point_flow
from reference_oracles import dichotomic_frontier, oracle_frontier


def probe_cap(inst: Instance) -> int:
    """The proven probe cap of ``solve_exact``: bbar + 2."""
    return instance_stats(inst).bbar + 2


def walk_cap(inst: Instance) -> int:
    """The proven pivot cap of ``enumerate_frontier``'s walk."""
    stats = instance_stats(inst)
    reach = 2 * stats.cbar * stats.bbar * (sum(e.fee for e in inst.edges) + 1) + stats.bbar
    return stats.cbar * stats.bbar * (2 * reach + 1) * (2 * inst.node_count**2 * reach + 1)


def frontier_summary(points) -> list[tuple]:
    return [(p.cost, p.fee, p.lambda_low, p.lambda_high) for p in points]


@st.composite
def small_instances(draw) -> Instance:
    """At most 5 edges of capacity at most 3 and cost magnitude at most 1e6.

    The budget is often the fee of a frontier extreme point, where the
    optimal multiplier interval is wider than one point.
    """
    n = draw(st.integers(2, 4))
    node = st.integers(1, n)
    edge = st.builds(
        EdgeData, node, node, st.integers(0, 3), st.integers(-(10**6), 10**6), st.integers(0, 5)
    )
    edges = tuple(draw(st.lists(edge, min_size=1, max_size=5)))
    inst = Instance(node_count=n, edges=edges, source=1, sink=n, budget=0)
    fees = [int(p.fee) for p in oracle_frontier(inst)]
    budget = draw(st.sampled_from(fees) | st.integers(0, fees[-1] + 1))
    return replace(inst, budget=budget)


def optima_fee_range(inst: Instance, lam: Fraction) -> tuple[Fraction, Fraction]:
    """Fee range over all integral flows minimizing cost + lam * fee."""
    best = None
    fees = []
    for vals in iter_integral_values(inst):
        value = sum((e.cost + lam * e.fee) * v for e, v in zip(inst.edges, vals))
        fee = sum(e.fee * v for e, v in zip(inst.edges, vals))
        if best is None or value < best:
            best = value
            fees = [fee]
        elif value == best:
            fees.append(fee)
    return Fraction(min(fees)), Fraction(max(fees))


class TestLambdaCallback:
    @pytest.mark.parametrize(
        "lam,expected",
        [(1, VerdictKind.BELOW), (2, VerdictKind.INSIDE), (3, VerdictKind.ABOVE)],
    )
    def test_two_parallel_verdicts(self, inst_two_parallel, lam, expected):
        verdict = lambda_callback(Basis(inst_two_parallel), Fraction(lam))
        assert verdict.kind is expected
        # witness fees are exactly the extremes of the optimal face
        lo, hi = optima_fee_range(inst_two_parallel, Fraction(lam))
        assert verdict.x_minfee.fee == lo
        # the fee-maximal solve runs only when the fee-minimal one leaves
        # the verdict open (here lam > 0, so when fee(x_minfee) < budget)
        if lo < inst_two_parallel.budget:
            assert verdict.x_maxfee.fee == hi
        else:
            assert verdict.x_maxfee is None

    def test_inside_brackets_budget(self, inst_two_parallel):
        verdict = lambda_callback(Basis(inst_two_parallel), Fraction(2))
        assert verdict.x_minfee.fee <= inst_two_parallel.budget <= verdict.x_maxfee.fee

    def test_budget_slack_at_zero_is_inside(self, inst_two_parallel):
        slack = Instance(
            node_count=2, edges=inst_two_parallel.edges, source=1, sink=2, budget=100
        )
        verdict = lambda_callback(Basis(slack), Fraction(0))
        assert verdict.kind is VerdictKind.INSIDE

    def test_monotone_pattern_on_random_instances(self):
        for seed in range(15):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5,
                    edges=1 + seed % 8,
                    budget_mode=("tight", "zero")[seed % 2],
                    seed=500 + seed,
                )
            )
            top = instance_stats(inst).lambda_above_all_slopes()
            kinds = [
                lambda_callback(Basis(inst), Fraction(k) * top / 11).kind for k in range(12)
            ]
            order = {VerdictKind.BELOW: 0, VerdictKind.INSIDE: 1, VerdictKind.ABOVE: 2}
            ranks = [order[k] for k in kinds]
            assert ranks == sorted(ranks)


class TestBudgetCombination:
    # on inst_two_parallel, [0, 2] has cost -2 and fee 0, [2, 2] cost -10 and fee 4
    def test_interpolates_to_budget(self, inst_two_parallel):
        x1, x2 = Witness([0, 2], -2, 0), Witness([2, 2], -10, 4)
        combo = budget_combination(inst_two_parallel, x1, x2)
        assert combo.values == (1, 2)
        assert combo.cost == -6
        assert combo.fee == 2
        assert all(type(v) is Fraction for v in combo.values)
        assert validate_flow(inst_two_parallel, combo).ok

    def test_budget_at_upper_end_returns_second(self, inst_two_parallel):
        x1, x2 = Witness([0, 2], -2, 0), Witness([2, 2], -10, 4)
        combo = budget_combination(replace(inst_two_parallel, budget=4), x1, x2)
        assert combo == Flow.from_values(inst_two_parallel, x2.values)

    def test_precondition_violation(self, inst_two_parallel):
        # the budget must lie in (fee(x1), fee(x2)]
        x1, x2 = Witness([0, 2], -2, 0), Witness([2, 2], -10, 4)
        for budget in (0, 5):
            with pytest.raises(ValueError):
                budget_combination(replace(inst_two_parallel, budget=budget), x1, x2)

    def test_arity_mismatch(self, inst_two_parallel):
        x1, x2 = Witness([0, 2], -2, 0), Witness([2, 2, 0], -10, 4)
        with pytest.raises(ValueError):
            budget_combination(inst_two_parallel, x1, x2)


class TestSolveFlows:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        st.integers(2, 7),
        st.integers(1, 14),
        st.integers(1, 10),
        st.integers(0, 10**6),
        st.fractions(0, 1, max_denominator=9),
    )
    def test_totals_are_the_problem_edges_totals(self, nodes, edges, cap, seed, t):
        """A solve's flow and its budget combinations lie on the problem's own
        edges, with the totals those edges give: the closure arcs carry none."""
        inst = preprocess(generate_instance(nodes, edges, max_capacity=cap, seed=seed))
        top = instance_stats(inst).lambda_above_all_slopes()
        low, high = Basis(inst), Basis(inst)
        totals = [
            min_cost_circulation(low, lambda_cost(low, top, "min")),
            min_cost_circulation(high, lambda_cost(high, Fraction(0), "max")),
        ]
        x_low, x_high = (Witness(b.flow[: inst.edge_count], *w) for b, w in zip((low, high), totals))
        flows = [Flow.from_values(inst, x.values) for x in (x_low, x_high)]
        assert totals == [(x.cost, x.fee) for x in flows]
        if x_high.fee - x_low.fee > 1:
            # an int budget strictly between the two fees
            budget = x_low.fee + 1 + int(t * (x_high.fee - x_low.fee - 2))
            flows.append(budget_combination(replace(inst, budget=budget), x_low, x_high))
            assert flows[-1].fee == budget
        for x in flows:
            assert x == Flow.from_values(inst, x.values)
            assert type(x.cost) is Fraction and type(x.fee) is Fraction


class TestSolveExact:
    def test_two_parallel(self, inst_two_parallel):
        sol = solve_exact(inst_two_parallel)
        assert sol.objective == -6
        assert sol.flow.values == (1, 2)
        assert sol.lam == 2
        assert sol.flow.fee == 2
        assert validate_flow(inst_two_parallel, sol.flow).ok

    def test_positive_costs_zero_flow(self, inst_single_positive):
        sol = solve_exact(inst_single_positive)
        assert sol.objective == 0
        assert all(v == 0 for v in sol.flow.values)

    def test_slack_budget_unconstrained(self, inst_two_parallel):
        slack = Instance(
            node_count=2, edges=inst_two_parallel.edges, source=1, sink=2, budget=100
        )
        sol = solve_exact(slack)
        assert sol.objective == -10
        assert sol.flow.values == (2, 2)
        assert sol.lam == 0

    def test_optimum_beyond_multiplier_grid(self):
        # the only negative edge carries a fee and the budget is zero: the
        # optimal multiplier (10) dwarfs the grid's upper end (bbar = 1)
        inst = Instance(
            node_count=2, edges=(EdgeData(1, 2, 1, -10, 1),), source=1, sink=2, budget=0
        )
        sol = solve_exact(inst)
        assert sol.objective == 0
        assert sol.iterations <= 3

    def test_crossing_between_near_parallel_segments(self):
        # two frontier segments whose multipliers (1/4 and 1/5) both fall in
        # one grid gap of width 1/8; the chord probes must still land the
        # exact crossing on the second segment
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 2, 1, -1, 4), EdgeData(1, 2, 1, -1, 5)),
            source=1,
            sink=2,
            budget=5,
        )
        sol = solve_exact(inst)
        reference = oracle_optimum(inst)
        assert sol.objective == reference.objective == Fraction(-6, 5)
        assert sol.lam == Fraction(1, 5)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(40):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5,
                    edges=1 + seed % 9,
                    budget_mode=("tight", "slack", "zero")[seed % 3],
                    seed=600 + seed,
                )
            )
            sol = solve_exact(inst)
            reference = oracle_optimum(inst)
            assert sol.objective == reference.objective
            report = validate_flow(inst, sol.flow)
            assert report.ok
            assert sol.flow.fee <= inst.budget

    def test_extreme_magnitudes_scale_exactly(self):
        # costs up to 1e6, then capacities and budget times 1e5: the feasible
        # polytope scales by 1e5, so the optimum must scale by exactly 1e5
        scale = 10**5
        nonzero = binding = 0
        for seed in range(16):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 3,
                    edges=3 + seed % 5,
                    max_cost=10**6,
                    budget_mode=("tight", "tight", "zero")[seed % 3],
                    seed=700 + seed,
                )
            )
            base = solve_exact(inst)
            assert base.objective == oracle_optimum(inst).objective
            big = replace(
                inst,
                edges=tuple(replace(e, capacity=e.capacity * scale) for e in inst.edges),
                budget=inst.budget * scale,
            )
            sol = solve_exact(big)
            assert sol.objective == base.objective * scale
            assert validate_flow(big, sol.flow).ok
            nonzero += base.objective != 0
            binding += sol.lam > 0
        assert nonzero >= 8 and binding >= 4

    def test_probe_budget(self, inst_two_parallel):
        stats = instance_stats(inst_two_parallel)
        bound = (2 * stats.bbar * stats.cbar**2 + 1).bit_length() + 2
        sol = solve_exact(inst_two_parallel)
        assert sol.iterations <= bound

    def test_zero_budget_stops_at_grid_top(self):
        # the optimal multiplier interval [1/2, inf) holds bbar = 2, so the
        # second opening probe is INSIDE and its multiplier is returned
        inst = Instance(
            node_count=2, edges=(EdgeData(1, 2, 1, -1, 2),), source=1, sink=2, budget=0
        )
        sol = solve_exact(inst)
        assert sol.objective == 0
        assert sol.lam == instance_stats(inst).bbar == 2
        assert sol.iterations == 2

    def test_probe_cap_raises(self, inst_two_parallel, monkeypatch):
        # after the two real opening probes (BELOW at 0, ABOVE at bbar) every
        # verdict repeats the first one, so the bracket never closes
        real = exact_mod.lambda_callback
        verdicts = []

        def stalled(basis, lam):
            verdicts.append(real(basis, lam) if len(verdicts) < 2 else verdicts[0])
            return verdicts[-1]

        monkeypatch.setattr(exact_mod, "lambda_callback", stalled)
        with pytest.raises(InternalSolverError, match="cap"):
            solve_exact(inst_two_parallel)
        assert len(verdicts) == probe_cap(inst_two_parallel)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(small_instances())
    def test_matches_oracle_within_probe_cap(self, inst):
        sol = solve_exact(inst)
        assert sol.objective == oracle_optimum(inst).objective
        assert validate_flow(inst, sol.flow).ok
        assert sol.iterations <= probe_cap(inst)


class TestEnumerateFrontier:
    def test_two_parallel(self, inst_two_parallel):
        points = enumerate_frontier(inst_two_parallel)
        assert [(p.cost, p.fee) for p in points] == [(-2, 0), (-10, 4)]
        assert points[0].lambda_low == 2 and points[0].lambda_high is None
        assert points[1].lambda_low == 0 and points[1].lambda_high == 2

    def test_single_point(self, inst_single_positive):
        points = enumerate_frontier(inst_single_positive)
        assert [(p.cost, p.fee) for p in points] == [(0, 0)]

    def test_origin_plus_one_segment(self, inst_two_parallel):
        only_feed = Instance(
            node_count=2, edges=inst_two_parallel.edges[:1], source=1, sink=2, budget=2
        )
        points = enumerate_frontier(only_feed)
        assert [(p.cost, p.fee) for p in points] == [(0, 0), (-8, 4)]

    def test_matches_oracle_and_separates_slopes(self):
        for seed in range(30):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5, edges=1 + seed % 9, seed=700 + seed
                )
            )
            mine = enumerate_frontier(inst)
            reference = oracle_frontier(inst)
            assert [(p.cost, p.fee) for p in mine] == [
                (p.cost, p.fee) for p in reference
            ]
            for p in mine:
                flow = point_flow(inst, p)
                assert (flow.cost, flow.fee) == (p.cost, p.fee)
            cbar = instance_stats(inst).cbar
            slopes = [
                Fraction(b.fee - a.fee, b.cost - a.cost) for a, b in zip(mine, mine[1:])
            ]
            for s1, s2 in zip(slopes, slopes[1:]):
                assert abs(s1 - s2) >= Fraction(1, cbar**2)

    def test_one_solve_per_frontier(self, monkeypatch):
        # one fee-minimal solve opens the walk, whose pivots stay within the
        # proven cap; every point after the first takes at least one pivot
        real = exact_mod.min_cost_circulation
        solves = []  # (basis, its pivot count after the solve)

        def counting(basis, costs):
            totals = real(basis, costs)
            solves.append((basis, basis.pivots))
            return totals

        monkeypatch.setattr(exact_mod, "min_cost_circulation", counting)
        for seed in range(100):
            inst = preprocess(
                generate_instance(
                    nodes=3 + seed % 8,
                    edges=4 + seed % 23,
                    max_capacity=5,
                    acyclic=seed % 4 == 0,
                    seed=1900 + seed,
                )
            )
            solves.clear()
            points = len(enumerate_frontier(inst))
            assert len(solves) == 1
            basis, solved = solves[0]
            assert points - 1 <= basis.pivots - solved <= walk_cap(inst)


class TestFrontierWalk:
    """Degenerate and edge cases of the parametric walk."""

    def test_tied_arcs_make_one_segment(self, monkeypatch):
        # all three edges price out at lam' = 2: one breakpoint, two points
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 2, 1, -2, 1), EdgeData(1, 2, 1, -4, 2), EdgeData(1, 2, 1, -6, 3)),
            source=1,
            sink=2,
            budget=3,
        )
        real = exact_mod._next_breakpoint
        breakpoints = []

        def recording(*args):
            arc, num, den = real(*args)
            breakpoints.append(Fraction(num, den) if arc >= 0 else None)
            return arc, num, den

        monkeypatch.setattr(exact_mod, "_next_breakpoint", recording)
        points = enumerate_frontier(inst)
        assert frontier_summary(points) == [(0, 0, 2, None), (-12, 6, 0, 2)]
        # several pivots at lam' = 2, some degenerate, then none is left
        assert breakpoints[-1] is None and set(breakpoints[:-1]) == {2}
        assert frontier_summary(points) == frontier_summary(oracle_frontier(inst))

    @pytest.mark.parametrize(
        "edges",
        [
            # a zero-capacity edge that would pay most, and one fee-free
            ((1, 2, 0, -100, 1), (1, 2, 2, -3, 1), (1, 2, 0, -5, 0), (2, 3, 2, -1, 2)),
            # self-loops at the source, at an inner node and at the sink
            (
                (1, 1, 2, -3, 1),
                (1, 2, 1, -1, 1),
                (2, 2, 3, -2, 3),
                (2, 3, 1, 0, 1),
                (3, 3, 1, -4, 1),
            ),
            # a sink -> source edge that closes a paying cycle
            ((1, 2, 2, -1, 1), (2, 3, 2, -1, 2), (3, 1, 1, -2, 0), (1, 3, 1, -1, 3)),
            # every edge fee-free, then every edge free of cost
            ((1, 2, 2, -1, 0), (2, 3, 1, -2, 0), (1, 3, 1, 4, 0)),
            ((1, 2, 2, 0, 1), (2, 3, 1, 0, 2), (3, 1, 1, 0, 0)),
        ],
    )
    def test_edge_cases_match_both_references(self, edges):
        inst = Instance(
            node_count=3, edges=tuple(EdgeData(*e) for e in edges), source=1, sink=3, budget=2
        )
        mine = frontier_summary(enumerate_frontier(inst))
        assert mine == frontier_summary(oracle_frontier(inst))
        assert mine == frontier_summary(dichotomic_frontier(inst))

    def test_instance_emptied_by_preprocess(self):
        inst = preprocess(
            Instance(node_count=3, edges=(EdgeData(1, 2, 3, -5, 1),), source=1, sink=3, budget=1)
        )
        assert inst.edge_count == 0
        points = enumerate_frontier(inst)
        assert frontier_summary(points) == [(0, 0, 0, None)]
        assert point_flow(inst, points[0]).values == ()

    @pytest.mark.parametrize("stall", ["pivot", "ratio step"])
    def test_a_walk_that_never_advances_hits_the_cap(self, monkeypatch, stall):
        # one self-loop that pays for fees: cbar = bbar = 1, K = 2, n = 2, so
        # R = 5 and the cap is 1 * 1 * 11 * (2 * 4 * 5 + 1) = 451 pivots
        inst = Instance(
            node_count=2, edges=(EdgeData(1, 1, 1, -1, 1),), source=1, sink=2, budget=1
        )
        assert walk_cap(inst) == 451
        assert frontier_summary(enumerate_frontier(inst)) == [(0, 0, 1, None), (-1, 1, 0, 1)]
        if stall == "pivot":
            real = exact_mod.min_cost_circulation

            def stalled(basis, costs):
                # the opening solve pivots as usual; the walk's pivots do nothing
                totals = real(basis, costs)
                basis.pivot = lambda arc: None
                return totals

            monkeypatch.setattr(exact_mod, "min_cost_circulation", stalled)
        else:
            # the self-loop flips between its bounds at one breakpoint
            monkeypatch.setattr(exact_mod, "_next_breakpoint", lambda *args: (0, 1, 1))
        with pytest.raises(InternalSolverError, match="cap of 451 pivots"):
            enumerate_frontier(inst)


class TestSolveCounts:
    def test_fee_maximal_solve_only_where_the_verdict_is_open(self, monkeypatch):
        """``solve_exact`` makes one solve at each probe that lam = 0 or
        fee(x_minfee) >= budget decides, and two at every other probe."""
        real_solve, real_callback = exact_mod.min_cost_circulation, exact_mod.lambda_callback
        solves = 0
        probes = []  # (lam, verdict, budget, solves of the probe)

        def counting(basis, costs):
            nonlocal solves
            solves += 1
            return real_solve(basis, costs)

        def recording(basis, lam):
            nonlocal solves
            solves = 0
            verdict = real_callback(basis, lam)
            probes.append((lam, verdict, basis.inst.budget, solves))
            return verdict

        monkeypatch.setattr(exact_mod, "min_cost_circulation", counting)
        monkeypatch.setattr(exact_mod, "lambda_callback", recording)
        at_zero = decided = open_ = 0
        for seed in range(60):
            inst = preprocess(
                generate_instance(
                    nodes=3 + seed % 8,
                    edges=4 + seed % 23,
                    max_capacity=20,
                    budget_mode=("tight", "tight", "slack", "zero")[seed % 4],
                    seed=2100 + seed,
                )
            )
            probes.clear()
            sol = solve_exact(inst)
            assert len(probes) == sol.iterations
            for lam, verdict, budget, count in probes:
                one = lam == 0 or verdict.x_minfee.fee >= budget
                assert count == (1 if one else 2)
                assert (verdict.x_maxfee is None) == one
                at_zero += lam == 0
                decided += one and lam > 0
                open_ += not one
        # every solve opens at lam = 0; 20 later probes are decided by the
        # fee-minimal solve and 25 take both
        assert at_zero == 60 and decided >= 15 and open_ >= 15


class TestIntChords:
    def test_shared_factor_is_reduced(self):
        # (10 - 4) / (6 - 2) = 6/4, reduced to 3/2, and not a float
        lam = edge_multiplier(Witness([], 10, 2), Witness([], 4, 6))
        assert type(lam) is Fraction
        assert (lam.numerator, lam.denominator) == (3, 2)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(0, 10**4),
        st.integers(1, 10**4),
        st.integers(1, 30),
    )
    def test_int_corners_give_the_fraction_form(self, cost, slope, fee, run, k):
        # k scales both differences, so they share at least the factor k
        low = Witness([], cost, fee)
        high = Witness([], cost - k * slope, fee + k * run)
        lam = edge_multiplier(low, high)
        assert type(lam) is Fraction
        assert lam == (Fraction(low.cost) - high.cost) / (Fraction(high.fee) - low.fee)
        assert lam == Fraction(slope, run)
        assert lam.denominator > 0 and gcd(lam.numerator, lam.denominator) == 1

    def test_frontier_witnesses_validate(self):
        many = 0
        for seed in range(40):
            inst = preprocess(
                generate_instance(
                    nodes=4 + seed % 8, edges=10 + seed % 20, max_capacity=20, seed=2300 + seed
                )
            )
            points = enumerate_frontier(inst)
            many += len(points) >= 4
            for p in points:
                assert all(type(v) is int for v in p.values)
                assert type(p.cost) is int and type(p.fee) is int
                flow = point_flow(inst, p)
                assert all(type(v) is Fraction for v in flow.values)
                report = validate_flow(inst, flow)
                assert not (
                    report.capacity_violations
                    or report.negative_values
                    or report.conservation_residuals
                )
                assert (report.cost, report.fee) == (flow.cost, flow.fee)
                assert (flow.cost, flow.fee) == (p.cost, p.fee)
            # adjacent intervals meet at the chord's reduced multiplier
            for a, b in zip(points, points[1:]):
                assert a.lambda_low == b.lambda_high == edge_multiplier(a, b)
        assert many >= 10

    @pytest.mark.parametrize("case", ["generated", "single point"])
    def test_frontier_builds_no_flow(self, monkeypatch, inst_single_positive, case):
        # a frontier point is its int witness: the walk never reaches the
        # Flow constructor, and the Flow built afterwards has its totals
        if case == "generated":
            inst = preprocess(generate_instance(30, 120, max_capacity=10, seed=26))
        else:
            inst = inst_single_positive

        def refuse(cls, *args, **kwargs):
            raise AssertionError("enumerate_frontier built a Flow")

        with monkeypatch.context() as patch:
            patch.setattr(Flow, "from_values", classmethod(refuse))
            points = enumerate_frontier(inst)
        assert (len(points) > 1) == (case == "generated")
        for p in points:
            assert type(p.cost) is int and type(p.fee) is int
            flow = point_flow(inst, p)
            report = validate_flow(inst, flow)
            assert not (
                report.capacity_violations
                or report.negative_values
                or report.conservation_residuals
            )
            assert (flow.cost, flow.fee) == (p.cost, p.fee)


@st.composite
def mid_instances(draw) -> Instance:
    """Generated instances of up to 30 nodes and 120 edges; four in five of
    the derandomized examples are past the oracle's default guard."""
    nodes = draw(st.sampled_from(range(2, 31)))
    return preprocess(
        generate_instance(
            nodes=nodes,
            edges=draw(st.sampled_from(range(2 * nodes, 4 * nodes + 1))),
            max_capacity=draw(st.sampled_from([3, 20, 100])),
            budget_mode=draw(st.sampled_from(["tight", "slack", "zero"])),
            acyclic=draw(st.booleans()),
            seed=draw(st.integers(0, 10**6)),
        )
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mid_instances())
def test_frontier_agrees_with_solve_exact(inst):
    """The two exact routines check each other where enumeration cannot."""
    points = enumerate_frontier(inst)
    for a, b in zip(points, points[1:]):
        assert a.fee < b.fee and a.cost > b.cost
    multipliers = [edge_multiplier(a, b) for a, b in zip(points, points[1:])]
    assert all(l1 > l2 for l1, l2 in zip(multipliers, multipliers[1:]))
    for p in points:
        flow = point_flow(inst, p)
        report = validate_flow(inst, flow)
        assert not (
            report.capacity_violations or report.negative_values or report.conservation_residuals
        )
        assert (report.cost, report.fee) == (flow.cost, flow.fee) == (p.cost, p.fee)

    budget = inst.budget
    if budget >= points[-1].fee:
        expected = points[-1].cost
    else:
        a, b = next((a, b) for a, b in zip(points, points[1:]) if a.fee <= budget < b.fee)
        expected = a.cost + Fraction((b.cost - a.cost) * (budget - a.fee), b.fee - a.fee)
    sol = solve_exact(inst)
    assert sol.objective == expected
    assert any(
        p.lambda_low <= sol.lam and (p.lambda_high is None or sol.lam <= p.lambda_high)
        for p in points
    )


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    st.sampled_from(range(2, 41)),
    st.sampled_from(range(1, 201)),
    st.sampled_from([1, 3, 100, 10**3]),
    st.sampled_from([5, 10**3, 10**6]),
    st.sampled_from([5, 10**3, 10**6]),
    st.sampled_from(["tight", "slack", "zero"]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_walk_matches_dichotomic_frontier(nodes, edges, cap, cost, fee, budget_mode, acyclic, seed):
    """The parametric walk against chord subdivision, past the oracle's guard."""
    inst = preprocess(
        generate_instance(
            nodes,
            edges,
            max_capacity=cap,
            max_cost=cost,
            max_fee=fee,
            budget_mode=budget_mode,
            acyclic=acyclic,
            seed=seed,
        )
    )
    points = enumerate_frontier(inst)
    assert frontier_summary(points) == frontier_summary(dichotomic_frontier(inst))
    for p in points:
        flow = point_flow(inst, p)
        assert (flow.cost, flow.fee) == (p.cost, p.fee)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mid_instances(), st.data(), st.integers(2, 7))
def test_answers_invariant_under_permutation_and_scaling(inst, data, k):
    """Edge order is only a label, and costs and fees are only units.

    λ is not compared under scaling: the opening probe λ = b̄ does not
    scale with the instance, so another valid λ can come back.
    """
    order = data.draw(st.permutations(range(inst.edge_count)))
    sol = solve_exact(inst)
    points = [(p.cost, p.fee) for p in enumerate_frontier(inst)]

    permuted = replace(inst, edges=tuple(inst.edges[i] for i in order), edge_origin=None)
    moved = solve_exact(permuted)
    assert (moved.objective, moved.lam, moved.iterations) == (
        sol.objective, sol.lam, sol.iterations
    )
    assert [(p.cost, p.fee) for p in enumerate_frontier(permuted)] == points

    costly = replace(inst, edges=tuple(replace(e, cost=k * e.cost) for e in inst.edges))
    assert solve_exact(costly).objective == k * sol.objective
    assert [(p.cost, p.fee) for p in enumerate_frontier(costly)] == [(k * c, b) for c, b in points]

    feeful = replace(
        inst, edges=tuple(replace(e, fee=k * e.fee) for e in inst.edges), budget=k * inst.budget
    )
    assert solve_exact(feeful).objective == sol.objective
    assert [(p.cost, p.fee) for p in enumerate_frontier(feeful)] == [(c, k * b) for c, b in points]


class TestWarmStarts:
    """``solve_exact``'s solves share one simplex basis per instance;
    this pins the wiring by comparing pivots with a run that gives every
    solve a fresh basis.  The frontier makes one solve, so it has nothing
    to warm."""

    INSTANCES = [
        preprocess(generate_instance(nodes=8, edges=20, max_capacity=5, seed=seed))
        for seed in range(8)
    ]

    @staticmethod
    def pivots_and_answers(cold: bool):
        """Pivots of all solves, the bases they ran on, and the answers, over
        ``INSTANCES``."""
        real = exact_mod.min_cost_circulation
        pivots, bases = [], []

        def counting(basis, costs):
            solved = Basis(basis.inst) if cold else basis
            before = solved.pivots
            totals = real(solved, costs)
            pivots.append(solved.pivots - before)
            bases.append(solved)
            # the caller reads the optimum from its own basis
            basis.flow[:] = solved.flow
            return totals

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_mod, "min_cost_circulation", counting)
            answers = [solve_exact(inst) for inst in TestWarmStarts.INSTANCES]
        if not cold:
            # one basis per instance serves all of its solves
            assert len({id(b) for b in bases}) == len(TestWarmStarts.INSTANCES)
        return pivots, answers

    def test_solve_exact_cancels_fewer_cycles(self):
        cold, cold_sols = self.pivots_and_answers(cold=True)
        warm, warm_sols = self.pivots_and_answers(cold=False)
        assert len(warm) == len(cold)
        assert sum(warm) < sum(cold)
        assert [(s.objective, s.lam, s.iterations) for s in warm_sols] == [
            (s.objective, s.lam, s.iterations) for s in cold_sols
        ]


class TestCallbackPreconditions:
    def test_rejects_negative_multiplier(self, inst_two_parallel):
        with pytest.raises(ValueError, match="negative"):
            lambda_callback(Basis(inst_two_parallel), Fraction(-1))


class TestSinkToSourceValue:
    """One edge from sink to source: the optimum sends its net value backwards."""

    @pytest.fixture
    def backwards(self) -> Instance:
        return Instance(
            node_count=2, edges=(EdgeData(2, 1, 1, -1, 0),), source=1, sink=2, budget=0
        )

    def test_oracle_optimum(self, backwards):
        assert oracle_optimum(backwards).objective == -1

    def test_callback_witness(self, backwards):
        verdict = lambda_callback(Basis(backwards), Fraction(0))
        assert verdict.kind is VerdictKind.INSIDE
        assert verdict.x_minfee.cost == -1
        assert verdict.x_maxfee is None  # lam = 0 decides with one solve

    def test_solve_exact(self, backwards):
        sol = solve_exact(backwards)
        assert sol.objective == -1
        assert sol.flow.values == (1,)
        assert validate_flow(backwards, sol.flow).ok

    @pytest.mark.parametrize("solver", [solve_gk, solve_gk_acyclic])
    def test_approximation_schemes(self, backwards, solver):
        sol = solver(backwards, 0.5)
        assert validate_flow(backwards, sol.flow).ok
        assert -1 <= sol.objective <= Fraction(1, 2) * -1


# Instances whose edges touch the sink in every way that merging it into
# the source rewrites: (tail, head, capacity, cost, fee), source 1, sink n.
MERGED_TERMINAL_CASES = {
    "parallel source-sink edges": (
        3, ((1, 3, 2, -4, 2), (1, 3, 1, -1, 0), (1, 3, 3, -2, 1), (1, 3, 1, 2, 0)),
    ),
    "sink-source edge": (3, ((3, 1, 2, -3, 2), (1, 3, 1, -1, 0), (1, 2, 1, -1, 1))),
    "loop at the sink": (3, ((3, 3, 2, -5, 2), (1, 3, 1, -1, 1), (3, 3, 1, 1, 0))),
    "inner node feeding the sink": (
        3, ((1, 2, 3, -1, 1), (2, 3, 2, -2, 2), (2, 3, 1, 1, 0), (3, 2, 1, -1, 1)),
    ),
    "two nodes, every edge a loop": (
        2, ((1, 2, 2, -4, 2), (2, 1, 1, -1, 0), (1, 1, 1, -2, 1), (2, 2, 2, -1, 1)),
    ),
    # the instance the console check of CI solves
    "all at once": (
        3,
        (
            (1, 3, 2, -4, 2),
            (1, 3, 1, -1, 0),
            (3, 1, 2, -3, 1),
            (3, 3, 1, -2, 1),
            (1, 2, 2, -1, 1),
            (2, 3, 2, -2, 1),
        ),
    ),
}


class TestMergedTerminals:
    """Both lanes free source and sink by merging them into one node."""

    @pytest.mark.parametrize("budget", [0, 2, 100])
    @pytest.mark.parametrize("case", MERGED_TERMINAL_CASES)
    def test_solvers_match_the_oracle(self, case, budget):
        n, edges = MERGED_TERMINAL_CASES[case]
        inst = Instance(
            node_count=n, edges=tuple(EdgeData(*e) for e in edges), source=1, sink=n, budget=budget
        )
        optimum = oracle_optimum(inst).objective
        assert solve_exact(inst).objective == optimum
        assert frontier_summary(enumerate_frontier(inst)) == frontier_summary(oracle_frontier(inst))
        for eps in (0.5, 0.1):
            sol = solve_gk(inst, eps)
            assert validate_flow(inst, sol.flow).ok and sol.flow.fee <= budget
            assert sol.objective <= (1 - Fraction(eps)) * optimum
