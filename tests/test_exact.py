"""Tests for the trichotomy callback, exact solver, and frontier enumeration."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcmcf.exact as exact_mod
from bcmcf import (
    Basis,
    EdgeData,
    Flow,
    Instance,
    InstanceError,
    InternalSolverError,
    VerdictKind,
    budget_combination,
    circulation_form,
    enumerate_frontier,
    generate_instance,
    instance_stats,
    lambda_callback,
    oracle_optimum,
    preprocess,
    project_flow,
    solve_exact,
    solve_gk,
    solve_gk_acyclic,
    validate_flow,
)
from bcmcf.mcc import lambda_cost, min_cost_circulation
from bcmcf.oracle import iter_integral_values
from reference_oracles import oracle_frontier


def probe_cap(inst: Instance) -> int:
    """The proven probe cap of ``solve_exact``: bbar + 2."""
    return instance_stats(inst).bbar + 2


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


def optima_fee_range(circ: Instance, lam: Fraction) -> tuple[Fraction, Fraction]:
    """Fee range over all integral circulations minimizing cost + lam * fee."""
    best = None
    fees = []
    for vals in iter_integral_values(circ):
        value = sum((e.cost + lam * e.fee) * v for e, v in zip(circ.edges, vals))
        fee = sum(e.fee * v for e, v in zip(circ.edges, vals))
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
        circ = circulation_form(inst_two_parallel)
        verdict = lambda_callback(circ, Fraction(lam))
        assert verdict.kind is expected
        # witness fees are exactly the extremes of the optimal face
        lo, hi = optima_fee_range(circ, Fraction(lam))
        assert verdict.x_minfee.fee == lo
        assert verdict.x_maxfee.fee == hi

    def test_inside_brackets_budget(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        verdict = lambda_callback(circ, Fraction(2))
        assert verdict.x_minfee.fee <= circ.budget <= verdict.x_maxfee.fee

    def test_budget_slack_at_zero_is_inside(self, inst_two_parallel):
        slack = Instance(
            node_count=2, edges=inst_two_parallel.edges, source=1, sink=2, budget=100
        )
        verdict = lambda_callback(circulation_form(slack), Fraction(0))
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
            circ = circulation_form(inst)
            top = instance_stats(inst).lambda_above_all_slopes()
            kinds = [
                lambda_callback(circ, Fraction(k) * top / 11).kind for k in range(12)
            ]
            order = {VerdictKind.BELOW: 0, VerdictKind.INSIDE: 1, VerdictKind.ABOVE: 2}
            ranks = [order[k] for k in kinds]
            assert ranks == sorted(ranks)


class TestBudgetCombination:
    def test_interpolates_to_budget(self, inst_two_parallel):
        x1 = Flow.from_values(inst_two_parallel, [0, 2])
        x2 = Flow.from_values(inst_two_parallel, [2, 2])
        combo = budget_combination(x1, x2, 2)
        assert combo.values == (1, 2)
        assert combo.cost == -6
        assert combo.fee == 2
        assert validate_flow(inst_two_parallel, combo).ok

    def test_degenerate_interval_returns_first(self, inst_two_parallel):
        x1 = Flow.from_values(inst_two_parallel, [1, 0])
        x2 = Flow.from_values(inst_two_parallel, [1, 2])
        assert budget_combination(x1, x2, 2) is x1

    def test_budget_at_upper_end_returns_second(self, inst_two_parallel):
        x1 = Flow.from_values(inst_two_parallel, [0, 2])
        x2 = Flow.from_values(inst_two_parallel, [2, 2])
        combo = budget_combination(x1, x2, 4)
        assert combo.values == x2.values

    def test_precondition_violation(self, inst_two_parallel):
        x1 = Flow.from_values(inst_two_parallel, [1, 0])
        x2 = Flow.from_values(inst_two_parallel, [2, 0])
        with pytest.raises(ValueError):
            budget_combination(x1, x2, 1)

    def test_arity_mismatch(self, inst_two_parallel, inst_two_hop):
        x1 = Flow.from_values(inst_two_parallel, [0, 2])
        x2 = Flow.from_values(inst_two_hop, [2, 2, 0])
        with pytest.raises(InstanceError):
            budget_combination(x1, x2, 2)


class TestProjectFlow:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        st.integers(2, 7),
        st.integers(1, 14),
        st.integers(1, 10),
        st.integers(0, 10**6),
        st.fractions(0, 1, max_denominator=9),
    )
    def test_keeps_the_totals_of_the_kept_values(self, nodes, edges, cap, seed, t):
        """The closure arcs carry no cost or fee: projecting must not change a total."""
        inst = preprocess(generate_instance(nodes, edges, max_capacity=cap, seed=seed))
        circ = circulation_form(inst)
        top = instance_stats(inst).lambda_above_all_slopes()
        x_low = min_cost_circulation(circ, lambda_cost(circ, top, "min"))
        x_high = min_cost_circulation(circ, lambda_cost(circ, Fraction(0), "max"))
        combo = budget_combination(x_low, x_high, x_low.fee + t * (x_high.fee - x_low.fee))
        for x in (x_low, x_high, combo):
            projected = project_flow(inst, x)
            assert projected == Flow.from_values(inst, x.values[: inst.edge_count])
            assert type(projected.cost) is Fraction and type(projected.fee) is Fraction


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

        def stalled(circ, lam, basis=None):
            verdicts.append(real(circ, lam, basis) if len(verdicts) < 2 else verdicts[0])
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
                assert (p.witness.cost, p.witness.fee) == (p.cost, p.fee)
            cbar = instance_stats(inst).cbar
            slopes = [
                (b.fee - a.fee) / (b.cost - a.cost) for a, b in zip(mine, mine[1:])
            ]
            for s1, s2 in zip(slopes, slopes[1:]):
                assert abs(s1 - s2) >= Fraction(1, cbar**2)


class TestWarmStarts:
    """The exact lane's solves share one simplex basis per closed instance;
    this pins the wiring by comparing pivots with a run that gives every
    solve a fresh basis."""

    INSTANCES = [
        preprocess(generate_instance(nodes=8, edges=20, max_capacity=5, seed=seed))
        for seed in range(8)
    ]

    @staticmethod
    def pivots_and_answers(solver, cold: bool):
        """Pivots of all solves, the bases they ran on, and the answers, over
        ``INSTANCES``."""
        real = exact_mod.min_cost_circulation
        pivots, bases = [], []

        def counting(circ, costs, basis):
            if cold:
                basis = Basis(circ)
            before = basis.pivots
            flow = real(circ, costs, basis)
            pivots.append(basis.pivots - before)
            bases.append(basis)
            return flow

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_mod, "min_cost_circulation", counting)
            answers = [solver(inst) for inst in TestWarmStarts.INSTANCES]
        if not cold:
            # one basis per closed instance serves all of its solves
            assert len({id(b) for b in bases}) == len(TestWarmStarts.INSTANCES)
        return pivots, answers

    def test_frontier_cancels_fewer_cycles(self):
        cold, cold_points = self.pivots_and_answers(enumerate_frontier, cold=True)
        warm, warm_points = self.pivots_and_answers(enumerate_frontier, cold=False)
        assert len(warm) == len(cold)
        assert sum(warm) < sum(cold)

        def summary(frontiers):
            return [[(p.cost, p.fee, p.lambda_low, p.lambda_high) for p in f] for f in frontiers]

        assert summary(warm_points) == summary(cold_points)

    def test_solve_exact_cancels_fewer_cycles(self):
        cold, cold_sols = self.pivots_and_answers(solve_exact, cold=True)
        warm, warm_sols = self.pivots_and_answers(solve_exact, cold=False)
        assert len(warm) == len(cold)
        assert sum(warm) < sum(cold)
        assert [(s.objective, s.lam, s.iterations) for s in warm_sols] == [
            (s.objective, s.lam, s.iterations) for s in cold_sols
        ]


class TestCallbackPreconditions:
    def test_requires_circulation_form(self, inst_two_parallel):
        with pytest.raises(ValueError, match="circulation"):
            lambda_callback(inst_two_parallel, Fraction(1))

    def test_rejects_negative_multiplier(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        with pytest.raises(ValueError):
            lambda_callback(circ, Fraction(-1))


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
        verdict = lambda_callback(circulation_form(backwards), Fraction(0))
        assert verdict.kind is VerdictKind.INSIDE
        assert verdict.x_minfee.cost == verdict.x_maxfee.cost == -1

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
