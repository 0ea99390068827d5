"""Tests for the packing-LP scheme and its minimum-ratio oracles."""

from __future__ import annotations

import copy
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmcf import (
    CyclicGraphError,
    EdgeData,
    Flow,
    Instance,
    InternalSolverError,
    circulation_form,
    generate_instance,
    min_ratio_path_dag,
    oracle_optimum,
    preprocess,
    solve_exact,
    solve_gk,
    solve_gk_acyclic,
    topological_order,
    validate_flow,
)
from bcmcf import fptas as fptas_mod
from bcmcf import mcc as mcc_mod
from bcmcf.fptas import _gk_loop, _path_setup, _reduced_for_packing
from bcmcf.mcc import find_negative_cycle
from bcmcf.model import circulation_form
from conftest import ratio_cycle, ratio_path, scaled_flow
from reference_oracles import (
    exhaustive_min_ratio_cycle,
    exhaustive_min_ratio_path,
    fraction_assemble_flow,
    iter_simple_cycles,
    iter_source_sink_paths,
)


path_numerators = st.one_of(
    st.fractions(min_value=0, max_value=50, max_denominator=12),
    st.floats(min_value=0, max_value=1e30, allow_subnormal=True),
)


@st.composite
def small_dag_ratio_inputs(draw):
    """A DAG on at most 6 nodes with Fraction or float numerators and any-sign dens."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
        lambda p: (min(p), max(p) + 1)
    )
    arcs = draw(st.lists(pairs, min_size=1, max_size=12))
    inst = Instance(
        node_count=n,
        edges=tuple(EdgeData(t, h, 1, 0, 0) for t, h in arcs),
        source=1,
        sink=n,
        budget=0,
    )
    num = draw(st.lists(path_numerators, min_size=len(arcs), max_size=len(arcs)))
    den = draw(
        st.lists(
            st.one_of(st.integers(-3, 6), st.fractions(-3, 6, max_denominator=5)),
            min_size=len(arcs),
            max_size=len(arcs),
        )
    )
    return inst, num, den


@st.composite
def small_cycle_ratio_inputs(draw):
    """A digraph on at most 6 nodes and 10 arcs, self-loops and parallel arcs
    allowed, with float numerators in {0} and [1e-30, 1e30] and int-valued
    dens of any sign.  Some numerators are small multiples of one drawn
    scale, so that cycle ratios often lie within a factor 1 + rel_tol."""
    n = draw(st.integers(2, 6))
    node = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=10))
    inst = Instance(
        node_count=n,
        edges=tuple(EdgeData(t, h, 1, 0, 0) for t, h in arcs),
        source=1,
        sink=2,
        budget=0,
    )
    scale = draw(st.floats(min_value=1e-30, max_value=1e29))
    numbers = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-30, max_value=1e30),
        st.integers(1, 10).map(lambda k: k * scale),
    )
    num = draw(st.lists(numbers, min_size=len(arcs), max_size=len(arcs)))
    den = draw(st.lists(st.integers(-5, 5).map(float), min_size=len(arcs), max_size=len(arcs)))
    return inst, num, den, draw(st.sampled_from([0.5, 0.1]))


class TestMinRatioCycle:
    def test_picks_cheaper_cycle(self, inst_two_parallel):
        # unit lengths everywhere, unit budget length: closed by the return
        # arc (edge 3), the fee-carrying edge's cycle has ratio (2+1+1)/4 = 1,
        # the other (1+1)/1 = 2; the two closure arcs' cycle has den 0
        circ = circulation_form(inst_two_parallel)
        num = [2.0 + 1.0, 0.0 + 1.0, 1.0, 1.0]
        den = [4.0, 1.0, 0.0, 0.0]
        result = ratio_cycle(circ, num, den, rel_tol=0.01)
        assert result is not None
        assert frozenset(result.edges) == frozenset({0, 3})
        assert result.ratio == pytest.approx(1.0)

    def test_no_negative_cycle_returns_none(self, inst_single_positive):
        circ = circulation_form(inst_single_positive)
        num = [1.0, 1.0, 1.0]
        den = [float(-e.cost) for e in circ.edges]
        assert ratio_cycle(circ, num, den, rel_tol=0.1) is None

    def test_self_loop(self):
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 1, 1, -1, 0), EdgeData(1, 2, 1, 1, 0)),
            source=1,
            sink=2,
            budget=0,
        )
        result = ratio_cycle(inst, [3.0, 9.0], [1.0, -1.0], rel_tol=0.01)
        assert result is not None
        assert result.edges == (0,)
        assert result.ratio == pytest.approx(3.0)

    def test_rel_tol_validated(self, inst_two_parallel):
        with pytest.raises(ValueError):
            ratio_cycle(circulation_form(inst_two_parallel), [0.0] * 4, [0.0] * 4, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [0.1, 0.01])
    def test_within_tolerance_of_exhaustive(self, rel_tol):
        rng = random.Random(42)
        checked = 0
        for seed in range(60):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 6, edges=2 + seed % 9, seed=800 + seed
                )
            )
            if inst.node_count > 8:
                continue
            num = [rng.uniform(0.0, 4.0) for _ in inst.edges]
            den = [float(-e.cost) for e in inst.edges]
            result = ratio_cycle(inst, num, den, rel_tol=rel_tol)
            best = exhaustive_min_ratio_cycle(inst, num, den)
            if best is None:
                assert result is None
                continue
            assert result is not None
            checked += 1
            assert float(result.ratio) <= (1.0 + rel_tol) * float(best[1]) * (1 + 1e-12)
        assert checked >= 20

    def test_broken_predecessor_walk_raises(self):
        # a weight that falls on every read relaxes 1 -> 2 in both passes,
        # so node 2 is still improving in pass n = 2 while its predecessor
        # graph is one arc, with no cycle
        class Falling:
            reads = 0

            def __len__(self):
                return 1

            def __getitem__(self, index):
                self.reads += 1
                return -float(self.reads)

        with pytest.raises(InternalSolverError, match="left no cycle in the predecessor graph"):
            find_negative_cycle(2, [(1, 2, 0)], Falling())

    def test_nonnegative_predecessor_cycle_raises(self):
        # weights that read negative through pass 1 close the 2-cycle in the
        # predecessor graph, and read positive when its weight is summed
        class Turning:
            reads = 0

            def __getitem__(self, index):
                self.reads += 1
                return -1.0 if self.reads <= 3 else 1.0

        with pytest.raises(InternalSolverError, match="predecessor cycle is not negative"):
            find_negative_cycle(2, [(1, 2, 0), (2, 1, 1)], Turning())

    def test_nonpositive_denominator_cycle_raises(self, inst_two_parallel, monkeypatch):
        # the two closure arcs form a cycle with denominator 0, which an exact
        # negative-cycle test can never return
        circ = circulation_form(inst_two_parallel)
        monkeypatch.setattr(mcc_mod, "find_negative_cycle", lambda *args: [2, 3])
        with pytest.raises(InternalSolverError, match="float cancellation"):
            ratio_cycle(circ, [1.0, 1.0, 0.0, 0.0], [4.0, 1.0, 0.0, 0.0], rel_tol=0.1)

    def test_lower_end_bounds_the_minimum_ratio(self):
        # a coarse tolerance, so that some answers are not the optimal cycle
        # and only the oracle's lower end, not the answer's ratio, is a bound
        rng = random.Random(7)
        checked = suboptimal = 0
        for seed in range(80):
            inst = preprocess(
                generate_instance(nodes=2 + seed % 6, edges=2 + seed % 9, seed=900 + seed)
            )
            if inst.node_count > 8:
                continue
            num = [rng.uniform(0.0, 4.0) for _ in inst.edges]
            den = [float(-e.cost) for e in inst.edges]
            result = ratio_cycle(inst, num, den, rel_tol=0.5)
            best = exhaustive_min_ratio_cycle(inst, num, den)
            if best is None:
                continue
            checked += 1
            suboptimal += result.ratio > float(best[1]) * (1 + 1e-12)
            assert 0 < result.lower <= float(best[1]) * (1 + 1e-12)
            assert result.ratio <= 1.5 * result.lower * (1 + 1e-12)
        assert checked >= 40 and suboptimal >= 3

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_cycle_ratio_inputs())
    def test_property_matches_enumeration(self, case):
        inst, num, den, rel_tol = case
        result = ratio_cycle(inst, num, den, rel_tol=rel_tol)
        best = exhaustive_min_ratio_cycle(inst, num, den)
        if best is None:
            assert result is None
            return
        assert_nearly_minimal(inst, result, float(best[1]), rel_tol)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_cycle_ratio_inputs(), st.data())
    def test_property_warm_start_matches_enumeration(self, case, data):
        # any simple cycle with positive denominator is a valid start
        inst, num, den, rel_tol = case
        starts = [c for c in iter_simple_cycles(inst) if sum(den[a] for a in c) > 0]
        if not starts:
            return
        start = data.draw(st.sampled_from(starts))
        result = ratio_cycle(inst, num, den, rel_tol=rel_tol, start=start)
        best = exhaustive_min_ratio_cycle(inst, num, den)
        assert_nearly_minimal(inst, result, float(best[1]), rel_tol)

    def test_start_without_positive_denominator_rejected(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        with pytest.raises(ValueError, match="positive denominator"):
            ratio_cycle(circ, [1.0, 1.0, 0.0, 0.0], [4.0, 1.0, 0.0, 0.0], rel_tol=0.1, start=(2, 3))

    def test_non_improving_step_raises(self, inst_two_parallel, monkeypatch):
        # a test that keeps finding the current cycle would loop forever
        circ = circulation_form(inst_two_parallel)
        calls = []

        def stuck(node_count, arcs, weights):
            calls.append(1)
            return [0, 3]

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", stuck)
        with pytest.raises(InternalSolverError, match="did not lower the ratio"):
            ratio_cycle(circ, [3.0, 1.0, 1.0, 1.0], [4.0, 1.0, 0.0, 0.0], rel_tol=0.1)
        assert len(calls) == 2  # the seed search, then one step

    def test_slow_steps_hit_the_proven_bound(self, monkeypatch):
        # each step finds a cycle whose ratio falls by less than 1 + rel_tol:
        # the step bound, from the seed's ratio 1 down to the least positive
        # num over the sum of positive dens, must raise
        loops = 60
        inst = Instance(
            node_count=2,
            edges=tuple(EdgeData(1, 1, 1, -1, 0) for _ in range(loops)),
            source=1,
            sink=2,
            budget=0,
        )
        num = [1.0 - i / 1000 for i in range(loops)]
        den = [1.0] * loops
        calls = []

        def slow(node_count, arcs, weights):
            calls.append(1)
            return [len(calls) - 1]

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", slow)
        with pytest.raises(InternalSolverError, match="proven step bound"):
            ratio_cycle(inst, num, den, rel_tol=0.1)
        steps = math.ceil(math.log(loops / min(num)) / math.log1p(0.1)) + 2
        assert steps < loops
        assert len(calls) == 1 + steps  # the seed search, then the bound

    @pytest.mark.parametrize("first, steps", [(0, 65), (100, 62)])
    def test_warm_steps_count_from_the_start_ratio(self, first, steps, monkeypatch):
        # the same slow steps from a warm start: no seed search runs, and the
        # bound counts from the start's ratio, not from any seed's
        loops = 200
        inst = Instance(
            node_count=2,
            edges=tuple(EdgeData(1, 1, 1, -1, 0) for _ in range(loops)),
            source=1,
            sink=2,
            budget=0,
        )
        num = [1.0 - i / 400 for i in range(loops)]
        den = [1.0] * loops
        calls = []

        def slow(node_count, arcs, weights):
            calls.append(1)
            return [first + len(calls)]

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", slow)
        with pytest.raises(InternalSolverError, match="proven step bound"):
            ratio_cycle(inst, num, den, rel_tol=0.1, start=(first,))
        floor = min(num) / loops
        assert steps == math.ceil(math.log(num[first] / floor) / math.log1p(0.1)) + 2
        assert first + steps < loops
        assert len(calls) == steps


def assert_nearly_minimal(inst: Instance, result, minimum: float, rel_tol: float) -> None:
    """``result`` is a closed simple cycle, and ``lower`` <= ``minimum`` <=
    ratio <= (1 + rel_tol) * ``lower`` up to float rounding."""
    assert result is not None
    tails = [inst.edges[a].tail for a in result.edges]
    heads = [inst.edges[a].head for a in result.edges]
    assert heads == tails[1:] + tails[:1]  # closed
    assert len(set(tails)) == len(tails)  # simple
    slack = 1e-12
    assert result.lower <= minimum * (1 + slack)
    assert minimum <= result.ratio * (1 + slack)
    assert result.ratio <= (1 + rel_tol) * result.lower * (1 + slack)


class TestMinRatioPathDag:
    def test_two_hop_beats_direct(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 3, 1, -1, 0), EdgeData(1, 3, 1, -1, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        result = ratio_path(inst, [1, 1, 3], [1, 1, 1], inst.source, inst.sink)
        assert result is not None
        assert result.edges == (0, 1)
        assert result.ratio == 1

    def test_single_path(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -2, 0), EdgeData(2, 3, 1, -3, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        result = ratio_path(inst, [2, 3], [2, 3], inst.source, inst.sink)
        assert result is not None
        assert result.edges == (0, 1)
        assert result.ratio == 1

    def test_nonpositive_denominators_return_none(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, 1, 0), EdgeData(2, 3, 1, 0, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        assert ratio_path(inst, [1, 1], [-1, 0], inst.source, inst.sink) is None

    def test_cycle_detected(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 1, 1, -1, 0), EdgeData(1, 3, 1, 0, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        with pytest.raises(CyclicGraphError):
            ratio_path(inst, [1, 1, 1], [1, 1, 1], inst.source, inst.sink)

    def test_exact_against_enumeration(self):
        rng = random.Random(9)
        checked = 0
        for seed in range(80):
            inst = preprocess(
                generate_instance(
                    nodes=3 + seed % 6,
                    edges=2 + seed % 11,
                    acyclic=True,
                    seed=900 + seed,
                )
            )
            num = [Fraction(rng.randint(0, 40), 7) for _ in inst.edges]
            den = [Fraction(-e.cost) for e in inst.edges]
            result = ratio_path(inst, num, den, inst.source, inst.sink)
            best = exhaustive_min_ratio_path(inst, num, den)
            if best is None:
                assert result is None
                continue
            checked += 1
            assert result is not None
            assert result.ratio == best[1]
        assert checked >= 25


    def test_extreme_float_magnitudes_scale_exactly(self):
        # dual lengths reach the oracle as floats anywhere in 1e-120..1e120;
        # the int scaling must keep the ratio exact and the tie rule intact
        rng = random.Random(23)
        checked = ties = 0
        for seed in range(80):
            inst = preprocess(
                generate_instance(
                    nodes=3 + seed % 5,
                    edges=3 + seed % 10,
                    acyclic=True,
                    seed=1300 + seed,
                )
            )
            den = [float(-e.cost) for e in inst.edges]
            if seed % 2:
                num = [10.0 ** rng.uniform(-120, 120) for _ in inst.edges]
            else:
                # an exact power-of-two multiple of the positive dens: every
                # path of positive-den edges ties at the extreme ratio c
                c = 2.0 ** rng.randint(-398, 398)
                num = [c * d if d > 0 else c for d in den]
            result = ratio_path(inst, num, den, inst.source, inst.sink)
            best = exhaustive_min_ratio_path(inst, num, den)
            if best is None:
                assert result is None
                continue
            checked += 1
            assert result is not None
            assert result.ratio == best[1]
            numerator = sum(Fraction(num[i]) for i in result.edges)
            denominator = sum(Fraction(den[i]) for i in result.edges)
            assert numerator / denominator == result.ratio
            optimal_dens = []
            for path in iter_source_sink_paths(inst):
                d = sum(Fraction(den[i]) for i in path)
                if d > 0 and sum(Fraction(num[i]) for i in path) / d == best[1]:
                    optimal_dens.append(d)
            assert denominator == max(optimal_dens)
            ties += len(optimal_dens) > 1
        assert checked >= 30
        assert ties >= 5

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_dag_ratio_inputs())
    def test_property_matches_enumeration(self, case):
        inst, num, den = case
        result = ratio_path(inst, num, den, inst.source, inst.sink)
        best = exhaustive_min_ratio_path(inst, num, den)
        if best is None:
            assert result is None
        else:
            assert result is not None
            assert result.ratio == best[1]
            numerator = sum(Fraction(num[i]) for i in result.edges)
            denominator = sum(Fraction(den[i]) for i in result.edges)
            assert numerator / denominator == result.ratio

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_dag_ratio_inputs(), st.data())
    def test_one_setup_serves_many_calls(self, case, data):
        # solve_gk_acyclic builds the set-up once and calls the oracle with
        # fresh numerators every time: no call may disturb what the next reads
        inst, num, den = case
        setup = _path_setup(inst, topological_order(inst), den, inst.source, inst.sink)
        kept = copy.deepcopy(setup)
        m = len(inst.edges)
        vectors = [num] + [
            data.draw(st.lists(numbers, min_size=m, max_size=m))
            for numbers in (path_numerators, st.floats(0, 1e30), st.fractions(0, 50))
        ]
        for fresh in vectors:
            result = min_ratio_path_dag(inst, fresh, den, inst.source, inst.sink, setup)
            best = exhaustive_min_ratio_path(inst, fresh, den)
            if best is None:
                assert result is None
            else:
                assert result is not None and result.ratio == best[1]
        assert setup == kept

    def test_non_improving_pass_hits_the_proven_bound(self, monkeypatch):
        # a pass that keeps reporting a negative value without a better path
        # would loop forever: the D_0 + 2 pass bound must raise instead
        from bcmcf import fptas as fptas_mod

        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 3, 1, -1, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        calls = []

        def stuck(inst, order, out_edges, weights, dens, source, sink):
            calls.append(1)
            return -1, 2, [0, 1]

        monkeypatch.setattr(fptas_mod, "_dag_min_value_path", stuck)
        setup = _path_setup(inst, topological_order(inst), [1, 1], inst.source, inst.sink)
        assert len(calls) == 1  # the max-den pass, once per set-up
        for _ in range(2):
            with pytest.raises(InternalSolverError, match="proven pass bound"):
                min_ratio_path_dag(inst, [1, 1], [1, 1], inst.source, inst.sink, setup)
        assert len(calls) == 1 + 2 * (2 + 2)  # then D_0 + 2 per call


class TestSolveGk:
    def test_guarantee_on_two_parallel(self, inst_two_parallel):
        sol = solve_gk(inst_two_parallel, 0.25)
        assert validate_flow(inst_two_parallel, sol.flow).ok
        assert sol.flow.fee <= 2
        assert sol.objective <= Fraction(3, 4) * -6  # optimum is -6

    def test_no_negative_cycle_gives_zero(self, inst_single_positive):
        sol = solve_gk(inst_single_positive, 0.5)
        assert sol.objective == 0
        assert all(v == 0 for v in sol.flow.values)

    def test_zero_budget_drops_fee_edges(self, inst_two_parallel):
        inst = Instance(
            node_count=2, edges=inst_two_parallel.edges, source=1, sink=2, budget=0
        )
        sol = solve_gk(inst, 0.5)
        assert sol.flow.values[0] == 0
        assert sol.flow.fee == 0
        assert sol.objective <= Fraction(1, 2) * -2  # fee-free optimum is -2

    def test_epsilon_validated(self, inst_two_parallel):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                solve_gk(inst_two_parallel, eps)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_guarantee_on_random_instances(self, eps):
        for seed in range(12):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 5,
                    edges=1 + seed % 9,
                    budget_mode=("tight", "slack", "zero")[seed % 3],
                    seed=1000 + seed,
                )
            )
            sol = solve_gk(inst, eps)
            assert validate_flow(inst, sol.flow).ok
            assert sol.flow.fee <= inst.budget
            reference = oracle_optimum(inst)
            assert sol.objective <= (1 - Fraction(eps)) * reference.objective

    def test_routed_cycles_qualify(self, inst_two_parallel):
        reduced = _reduced_for_packing(inst_two_parallel)
        circ = circulation_form(reduced)
        den = [float(-e.cost) for e in circ.edges]

        def oracle(nums):
            return ratio_cycle(circ, [*nums, 0.0, 0.0], den, rel_tol=0.1)

        routed, _, _, _ = _gk_loop(reduced, 0.1, 0.9, oracle)
        assert routed
        for cycle in routed:
            cost = sum(circ.edges[i].cost for i in cycle)
            assert cost < 0

    def test_seed_search_runs_once_per_solve(self, monkeypatch):
        searches = []
        detector = mcc_mod.find_negative_cycle

        def recording(node_count, arcs, weights):
            searches.append(list(weights))
            return detector(node_count, arcs, weights)

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", recording)
        warm = 0
        for seed in range(8):
            inst = preprocess(generate_instance(8, 24, max_capacity=10, seed=1400 + seed))
            circ = circulation_form(_reduced_for_packing(inst))
            seed_weights = [float(e.cost) for e in circ.edges]
            searches.clear()
            solve_gk(inst, 0.25)
            # the seed search tests the lengths -den = cost
            assert sum(w == seed_weights for w in searches) == 1
            warm += len(searches) > 2
        assert warm >= 4

    @pytest.mark.parametrize("acyclic", [False, True])
    def test_routed_values_are_per_iteration_sums(self, acyclic, monkeypatch):
        # every iteration routes its column's amount once, so each routed
        # value over the scale must be that amount summed once per routing,
        # as Fractions
        captured = []
        assemble = fptas_mod._assemble_flow

        def capturing(inst, reduced, routed, scale):
            captured.append((reduced, routed, scale))
            return assemble(inst, reduced, routed, scale)

        monkeypatch.setattr(fptas_mod, "_assemble_flow", capturing)
        solver = solve_gk_acyclic if acyclic else solve_gk
        fractional = 0
        for seed in range(6):
            # a budget of 7 binds, so that some amounts are budget / fee
            raw = generate_instance(7, 20, max_capacity=6, acyclic=acyclic, seed=1500 + seed)
            inst = preprocess(dataclasses.replace(raw, budget=7))
            captured.clear()
            sol = solver(inst, 0.25)
            (reduced, routed, scale), = captured
            m = reduced.edge_count
            routings = 0
            for column, scaled in routed.items():
                assert type(scaled) is int
                value = Fraction(scaled, scale)
                edges = [i for i in column if i < m]
                amount = min(reduced.edges[i].capacity for i in edges)
                fee = sum(reduced.edges[i].fee for i in edges)
                if reduced.budget > 0 and fee > 0:
                    amount = min(amount, reduced.budget / fee)
                count = value / Fraction(amount)
                assert count.denominator == 1 and count >= 1
                reference = Fraction(0)
                for _ in range(int(count)):
                    reference += Fraction(amount)
                assert value == reference
                routings += int(count)
                fractional += Fraction(amount).denominator > 1
            assert routings == sol.iterations
        assert fractional >= 3

    def test_dual_objective_strictly_increases(self, inst_two_parallel, monkeypatch):
        trace: list[float] = []
        original = fptas_mod.DualState.log_objective

        def recording(self):
            value = original(self)
            trace.append(value)
            return value

        monkeypatch.setattr(fptas_mod.DualState, "log_objective", recording)
        bounds = record_loop_bounds(monkeypatch)
        sol = solve_gk(inst_two_parallel, 0.25)
        assert len(trace) > 2
        assert all(b > a for a, b in zip(trace, trace[1:]))
        # the loop stops once the objective reaches 1 (log 0) or once the
        # certified gap closes; here the gap closes long before
        reached_one = trace[-1] >= 0
        gap_closed = -float(sol.objective) >= 0.75 * bounds[-1]
        assert gap_closed and not reached_one

    @pytest.mark.parametrize("acyclic", [False, True])
    def test_renormalized_lengths_keep_the_guarantee(self, acyclic, monkeypatch):
        # a low ceiling renormalizes the stored lengths again and again: the
        # running objective must trigger it, and must come out of it resynced
        # and still increasing
        monkeypatch.setattr(fptas_mod, "LENGTH_CEILING", 0.1)
        trace: list[float] = []
        factors: list[float] = []
        renormalize = fptas_mod.DualState.renormalize
        log_objective = fptas_mod.DualState.log_objective

        def renormalizing(self, capacities, budget):
            factors.append(renormalize(self, capacities, budget))
            assert self.total == self.objective(capacities, budget)
            return factors[-1]

        def recording(self):
            trace.append(log_objective(self))
            return trace[-1]

        monkeypatch.setattr(fptas_mod.DualState, "renormalize", renormalizing)
        monkeypatch.setattr(fptas_mod.DualState, "log_objective", recording)
        solver = solve_gk_acyclic if acyclic else solve_gk
        for seed in range(4):
            raw = generate_instance(8, 24, max_capacity=10, acyclic=acyclic, seed=1600 + seed)
            inst = preprocess(raw)
            trace.clear()
            sol = solver(inst, 0.25)
            assert validate_flow(inst, sol.flow).ok
            assert sol.objective <= Fraction(3, 4) * solve_exact(inst).objective
            assert all(b > a for a, b in zip(trace, trace[1:]))
        # the initial lengths trigger at most one renormalization per solve
        assert len(factors) >= 10

    @pytest.mark.parametrize(
        "max_capacity, budget_mode, seed", [(3, "tight", 7), (10, "slack", 14)]
    )
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_float_cancellation_instances(self, max_capacity, budget_mode, seed, eps):
        # at eps <= 0.25 the loop used to run long enough for float
        # cancellation to hand the cycle oracle a zero-denominator cycle
        inst = preprocess(
            generate_instance(
                12, 48, max_capacity=max_capacity, budget_mode=budget_mode, seed=seed
            )
        )
        sol = solve_gk(inst, eps)
        assert validate_flow(inst, sol.flow).ok
        assert sol.flow.fee <= inst.budget
        assert sol.objective <= (1 - Fraction(eps)) * solve_exact(inst).objective


def scaled_routed(columns):
    """Routed ints, their scale and the exact routed values for ``columns``,
    a map from each column to (amount, count), scaled as ``_gk_loop`` does:
    by the largest denominator of the amounts."""
    scale = max((Fraction(a).denominator for a, _ in columns.values()), default=1)
    routed = {c: int(Fraction(a) * scale) * k for c, (a, k) in columns.items()}
    return routed, scale, {c: Fraction(a) * k for c, (a, k) in columns.items()}


def assert_assembly_matches(inst, reduced, routed, scale, exact):
    flow = fptas_mod._assemble_flow(inst, reduced, routed, scale)
    assert flow == fraction_assemble_flow(inst, reduced, exact)
    assert all(type(x) is Fraction for x in (*flow.values, flow.cost, flow.fee))
    return flow


class TestAssembleFlow:
    """The int assembly returns exactly the flow of the Fraction reference."""

    # edge 5 has no capacity, and edges 3 and 4 carry fees, so that packing
    # drops one or three edges and the flow is lifted back past them
    EDGES = (
        EdgeData(1, 2, 10**6, -(10**6), 0),
        EdgeData(2, 4, 999_983, -3, 0),
        EdgeData(1, 3, 7, -1, 0),
        EdgeData(3, 4, 1, 2, 10**6),
        EdgeData(2, 3, 3, -5, 1),
        EdgeData(1, 4, 0, -1, 0),
    )
    EXTREME_AMOUNTS = (2.0**-60, 5e-324, 7 / 3, 999_983, 10**6 + 3)

    @pytest.mark.parametrize("acyclic", [False, True])
    def test_routed_columns_of_binding_solves(self, acyclic, monkeypatch):
        captured = []
        assemble = fptas_mod._assemble_flow

        def capturing(inst, reduced, routed, scale):
            captured.append((reduced, routed, scale))
            return assemble(inst, reduced, routed, scale)

        monkeypatch.setattr(fptas_mod, "_assemble_flow", capturing)
        solver = solve_gk_acyclic if acyclic else solve_gk
        binding = 0
        for seed in range(8):
            raw = generate_instance(7, 20, max_capacity=6, acyclic=acyclic, seed=1600 + seed)
            inst = preprocess(dataclasses.replace(raw, budget=5))
            captured.clear()
            flow = solver(inst, 0.25).flow
            (reduced, routed, scale), = captured
            exact = {c: Fraction(v, scale) for c, v in routed.items()}
            assert flow == assert_assembly_matches(inst, reduced, routed, scale, exact)
            binding += flow.fee == inst.budget
        assert binding >= 3

    @pytest.mark.parametrize("budget", [0, 1, 10**12])
    def test_extreme_amounts(self, budget):
        inst = Instance(node_count=4, edges=self.EDGES, source=1, sink=4, budget=budget)
        reduced = _reduced_for_packing(inst)
        m = reduced.edge_count
        # indices m and m + 1 stand for the cycle oracle's closure arcs
        columns = [(0, 1, m), (2,), (0, m + 1), (1, 2), tuple(range(m))]
        counts = (1, 3, 1000, 7, 2)
        for amounts in [[a] for a in self.EXTREME_AMOUNTS] + [self.EXTREME_AMOUNTS]:
            picked = {c: (a, k) for c, a, k in zip(columns, amounts, counts)}
            flow = assert_assembly_matches(inst, reduced, *scaled_routed(picked))
            assert max(flow.values) > 0
        routed, scale, _ = scaled_routed({(0,): (5e-324, 1), (1,): (10**6 + 3, 1)})
        assert scale == 2**1074 and routed[(1,)] == (10**6 + 3) << 1074

    @pytest.mark.parametrize("budget", [0, 1])
    def test_nothing_routed_is_the_zero_flow(self, budget):
        inst = Instance(node_count=4, edges=self.EDGES, source=1, sink=4, budget=budget)
        reduced = _reduced_for_packing(inst)
        for routed, scale in [({}, 1), ({(0, 1): 0, (2, reduced.edge_count): 0}, 2**60)]:
            exact = {c: Fraction(v, scale) for c, v in routed.items()}
            flow = assert_assembly_matches(inst, reduced, routed, scale, exact)
            assert flow == Flow((Fraction(0),) * len(self.EDGES), Fraction(0), Fraction(0))


def record_loop_bounds(monkeypatch) -> list[float]:
    """Patch ``_gk_loop`` to record every upper bound it returns."""
    bounds: list[float] = []
    original = fptas_mod._gk_loop

    def recording(*args):
        result = original(*args)
        bounds.append(result[3])
        return result

    monkeypatch.setattr(fptas_mod, "_gk_loop", recording)
    return bounds


@pytest.mark.parametrize("acyclic", [False, True])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_loop_bound_covers_the_optimum(eps, acyclic, monkeypatch):
    # the first 12 seeds are the instances of
    # TestSolveGk.test_guarantee_on_random_instances (or their acyclic
    # counterparts); only 3 of those have a nonzero optimum, so 24 more follow
    solver = solve_gk_acyclic if acyclic else solve_gk
    bounds = record_loop_bounds(monkeypatch)
    nonzero = 0
    for seed in range(36):
        inst = preprocess(
            generate_instance(
                nodes=2 + seed % 5,
                edges=1 + seed % 9,
                budget_mode=("tight", "slack", "zero")[seed % 3],
                acyclic=acyclic,
                seed=1000 + seed,
            )
        )
        sol = solver(inst, eps)
        optimum = -oracle_optimum(inst).objective
        nonzero += optimum > 0
        # the stop test's own float margin
        assert bounds[-1] * (1 + fptas_mod.CERTIFICATE_MARGIN) >= optimum
        assert -sol.objective <= optimum
    assert nonzero >= 9


@st.composite
def packing_instances(draw):
    """A generated instance past the enumeration guard (n <= 16, m <= 64),
    acyclic or not, with an accuracy in {0.5, 0.25}."""
    acyclic = draw(st.booleans())
    inst = generate_instance(
        draw(st.integers(2, 16)),
        draw(st.integers(1, 64)),
        max_capacity=draw(st.sampled_from([3, 20, 100])),
        budget_mode=draw(st.sampled_from(["tight", "slack", "zero"])),
        acyclic=acyclic,
        seed=draw(st.integers(0, 10**6)),
    )
    return preprocess(inst), acyclic, draw(st.sampled_from([0.5, 0.25]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packing_instances())
def test_property_guarantee_past_the_oracle_guard(case):
    inst, acyclic, eps = case
    sol = (solve_gk_acyclic if acyclic else solve_gk)(inst, eps)
    exact = solve_exact(inst).objective
    assert validate_flow(inst, sol.flow).ok
    assert sol.flow.fee <= inst.budget
    assert exact <= sol.objective <= (1 - Fraction(eps)) * exact


class TestSolveGkAcyclic:
    def test_guarantee_on_parallel_pair(self, inst_two_parallel):
        sol = solve_gk_acyclic(inst_two_parallel, 0.25)
        assert validate_flow(inst_two_parallel, sol.flow).ok
        assert sol.flow.fee <= 2
        assert sol.objective <= Fraction(3, 4) * -6

    def test_nonnegative_costs_give_zero(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 2, 1, 0), EdgeData(2, 3, 2, 0, 1)),
            source=1,
            sink=3,
            budget=4,
        )
        sol = solve_gk_acyclic(inst, 0.5)
        assert sol.objective == 0

    def test_cyclic_input_rejected(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 1, 1, -1, 0), EdgeData(1, 3, 1, 0, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        with pytest.raises(CyclicGraphError, match="solve_gk"):
            solve_gk_acyclic(inst, 0.25)

    def test_oracle_setup_runs_once_per_solve(self, monkeypatch):
        # the topological sort and the maximum-denominator pass depend only
        # on the graph and the costs, so every oracle call of a solve shares them
        sorts, setup_passes, calls = [], [], []
        sort, dag_pass, path_oracle = (
            fptas_mod.topological_order,
            fptas_mod._dag_min_value_path,
            fptas_mod.min_ratio_path_dag,
        )

        def counted_sort(inst):
            sorts.append(1)
            return sort(inst)

        def counted_pass(inst, order, out_edges, weights, dens, source, sink):
            setup_passes.append(not any(weights))
            return dag_pass(inst, order, out_edges, weights, dens, source, sink)

        def counted_oracle(*args):
            calls.append(1)
            return path_oracle(*args)

        monkeypatch.setattr(fptas_mod, "topological_order", counted_sort)
        monkeypatch.setattr(fptas_mod, "_dag_min_value_path", counted_pass)
        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", counted_oracle)
        # a slack, a tight and a zero budget, then paths from sink to source
        dag = generate_instance(5, 12, acyclic=True, seed=1400)
        cases = [
            generate_instance(6, 14, budget_mode="slack", acyclic=True, seed=1404),
            generate_instance(6, 14, budget_mode="tight", acyclic=True, seed=1413),
            generate_instance(6, 14, max_fee=1, budget_mode="zero", acyclic=True, seed=1404),
            Instance(dag.node_count, dag.edges, dag.sink, dag.source, dag.budget),
        ]
        for solves, inst in enumerate(map(preprocess, cases), start=1):
            before = len(calls)
            solve_gk_acyclic(inst, 0.25)
            assert len(calls) - before > 2
            assert len(sorts) == solves
            assert sum(setup_passes) == solves

    def test_shadow_audit_matches_enumeration(self, monkeypatch):
        calls = []
        path_oracle = fptas_mod.min_ratio_path_dag

        def audited(graph, num, den, source, sink, setup):
            result = path_oracle(graph, num, den, source, sink, setup)
            best = exhaustive_min_ratio_path(graph, num, den, source, sink)
            if best is None:
                assert result is None
            else:
                assert result is not None and result.ratio == best[1]
            calls.append(1)
            return result

        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", audited)

        for seed in range(6):
            inst = preprocess(
                generate_instance(
                    nodes=3 + seed, edges=4 + seed, acyclic=True, seed=1100 + seed
                )
            )
            sol = solve_gk_acyclic(inst, 0.5)
            assert validate_flow(inst, sol.flow).ok
        assert calls

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_sink_to_source_paths(self, eps, monkeypatch):
        # with source and sink swapped, every path runs from the sink to the
        # source: the oracle must search that orientation
        found = []
        path_oracle = fptas_mod.min_ratio_path_dag

        def recording(graph, num, den, source, sink, setup):
            result = path_oracle(graph, num, den, source, sink, setup)
            found.append(result is not None and source == graph.sink)
            return result

        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", recording)
        nonzero = 0
        for seed in range(24):
            dag = generate_instance(
                nodes=3 + seed % 5,
                edges=4 + seed % 9,
                budget_mode=("tight", "slack", "zero")[seed % 3],
                acyclic=True,
                seed=1200 + seed,
            )
            inst = preprocess(
                Instance(
                    node_count=dag.node_count,
                    edges=dag.edges,
                    source=dag.sink,
                    sink=dag.source,
                    budget=dag.budget,
                )
            )
            sol = solve_gk_acyclic(inst, eps)
            reference = oracle_optimum(inst)
            assert validate_flow(inst, sol.flow).ok
            assert sol.flow.fee <= inst.budget
            assert sol.objective <= (1 - Fraction(eps)) * reference.objective
            nonzero += reference.objective < 0
        assert nonzero >= 8
        assert sum(found) >= 8


class TestRescale:
    def test_fee_scales_down_exactly(self, inst_two_parallel):
        x = Flow.from_values(inst_two_parallel, [Fraction(11, 10), Fraction(0)])
        scaled = scaled_flow(x, Fraction(1) / (1 + Fraction(1, 10)))
        assert scaled.fee == 2
        assert scaled.values[0] == 1
        assert scaled.cost == x.cost / (1 + Fraction(1, 10))

    def test_linearity(self, inst_two_parallel):
        x = Flow.from_values(inst_two_parallel, [Fraction(11, 10), Fraction(11, 5)])
        scaled = scaled_flow(x, Fraction(1) / (1 + Fraction(1, 10)))
        assert scaled.values == (1, 2)
        assert scaled.cost == -6
