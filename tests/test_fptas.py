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
    enumerate_frontier,
    generate_instance,
    oracle_optimum,
    preprocess,
    solve_exact,
    solve_gk,
    solve_gk_acyclic,
    validate_flow,
)
from bcmcf import fptas as fptas_mod
from bcmcf import mcc as mcc_mod
from bcmcf.fptas import _gk_loop, _reduced_for_packing, min_ratio_cycle, min_ratio_path_dag
from bcmcf.mcc import find_negative_cycle
from bcmcf.model import merged_ends
from conftest import cycle_test, dag_arcs, path_test, scaled_flow, threshold_violation
from reference_oracles import (
    circulation_form,
    exhaustive_min_ratio_cycle,
    exhaustive_min_ratio_path,
    fraction_assemble_flow,
)


# the loop's stored lengths stay far above the subnormal range, where a
# float ratio would lose its relative precision
path_numerators = st.one_of(
    st.just(0.0),
    st.fractions(min_value=0, max_value=50, max_denominator=12).map(float),
    st.floats(min_value=1e-30, max_value=1e30),
)

# a test's threshold, as a factor of the enumerated minimum ratio
threshold_factors = st.sampled_from([0.5, 1 / 1.1, 1.0, 1.1, 2.0])


@st.composite
def small_dag_ratio_inputs(draw):
    """A DAG on at most 6 nodes with float numerators, any-sign dens in
    quarter steps (exact in floats) and a threshold factor."""
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
    quarters = st.integers(-12, 24).map(lambda k: k / 4)
    den = draw(st.lists(quarters, min_size=len(arcs), max_size=len(arcs)))
    return inst, num, den, draw(threshold_factors)


@st.composite
def small_cycle_ratio_inputs(draw):
    """A digraph on at most 6 nodes and 10 arcs, self-loops and parallel arcs
    allowed, with float numerators in {0} and [1e-30, 1e30], int-valued dens
    of any sign and a threshold factor.  Some numerators are small
    multiples of one drawn scale, so that cycle ratios often lie within a
    factor 1.1 of each other."""
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
    return inst, num, den, draw(threshold_factors)


def thresholds(best, factors=(1 / 1.1, 1.1)) -> list[float]:
    """Thresholds around ``best``'s enumerated ratio, or an arbitrary one
    when no column has a positive denominator."""
    return [4.0] if best is None else [float(best[1]) * f for f in factors]


def parallel_loops(loops: int, acyclic: bool) -> Instance:
    """``loops`` cost -1 edges from node 1 to itself (or to node 2 when
    ``acyclic``) with capacities 1000, 1001, ...: their stored lengths, and
    so their ratios, fall by factors far below 1.1 along the edges."""
    return Instance(
        node_count=2,
        edges=tuple(EdgeData(1, 2 if acyclic else 1, 1000 + i, -1, 0) for i in range(loops)),
        source=1,
        sink=2,
        budget=0,
    )


def descent_steps(reduced: Instance, first: int, eps: float) -> int:
    """The loop's proven descent bound from column ``(first,)`` of
    ``reduced``, whose edges all have gain 1 and no fee: log(r0 / floor)
    over log1p(eps), plus the certifying test.  The loop's first run is at
    the internal accuracy eps' = eps, and a descent that raises ends it."""
    ratio = 1 / reduced.edges[first].capacity
    floor = min(1 / e.capacity for e in reduced.edges) / reduced.edge_count
    return math.ceil(math.log(ratio / floor) / math.log1p(eps)) + 1


def log_delta(reduced: Instance, eps_prime: float) -> float:
    """The log of the loop's start value delta at internal accuracy ``eps_prime``."""
    rows = reduced.edge_count + (reduced.budget > 0)
    return math.log1p(eps_prime) - math.log((1 + eps_prime) * rows) / eps_prime


class TestMinRatioCycle:
    def test_picks_cheaper_cycle(self, inst_two_parallel):
        # unit lengths everywhere, unit budget length: closed by the return
        # arc (edge 3), the fee-carrying edge's cycle has ratio (2+1+1)/4 = 1,
        # the other (1+1)/1 = 2; the two closure arcs' cycle has den 0
        circ = circulation_form(inst_two_parallel)
        num = [2.0 + 1.0, 0.0 + 1.0, 1.0, 1.0]
        den = [4.0, 1.0, 0.0, 0.0]
        assert frozenset(cycle_test(circ, num, den, 1.5)) == frozenset({0, 3})
        assert cycle_test(circ, num, den, 1.0) is None

    def test_no_negative_cycle_returns_none(self, inst_single_positive):
        circ = circulation_form(inst_single_positive)
        num = [1.0, 1.0, 1.0]
        den = [float(-e.cost) for e in circ.edges]
        assert cycle_test(circ, num, den, 1e6) is None

    def test_self_loop(self):
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 1, 1, -1, 0), EdgeData(1, 2, 1, 1, 0)),
            source=1,
            sink=2,
            budget=0,
        )
        assert cycle_test(inst, [3.0, 9.0], [1.0, -1.0], 3.5) == [0]
        assert cycle_test(inst, [3.0, 9.0], [1.0, -1.0], 3.0) is None

    @pytest.mark.parametrize("gap", [0.1, 0.01])
    def test_within_tolerance_of_exhaustive(self, gap):
        # a test just above the minimum ratio finds a column below it, and
        # one just below finds none
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
            best = exhaustive_min_ratio_cycle(inst, num, den)
            checked += best is not None
            for lam in thresholds(best, (1 / (1 + gap), 1 + gap)):
                found = cycle_test(inst, num, den, lam)
                assert threshold_violation(inst, found, num, den, lam, best) is None
                assert (found is None) == (best is None or lam < best[1])
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

    def test_indecisive_float_run_is_decided_on_exact_ints(self, inst_two_parallel, monkeypatch):
        # a float run that raises runs once more on the same weights as exact
        # ints, whose answer stands; a raise on the ints propagates
        arcs = [(t, h, a) for a, (t, h) in enumerate(merged_ends(inst_two_parallel))]
        weights = [0.1 - 0.3, 0.1]
        runs = []

        def detector(node_count, arcs, weights):
            runs.append(weights)
            if len(runs) == 1 or failing:
                raise InternalSolverError("extracted predecessor cycle is not negative")
            return find_negative_cycle(node_count, arcs, weights)

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", detector)
        failing = False
        assert min_ratio_cycle(inst_two_parallel, arcs, weights) == [0]
        assert runs[1] == fptas_mod._scaled_ints(weights)[0]
        assert all(type(w) is int for w in runs[1])
        failing = True
        runs.clear()
        with pytest.raises(InternalSolverError, match="predecessor cycle is not negative"):
            min_ratio_cycle(inst_two_parallel, arcs, weights)
        assert len(runs) == 2

    def test_nonpositive_denominator_cycle_raises(self, monkeypatch):
        # edges 1 -> 2 and 2 -> 1 form a cycle whose costs cancel, so it has
        # no gain, which an exact negative-cycle test can never return
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 1, 1, 1, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        monkeypatch.setattr(mcc_mod, "find_negative_cycle", lambda *args: [0, 1])
        with pytest.raises(InternalSolverError, match="gain 0: float cancellation"):
            solve_gk(inst, 0.5)

    def test_lower_end_bounds_the_minimum_ratio(self):
        # thresholds spread around the minimum ratio: a test that finds
        # nothing proves its threshold a lower end of the minimum, and one
        # that finds a column proves the minimum below it
        rng = random.Random(7)
        found_some = found_none = 0
        for seed in range(80):
            inst = preprocess(
                generate_instance(nodes=2 + seed % 6, edges=2 + seed % 9, seed=900 + seed)
            )
            if inst.node_count > 8:
                continue
            num = [rng.uniform(0.0, 4.0) for _ in inst.edges]
            den = [float(-e.cost) for e in inst.edges]
            best = exhaustive_min_ratio_cycle(inst, num, den)
            if best is None:
                continue
            lam = float(best[1]) * rng.uniform(0.5, 1.5)
            found = cycle_test(inst, num, den, lam)
            assert threshold_violation(inst, found, num, den, lam, best) is None
            found_some += found is not None
            found_none += found is None
        assert found_some >= 15 and found_none >= 15

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_cycle_ratio_inputs())
    def test_property_matches_enumeration(self, case):
        inst, num, den, factor = case
        best = exhaustive_min_ratio_cycle(inst, num, den)
        lam = factor if best is None else float(best[1]) * factor
        found = cycle_test(inst, num, den, lam)
        assert threshold_violation(inst, found, num, den, lam, best) is None

    def test_non_improving_step_raises(self, inst_two_parallel, monkeypatch):
        # a test that keeps finding the seed cycle, edge 0 as a loop at the
        # merged source and sink, never lowers its ratio: the descent stops
        # at its proven bound
        calls = []

        def stuck(node_count, arcs, weights):
            calls.append(1)
            return [0]

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", stuck)
        with pytest.raises(InternalSolverError, match="descent exceeded its proven step bound"):
            solve_gk(inst_two_parallel, 0.5)
        # lengths y = 1/2 on both edges and mu = 1/2: the cycle's ratio is
        # (1/2 + 2 mu) / 4, the least length 1/2 and the positive gains 5;
        # the first run, at eps' = eps, raises
        steps = math.ceil(math.log(0.375 / (0.5 / 5)) / math.log1p(0.5)) + 1
        assert len(calls) == 1 + steps  # the seed test, then the bound

    def test_slow_steps_hit_the_proven_bound(self, monkeypatch):
        # each step finds a cycle whose ratio falls by less than 1 + eps:
        # the descent bound, from the seed's ratio down to the least length
        # over the sum of the gains, must raise
        inst = parallel_loops(60, acyclic=False)
        calls = []

        def slow(node_count, arcs, weights):
            calls.append(1)
            return [len(calls) - 1]

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", slow)
        with pytest.raises(InternalSolverError, match="descent exceeded its proven step bound"):
            solve_gk(inst, 0.4)
        steps = descent_steps(inst, 0, 0.4)
        assert steps < 60
        assert len(calls) == 1 + steps  # the seed test, then the bound


class TestMinRatioPathDag:
    def test_two_hop_beats_direct(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 3, 1, -1, 0), EdgeData(1, 3, 1, -1, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        num, den = [1.0, 1.0, 3.0], [1.0, 1.0, 1.0]
        assert path_test(inst, num, den, 1.1) == [0, 1]
        assert path_test(inst, num, den, 1.0) is None

    def test_single_path(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -2, 0), EdgeData(2, 3, 1, -3, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        assert path_test(inst, [2.0, 3.0], [2.0, 3.0], 1.5) == [0, 1]
        assert path_test(inst, [2.0, 3.0], [2.0, 3.0], 1.0) is None

    def test_nonpositive_denominators_return_none(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, 1, 0), EdgeData(2, 3, 1, 0, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        assert path_test(inst, [1.0, 1.0], [-1.0, 0.0], 10.0) is None

    def test_cycle_detected(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 1, 1, -1, 0), EdgeData(1, 3, 1, 0, 0)),
            source=1,
            sink=3,
            budget=0,
        )
        with pytest.raises(CyclicGraphError):
            path_test(inst, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0)

    def test_within_tolerance_of_enumeration(self):
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
            num = [rng.randint(0, 40) / 7 for _ in inst.edges]
            den = [float(-e.cost) for e in inst.edges]
            best = exhaustive_min_ratio_path(inst, num, den)
            checked += best is not None
            for lam in thresholds(best, (1 / 1.01, 1.01)):
                found = path_test(inst, num, den, lam)
                ends = (inst.source, inst.sink)
                assert threshold_violation(inst, found, num, den, lam, best, ends) is None
                assert (found is None) == (best is None or lam < best[1])
        assert checked >= 25

    def test_extreme_float_magnitudes(self):
        # dual lengths reach the tests as floats anywhere in 1e-120..1e120;
        # the float pass must keep its contract over that whole range
        rng = random.Random(23)
        checked = 0
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
            best = exhaustive_min_ratio_path(inst, num, den)
            checked += best is not None
            for lam in thresholds(best, (1 / 1.01, 1.01)):
                found = path_test(inst, num, den, lam)
                ends = (inst.source, inst.sink)
                assert threshold_violation(inst, found, num, den, lam, best, ends) is None
                assert (found is None) == (best is None or lam < best[1])
        assert checked >= 30

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_dag_ratio_inputs())
    def test_property_matches_enumeration(self, case):
        inst, num, den, factor = case
        best = exhaustive_min_ratio_path(inst, num, den)
        lam = factor if best is None else float(best[1]) * factor
        found = path_test(inst, num, den, lam)
        ends = (inst.source, inst.sink)
        assert threshold_violation(inst, found, num, den, lam, best, ends) is None

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_dag_ratio_inputs(), st.data())
    def test_one_setup_serves_many_calls(self, case, data):
        # solve_gk_acyclic sorts the arcs once and tests fresh weights every
        # time: no test may disturb what the next reads
        inst, num, den, factor = case
        arcs = dag_arcs(inst)
        kept = copy.deepcopy(arcs)
        m = len(inst.edges)
        vectors = [num] + [
            data.draw(st.lists(numbers, min_size=m, max_size=m))
            for numbers in (
                path_numerators,
                st.floats(1e-30, 1e30),
                st.fractions(0, 50).map(float),
            )
        ]
        ends = (inst.source, inst.sink)
        for fresh in vectors:
            best = exhaustive_min_ratio_path(inst, fresh, den)
            lam = factor if best is None else float(best[1]) * factor
            weights = [x - lam * d for x, d in zip(fresh, den)]
            found = min_ratio_path_dag(inst, arcs, *ends, weights)
            assert threshold_violation(inst, found, fresh, den, lam, best, ends) is None
        assert arcs == kept

    def test_non_improving_pass_hits_the_proven_bound(self, monkeypatch):
        # parallel paths whose ratios fall by less than 1 + eps per pass:
        # the descent bound, from the first path's ratio down to the least
        # length over the sum of the gains, must raise; a pass that returns
        # the seed path again never lowers the ratio and hits the same bound
        inst = parallel_loops(60, acyclic=True)
        calls = []

        def slow(inst, arcs, source, sink, weights):
            calls.append(1)
            return [len(calls) - 1]

        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", slow)
        with pytest.raises(InternalSolverError, match="descent exceeded its proven step bound"):
            solve_gk_acyclic(inst, 0.4)
        steps = descent_steps(inst, 0, 0.4)
        assert steps < 60
        assert len(calls) == 1 + steps

        calls.clear()
        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", lambda *args: calls.append(1) or [7])
        with pytest.raises(InternalSolverError, match="descent exceeded its proven step bound"):
            solve_gk_acyclic(inst, 0.4)
        assert len(calls) == 1 + descent_steps(inst, 7, 0.4)


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
        # below about 1e-9 the certified stop could never fire, and eps / 4
        # of 5e-324 is 0; the check in the loop that both solvers share
        # names epsilon
        for solver in (solve_gk, solve_gk_acyclic):
            for eps in (0.0, 1.0, -0.5, 2.0, math.nan, 1e-155, 1e-200, 5e-324):
                with pytest.raises(ValueError, match=f"^epsilon {eps!r} "):
                    solver(inst_two_parallel, eps)

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
        arcs = [(t, h, a) for a, (t, h) in enumerate(merged_ends(reduced))]
        routed, _, _, _ = _gk_loop(reduced, 0.1, lambda w: min_ratio_cycle(reduced, arcs, w))
        assert routed
        for cycle in routed:
            cost = sum(reduced.edges[i].cost for i in cycle)
            assert cost < 0

    @pytest.mark.parametrize("eps", [0.4, 0.1])
    def test_raises_hit_the_proven_bound(self, eps, monkeypatch):
        # a test that finds nothing past the descent makes alpha rise until
        # it would pass rho, the least true ratio no column reaches while the
        # dual objective is below 1: the raise bound, counted from the
        # descent's alpha on true lengths, must fire after exactly its count,
        # in the loop's first run, at eps' = eps.  The pool of routed columns
        # is held empty: it would re-offer the seed column, whose ratio
        # alpha reaches long before rho, and no raise would follow
        monkeypatch.setattr(fptas_mod, "heappush", lambda pool, entry: None)
        inst = Instance(
            node_count=2,
            edges=(EdgeData(1, 1, 1, -1, 0), EdgeData(1, 1, 100, -100, 0)),
            source=1,
            sink=2,
            budget=0,
        )
        calls = []

        def never(weights):
            # the seed test finds edge 0 alone; then nothing, though edge 1
            # has the lower ratio, so that the certified stop stays out of reach
            calls.append(1)
            return [0] if len(calls) == 1 else None

        with pytest.raises(InternalSolverError, match="alpha rose past its proven bound"):
            _gk_loop(inst, eps, never)
        alpha = 1 / (1 + eps)  # the seed's stored ratio 1 over 1 + eps'
        rho = 1 + 1 / 100
        raises = math.ceil((math.log(rho / alpha) - log_delta(inst, eps)) / math.log1p(eps))
        assert raises > 5  # many raises, not one: 8 at eps 0.4, 83 at eps 0.1
        # the seed test, the descent's one test, the raises and the test past them
        assert len(calls) == 2 + raises + 1

    def test_pool_takes_repeat_columns_in_place_of_tests(self, monkeypatch):
        # a routed column that the pool re-offers below the threshold is
        # taken with no test, so the detector runs fewer times than the loop
        # takes a column, from a test or from the pool
        found: list[tuple[int, ...] | None] = []
        hits: list[tuple[int, ...]] = []
        detector = mcc_mod.find_negative_cycle
        heappop = fptas_mod.heappop

        def recording(node_count, arcs, weights):
            column = detector(node_count, arcs, weights)
            found.append(column and tuple(column))
            return column

        def popping(pool):
            entry = heappop(pool)
            # only a column some earlier test found was routed and pooled
            assert entry[1] in found
            hits.append(entry[1])
            return entry

        monkeypatch.setattr(mcc_mod, "find_negative_cycle", recording)
        monkeypatch.setattr(fptas_mod, "heappop", popping)
        inst = preprocess(generate_instance(12, 48, max_capacity=3, seed=7))
        sol = solve_gk(inst, 0.25)
        taken = len(hits) + sum(column is not None for column in found)
        assert 0 < len(found) < taken
        assert validate_flow(inst, sol.flow).ok
        assert sol.objective <= Fraction(3, 4) * solve_exact(inst).objective

    @pytest.mark.parametrize("acyclic", [False, True])
    def test_every_routed_column_goes_back_to_the_pool(self, acyclic, monkeypatch):
        # the pool is the loop's one source of columns: each run pushes its
        # descent's column, and each routing pushes the column it routed,
        # exactly once, so the pushes count the iterations plus the runs
        pushes: list[tuple[int, ...]] = []
        runs = []
        routed_columns = []
        heappush, assemble = fptas_mod.heappush, fptas_mod._assemble_flow

        def pushing(pool, entry):
            pushes.append(entry[1])
            heappush(pool, entry)

        class Counting(fptas_mod.DualState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        def capturing(inst, reduced, routed, scale):
            routed_columns.extend(routed)
            return assemble(inst, reduced, routed, scale)

        monkeypatch.setattr(fptas_mod, "heappush", pushing)
        monkeypatch.setattr(fptas_mod, "DualState", Counting)
        monkeypatch.setattr(fptas_mod, "_assemble_flow", capturing)
        solver = solve_gk_acyclic if acyclic else solve_gk
        iterations = 0
        for seed in range(6):
            raw = generate_instance(10, 30, max_capacity=10, acyclic=acyclic, seed=1800 + seed)
            inst = preprocess(raw)
            pushes.clear()
            runs.clear()
            routed_columns.clear()
            sol = solver(inst, 0.25)
            assert validate_flow(inst, sol.flow).ok
            assert len(pushes) == sol.iterations + len(runs)
            assert set(routed_columns) <= set(pushes)
            iterations += sol.iterations
        assert iterations > 100

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
            seed_weights = [float(e.cost) for e in _reduced_for_packing(inst).edges]
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

        # the pool's keys are divided by each factor; a column pooled
        # before a renormalization and taken after it is a hit across it
        pooled_at: dict[tuple[int, ...], int] = {}
        across = []
        heappush, heappop = fptas_mod.heappush, fptas_mod.heappop

        def pushing(pool, entry):
            pooled_at[entry[1]] = len(factors)
            heappush(pool, entry)

        def popping(pool):
            entry = heappop(pool)
            across.append(pooled_at[entry[1]] < len(factors))
            return entry

        monkeypatch.setattr(fptas_mod.DualState, "renormalize", renormalizing)
        monkeypatch.setattr(fptas_mod.DualState, "log_objective", recording)
        monkeypatch.setattr(fptas_mod, "heappush", pushing)
        monkeypatch.setattr(fptas_mod, "heappop", popping)
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
        assert sum(across) >= 10

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
        # columns are plain edge lists of reduced, which the assembly sums
        columns = [(0, 1), (2,), (0,), (1, 2), tuple(range(reduced.edge_count))]
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
        for routed, scale in [({}, 1), ({(0, 1): 0, (2,): 0}, 2**60)]:
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


@pytest.mark.parametrize("acyclic", [False, True])
def test_uncertified_fallback_reruns_at_a_quarter_of_eps(acyclic, monkeypatch):
    # a margin of 1/3, eps / (1 - eps) at eps = 0.25, makes the certified
    # stop need the routed value, scaled to feasibility, to reach the bound,
    # which is at least the optimum, so the run at eps' = eps ends on the
    # fallback stop, which proves nothing there: the loop must rerun from
    # fresh lengths at eps / 4, whose fallback stop is proven, and count the
    # iterations of both runs.  The first run's bound stays valid, so the
    # loop returns the least bound of the two runs.  A larger margin is
    # refused as an eps whose certified stop can never fire
    monkeypatch.setattr(fptas_mod, "CERTIFICATE_MARGIN", 1 / 3)
    runs = []  # per run: its start log delta, its objective checks, its bounds

    class Quotients(float):
        """An objective that records each bound, its quotient by an alpha."""

        def __truediv__(self, alpha):
            runs[-1][2].append(float(self) / alpha)
            return runs[-1][2][-1]

    class Recording(fptas_mod.DualState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append([self.log_shift, 0, []])

        def log_objective(self):
            runs[-1][1] += 1
            return super().log_objective()

        def objective(self, capacities, budget):
            return Quotients(super().objective(capacities, budget))

    monkeypatch.setattr(fptas_mod, "DualState", Recording)
    bounds = record_loop_bounds(monkeypatch)
    solver = solve_gk_acyclic if acyclic else solve_gk
    eps = 0.25
    inst = preprocess(generate_instance(8, 24, max_capacity=10, acyclic=acyclic, seed=1700))
    sol = solver(inst, eps)
    reduced = _reduced_for_packing(inst)
    assert [start for start, _, _ in runs] == [
        log_delta(reduced, eps),
        log_delta(reduced, eps / 4),
    ]
    # each iteration checks the objective once, and a fallback stop once more
    iterations = [checks - 1 for _, checks, _ in runs]
    assert sol.iterations == sum(iterations) > iterations[1] > iterations[0] > 0
    assert all(bounds[-1] <= min(quotients) for _, _, quotients in runs)
    exact = solve_exact(inst).objective
    assert exact < 0
    assert validate_flow(inst, sol.flow).ok
    assert sol.flow.fee <= inst.budget
    assert exact <= sol.objective <= (1 - Fraction(eps)) * exact


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


@pytest.mark.parametrize("acyclic", [False, True])
@pytest.mark.parametrize("budget_mode", ["tight", "slack", "zero"])
def test_guarantee_at_extreme_magnitudes(budget_mode, acyclic):
    # capacities, costs and fees up to 1e6 spread the dual lengths, ratios
    # and routed amounts over many orders of magnitude, where float
    # cancellation in the oracles' parametric tests would show; every third
    # edge is fee-free, so that a zero budget still leaves a flow.  A
    # generated tight budget seldom binds at these magnitudes, so a tight
    # instance with more than one frontier point takes a budget strictly
    # inside its widest frontier segment, which binds
    solver = solve_gk_acyclic if acyclic else solve_gk
    nonzero = binding = 0
    for seed in range(8):
        raw = generate_instance(
            4 + seed % 7,
            12 + 3 * seed,
            max_capacity=10**6,
            max_cost=10**6,
            max_fee=10**6,
            budget_mode=budget_mode,
            acyclic=acyclic,
            seed=3000 + seed,
        )
        edges = tuple(
            e._replace(fee=0) if i % 3 == 0 else e for i, e in enumerate(raw.edges)
        )
        inst = preprocess(dataclasses.replace(raw, edges=edges))
        points = enumerate_frontier(inst) if budget_mode == "tight" else []
        if len(points) > 1:
            low, high = max(zip(points, points[1:]), key=lambda s: s[1].fee - s[0].fee)
            inst = dataclasses.replace(inst, budget=(low.fee + high.fee) // 2)
            assert low.fee < inst.budget < high.fee
        sol = solve_exact(inst)
        if len(points) > 1:
            assert sol.flow.fee == inst.budget and sol.lam > 0
            binding += 1
        exact = sol.objective
        nonzero += exact < 0
        for eps in (0.5, 0.25, 0.1):
            sol = solver(inst, eps)
            assert validate_flow(inst, sol.flow).ok
            assert exact <= sol.objective <= (1 - Fraction(eps)) * exact
    assert nonzero >= 4
    # one acyclic instance (n = 2, m = 3) has a single frontier point
    assert binding == (8 - acyclic if budget_mode == "tight" else 0)


def times_ten_to(inst: Instance, k: int, kinds=("capacity", "cost", "budget")) -> Instance:
    """``inst`` with the ``kinds`` of its numbers times 10^k; the others stay.

    A kind is an edge field (capacity, cost or fee) or the budget.
    """
    f = 10**k
    edges = tuple(
        e._replace(**{kind: getattr(e, kind) * f for kind in kinds if kind != "budget"})
        for e in inst.edges
    )
    return dataclasses.replace(inst, edges=edges, budget=inst.budget * (f if "budget" in kinds else 1))


@pytest.mark.parametrize("acyclic", [False, True])
@pytest.mark.parametrize(
    "kinds",
    [("capacity", "cost", "fee", "budget"), ("capacity",), ("cost",), ("fee",), ("budget",)],
    ids="+".join,
)
def test_magnitudes_inside_the_float_range_are_answered(kinds, acyclic):
    # numbers 10^k apart put capacity lengths far below the fee and cost
    # terms of a threshold test's weights, so the float Bellman-Ford labels
    # carry rounding larger than those lengths, and the float run can
    # return a cycle whose float sum is not negative: the cycle test then
    # decides on the same weights as exact ints.  Every instance here is
    # inside the float range, so each solve must answer within (1 - eps)
    solver = solve_gk_acyclic if acyclic else solve_gk
    seed = 9 if acyclic else 3  # seed 3's acyclic instance has optimum 0
    inst = preprocess(generate_instance(8, 24, max_capacity=5, seed=seed, acyclic=acyclic))
    for k in (17, 18, 20, 25, 30, 50, 100):
        scaled = times_ten_to(inst, k, kinds)
        exact = solve_exact(scaled).objective
        assert exact < 0
        sol = solver(scaled, 0.25)
        assert validate_flow(scaled, sol.flow).ok
        assert exact <= sol.objective <= (1 - Fraction(0.25)) * exact


@pytest.mark.parametrize("acyclic", [False, True])
def test_magnitudes_past_the_float_range_are_refused(acyclic):
    # the loop decides before it starts whether its floats carry the
    # instance: scaled by 10^160 its profit would overflow, by 10^200 its
    # descent floor would underflow, and a single 10^400 would not convert
    solver = solve_gk_acyclic if acyclic else solve_gk
    seed = 9 if acyclic else 3  # seed 3's acyclic instance has optimum 0
    inst = preprocess(generate_instance(8, 24, max_capacity=5, seed=seed, acyclic=acyclic))
    scaled = times_ten_to(inst, 100)
    exact = solve_exact(scaled).objective
    assert exact < 0
    sol = solver(scaled, 0.25)
    assert validate_flow(scaled, sol.flow).ok
    assert exact <= sol.objective <= (1 - Fraction(0.25)) * exact
    beyond = 10**400
    refused = [times_ten_to(inst, 160), times_ten_to(inst, 200)] + [
        Instance(node_count=2, edges=(edge,), source=1, sink=2, budget=budget)
        for edge, budget in [
            (EdgeData(1, 2, 1, -beyond, 0), 0),
            (EdgeData(1, 2, beyond, -1, 0), 0),
            (EdgeData(1, 2, 1, -1, beyond), 1),
            (EdgeData(1, 2, 1, -1, 1), beyond),
        ]
    ]
    for case in refused:
        with pytest.raises(ValueError, match="too large for float lengths.*-a exact"):
            solver(case, 0.25)


@pytest.mark.parametrize("acyclic", [False, True])
def test_refusals_are_decided_at_a_quarter_of_eps(acyclic, inst_two_parallel):
    # the loop's first run is at eps' = eps, but both refusals take the
    # phase count of eps / 4 and are decided before it, so they refuse what
    # eps' = eps alone would carry.  One row and |cost| 2^509: the phase
    # count is 5 at 0.2 and 21 at 0.05, so 5 * 2^1018 is inside 2^1022 and
    # 21 * 2^1018 is not
    solver = solve_gk_acyclic if acyclic else solve_gk
    cases = [(-(2**509), 0.2, True), (-(2**509), 0.8, False), (-(2**508), 0.2, False)]
    for cost, eps, refused in cases:
        edges = (EdgeData(1, 2, 1, cost, 0),)
        inst = Instance(node_count=2, edges=edges, source=1, sink=2, budget=0)
        if refused:
            with pytest.raises(ValueError, match="too large for float lengths.*-a exact"):
                solver(inst, eps)
        else:
            sol = solver(inst, eps)
            assert validate_flow(inst, sol.flow).ok
            assert cost <= sol.objective <= (1 - Fraction(eps)) * cost


@pytest.mark.parametrize("acyclic", [False, True])
def test_eps_whose_certified_stop_cannot_fire_is_refused(acyclic, inst_two_parallel):
    # the routed value, scaled to feasibility, is at most the optimum, which
    # is at most every bound, so once (1 - eps) * (1 + margin) passes 1 only
    # the fallback stop could end a run, about log(rows) / eps^2 iterations
    # away: 1e-10 and 5e-10 are refused before the first run.  So is every
    # eps up to 2^-51, about 4.4e-16, where 1 + eps / 4 rounds to 1 and no
    # length could grow; on one edge of cost -1, whose optimum is -1, log
    # delta rounds to above 0 at 1e-16 and 1e-17, where a loop left to run
    # would return the zero flow.  At 1e-9 the certified stop can still fire
    solver = solve_gk_acyclic if acyclic else solve_gk
    one_edge = Instance(
        node_count=2, edges=(EdgeData(1, 2, 1, -1, 0),), source=1, sink=2, budget=0
    )
    for eps in (1e-10, 5e-10, 4e-16, 1e-16, 1e-17, 2e-154):
        for inst in (one_edge, inst_two_parallel):
            too_small = f"^epsilon {eps!r} is too small for float lengths"
            with pytest.raises(ValueError, match=too_small):
                solver(inst, eps)
    assert solver(one_edge, 1e-9).objective == -1


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
        # the topological sort and the sorted arcs depend only on the graph,
        # so every test of a solve shares them; the seed test is the one at
        # the weights -den = cost
        sorts, seeds, arc_lists = [], [], []
        sort, path_test_fn = fptas_mod.topological_order, fptas_mod.min_ratio_path_dag

        def counted_sort(inst):
            sorts.append(1)
            return sort(inst)

        def counted_test(inst, arcs, source, sink, weights):
            seeds.append(list(weights) == [float(e.cost) for e in inst.edges])
            arc_lists.append(id(arcs))
            return path_test_fn(inst, arcs, source, sink, weights)

        monkeypatch.setattr(fptas_mod, "topological_order", counted_sort)
        monkeypatch.setattr(fptas_mod, "min_ratio_path_dag", counted_test)
        # a slack, a tight and a zero budget, then paths from sink to source
        dag = generate_instance(5, 12, acyclic=True, seed=1400)
        cases = [
            generate_instance(6, 14, budget_mode="slack", acyclic=True, seed=1404),
            generate_instance(6, 14, budget_mode="tight", acyclic=True, seed=1413),
            generate_instance(6, 14, max_fee=1, budget_mode="zero", acyclic=True, seed=1404),
            Instance(dag.node_count, dag.edges, dag.sink, dag.source, dag.budget),
        ]
        for solves, inst in enumerate(map(preprocess, cases), start=1):
            before = len(seeds)
            solve_gk_acyclic(inst, 0.25)
            assert len(seeds) - before > 2
            assert len(set(arc_lists[before:])) == 1
            assert len(sorts) == solves
            assert sum(seeds) == solves

    def test_shadow_audit_matches_enumeration(self, monkeypatch):
        calls = []
        path_test_fn = fptas_mod.min_ratio_path_dag

        def audited(graph, arcs, source, sink, weights):
            # the audit sees the weights w = num - lam * den alone, so it
            # checks the contract at threshold 0 on the numerators w
            result = path_test_fn(graph, arcs, source, sink, weights)
            den = [-e.cost for e in graph.edges]
            best = exhaustive_min_ratio_path(graph, weights, den, source, sink)
            ends = (source, sink)
            assert threshold_violation(graph, result, weights, den, 0.0, best, ends) is None
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

        def recording(graph, arcs, source, sink, weights):
            result = path_oracle(graph, arcs, source, sink, weights)
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
