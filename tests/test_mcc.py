"""Tests for integer min-cost circulation and negative-cycle search."""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcmcf import (
    EdgeData,
    Flow,
    Instance,
    InternalSolverError,
    generate_instance,
    preprocess,
)
from bcmcf.mcc import Basis, find_negative_cycle, lambda_cost, min_cost_circulation
from bcmcf.oracle import DEFAULT_GUARD, iter_integral_values
from reference_oracles import (
    ResidualGraph,
    canceling_circulation,
    circulation_form,
    fee_maximal_cost,
    iter_simple_cycles,
)

# the packed costs of each fee tie-break: the package's fee-minimal
# ``lambda_cost`` and the tests' fee-maximal reference
PACKED_COSTS = {"min": lambda_cost, "max": fee_maximal_cost}


def lex_optimum_by_enumeration(
    inst: Instance, lam: Fraction, fee_direction: str
) -> tuple[Fraction, Fraction]:
    """Exhaustive lexicographic minimum of (cost + lam * fee, +-fee) over all
    integral flows, computed from the instance without packing."""
    sign = 1 if fee_direction == "min" else -1
    best = None
    for vals in iter_integral_values(inst):
        primary = sum((e.cost + lam * e.fee) * v for e, v in zip(inst.edges, vals))
        secondary = sum(sign * e.fee * v for e, v in zip(inst.edges, vals))
        key = (Fraction(primary), Fraction(secondary))
        if best is None or key < best:
            best = key
    assert best is not None  # the zero flow always exists
    return best


def plain_costs(inst: Instance) -> list[int]:
    return [e.cost for e in inst.edges]


def triangle(c_last: int) -> Instance:
    return Instance(
        node_count=3,
        edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 3, 1, -1, 0), EdgeData(3, 1, 1, c_last, 0)),
        source=1,
        sink=3,
        budget=0,
    )


def solve_flow(basis: Basis, costs: list[int]) -> Flow:
    """The optimum a solve leaves in ``basis``, as a ``Flow`` on the problem's
    edges; the solve's own int (cost, fee) must be that flow's totals."""
    totals = min_cost_circulation(basis, costs)
    flow = Flow.from_values(basis.inst, basis.flow[: basis.inst.edge_count])
    assert all(type(t) is int for t in totals)
    assert totals == (flow.cost, flow.fee)
    return flow


def solve_at(inst: Instance, lam: Fraction, fee_direction: str) -> Flow:
    basis = Basis(inst)
    return solve_flow(basis, PACKED_COSTS[fee_direction](basis, lam))


def search(rg: ResidualGraph):
    """The detector on a residual graph, as the reference engine calls it."""
    return find_negative_cycle(rg.node_count, rg.arcs(), rg.costs)


def closed_flow(inst: Instance, values) -> list:
    """``values`` on ``inst``'s edges, then on the two arcs of
    ``circulation_form(inst)``: the sink's net inflow goes back to the
    source on the return arc, or a net outflow reaches it on the closure
    arc, so the closed network conserves flow everywhere."""
    net = sum(
        (e.head == inst.sink) * v - (e.tail == inst.sink) * v
        for e, v in zip(inst.edges, values)
    )
    return [*values, max(-net, 0), max(net, 0)]


def has_negative_cycle(n: int, arcs, weights) -> bool:
    """Floyd-Warshall over nodes 1..n: some shortest closed walk is negative."""
    dist = [[0 if i == j else inf for j in range(n + 1)] for i in range(n + 1)]
    for u, v, a in arcs:
        dist[u][v] = min(dist[u][v], weights[a])
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return any(dist[v][v] < 0 for v in range(1, n + 1))


def pivot_cap(inst: Instance, costs: list[int], flow) -> int:
    """The proven pivot bound of ``min_cost_circulation`` from start flow ``flow``."""
    reach = sum(e.capacity * abs(w) for e, w in zip(inst.edges, costs))
    start = sum(w * v for w, v in zip(costs, flow))
    width = max(map(abs, costs), default=0)
    return (start + reach + 1) * (2 * inst.node_count**2 * width + 1)


def solve_counting(basis: Basis, costs: list[int]):
    """The optimum from ``basis`` and the number of pivots it took."""
    before = basis.pivots
    flow = solve_flow(basis, costs)
    return flow, basis.pivots - before


@st.composite
def weighted_digraphs(draw):
    """A digraph on at most 6 nodes and 10 arcs, self-loops and parallel arcs
    allowed, with int weights in [-5, 5]."""
    n = draw(st.integers(2, 6))
    node = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(-5, 5)), max_size=10))
    inst = Instance(
        node_count=n,
        edges=tuple(EdgeData(t, h, 1, w, 0) for t, h, w in arcs),
        source=1,
        sink=2,
        budget=0,
    )
    return inst, [w for _, _, w in arcs]


@st.composite
def warm_start_cases(draw):
    """A generated instance, two multipliers and a fee direction."""
    inst = generate_instance(
        nodes=draw(st.integers(2, 6)),
        edges=draw(st.integers(2, 12)),
        max_capacity=draw(st.integers(1, 4)),
        budget_mode=draw(st.sampled_from(("tight", "slack", "zero"))),
        seed=draw(st.integers(0, 10**6)),
    )
    multiplier = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))
    return (
        preprocess(inst),
        draw(multiplier),
        draw(multiplier),
        draw(st.sampled_from(("min", "max"))),
    )


def primary_and_secondary(flow, lam: Fraction, fee_direction: str) -> tuple[Fraction, Fraction]:
    sign = 1 if fee_direction == "min" else -1
    return (flow.cost + lam * flow.fee, sign * flow.fee)


class TestFindNegativeCycle:
    def test_negative_triangle(self):
        inst = triangle(1)
        rg = ResidualGraph(inst, plain_costs(inst))
        cycle = search(rg)
        assert cycle is not None
        assert sorted(cycle) == [0, 2, 4]  # forward arcs of the three edges
        assert sum(rg.costs[a] for a in cycle) == -1

    def test_zero_sum_triangle_is_not_negative(self):
        inst = triangle(2)
        rg = ResidualGraph(inst, plain_costs(inst))
        assert search(rg) is None

    def test_circulation_form_cycle(self, inst_two_parallel):
        # both source-sink edges close a negative cycle through the return arc
        circ = circulation_form(inst_two_parallel)
        rg = ResidualGraph(circ, plain_costs(circ))
        cycle = search(rg)
        assert cycle is not None
        assert sum(rg.costs[a] for a in cycle) < 0

    def test_deterministic(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        runs = [search(ResidualGraph(circ, plain_costs(circ))) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weighted_digraphs())
    def test_property_matches_cycle_enumeration(self, case):
        inst, weights = case
        arcs = [(e.tail, e.head, i) for i, e in enumerate(inst.edges)]
        cycle = find_negative_cycle(inst.node_count, arcs, weights)
        negative = any(sum(weights[i] for i in c) < 0 for c in iter_simple_cycles(inst))
        assert (cycle is None) == (not negative)
        if cycle is not None:
            edges = [inst.edges[i] for i in cycle]
            assert all(a.head == b.tail for a, b in zip(edges, edges[1:] + edges[:1]))
            assert len({e.tail for e in edges}) == len(edges)
            assert sum(weights[i] for i in cycle) < 0
        assert find_negative_cycle(inst.node_count, arcs, [float(w) for w in weights]) == cycle

    def test_fuzz_against_floyd_warshall(self):
        # arc ids are a shuffle of the positions, so ids index weights only
        rng = random.Random(20161)
        found = 0
        for _ in range(5000):
            n = rng.randint(1, 6)
            m = rng.randint(0, 10)
            ends = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)]
            ids = rng.sample(range(m), m)
            weights = [0] * m
            for a in ids:
                weights[a] = rng.randint(-3, 5)
            arcs = [(u, v, a) for (u, v), a in zip(ends, ids)]
            negative = has_negative_cycle(n, arcs, weights)
            for typed in (weights, [float(w) for w in weights]):
                cycle = find_negative_cycle(n, arcs, typed)
                assert (cycle is not None) == negative
                if cycle is None:
                    continue
                ends_of = {a: (u, v) for u, v, a in arcs}
                tails = [ends_of[a][0] for a in cycle]
                heads = [ends_of[a][1] for a in cycle]
                assert heads == tails[1:] + tails[:1]  # closed
                assert len(set(tails)) == len(tails)  # simple
                assert sum(typed[a] for a in cycle) < 0
            found += negative
        assert 1000 < found < 4000

    def test_stops_at_the_first_predecessor_cycle(self):
        # a negative 2-cycle on nodes 1 and 2 closes in pass 1; a chain over
        # the other nodes makes n large, and a search only after pass n
        # would read n * m weights
        n = 40

        class Counted:
            def __init__(self, values):
                self.values = values
                self.reads = 0

            def __getitem__(self, index):
                self.reads += 1
                return self.values[index]

        chain = [(v, v + 1) for v in range(n - 1, 2, -1)]
        ends = chain + [(1, 2), (2, 1)]
        arcs = [(u, v, a) for a, (u, v) in enumerate(ends)]
        weights = Counted([-1] * len(arcs))
        assert find_negative_cycle(n, arcs, weights) == [len(arcs) - 2, len(arcs) - 1]
        assert weights.reads <= 2 * len(arcs) + 2

    def test_graph_holds_ints_only(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        costs = fee_maximal_cost(Basis(inst_two_parallel), Fraction(1, 3))
        rg = ResidualGraph(circ, [*costs, 0, 0])
        assert all(type(v) is int for v in rg.costs + rg.caps)

    def test_fractional_initial_flow_rejected(self, inst_two_parallel):
        circ = circulation_form(inst_two_parallel)
        with pytest.raises(ValueError):
            ResidualGraph(circ, plain_costs(circ), flow=[Fraction(1, 2), 0, 0, 0])


class TestLambdaCost:
    # inst_two_parallel: edges (cost -4, fee 2) and (cost -1, fee 0), so
    # the packing factor is sum(fee) + 1 = 3

    def test_direct_formula(self, inst_two_parallel):
        costs = lambda_cost(Basis(inst_two_parallel), Fraction(2))
        assert costs == [(-4 + 2 * 2) * 3 + 2, -1 * 3]

    def test_zero_multiplier_identity(self, inst_two_parallel):
        costs = lambda_cost(Basis(inst_two_parallel), Fraction(0))
        assert costs == [-4 * 3 + 2, -1 * 3]

    def test_small_rational_multiplier(self, inst_two_parallel):
        # lam = 1/200 scales the primary by the denominator: 200 * (-399/100)
        costs = lambda_cost(Basis(inst_two_parallel), Fraction(1, 200))
        assert costs == [-798 * 3 + 2, -200 * 3]

    def test_max_direction_negates_secondary(self, inst_two_parallel):
        # the tests' fee-maximal costs differ from lambda_cost only in the
        # sign of the fee tie-break
        low = lambda_cost(Basis(inst_two_parallel), Fraction(1))
        high = fee_maximal_cost(Basis(inst_two_parallel), Fraction(1))
        assert low[0] - high[0] == 2 * 2
        assert low[1] == high[1]

    def test_return_arc_gets_zero(self, inst_two_parallel):
        # one cost per problem edge; the basis's artificial arcs 2 and 3
        # keep cost 0 through a solve
        basis = Basis(inst_two_parallel)
        costs = lambda_cost(basis, Fraction(3))
        assert len(costs) == inst_two_parallel.edge_count
        min_cost_circulation(basis, costs)
        assert basis.costs[:4] == [*costs, 0, 0]

    def test_negative_multiplier_rejected(self, inst_two_parallel):
        with pytest.raises(ValueError):
            lambda_cost(Basis(inst_two_parallel), Fraction(-1))

    def test_fee_never_outweighs_a_primary_unit(self):
        # one edge of cost -1 whose fee is the whole fee volume: at lam = 0 the
        # min-fee solve must still route it, which needs the packing factor
        # above sum(fee)
        inst = Instance(
            node_count=2, edges=(EdgeData(1, 2, 1, -1, 10**6),), source=1, sink=2, budget=0
        )
        flow = solve_at(inst, Fraction(0), "min")
        assert flow.values[0] == 1
        assert flow.cost == -1


class TestMinCostCirculation:
    def test_plain_costs_saturate_both(self, inst_two_parallel):
        flow = solve_at(inst_two_parallel, Fraction(0), "min")
        assert flow.values == (2, 2)
        assert flow.cost == -10
        assert flow.fee == 4
        assert flow.cost == lex_optimum_by_enumeration(inst_two_parallel, Fraction(0), "min")[0]

    def test_min_fee_tie_break(self, inst_two_parallel):
        # primary cost + 2*fee makes the fee-carrying edge worthless (0/unit);
        # the min-fee tie-break must leave it empty
        flow = solve_at(inst_two_parallel, Fraction(2), "min")
        assert flow.values == (0, 2)
        assert flow.cost == -2
        assert flow.fee == 0
        enum_primary, enum_secondary = lex_optimum_by_enumeration(
            inst_two_parallel, Fraction(2), "min"
        )
        assert enum_primary == -2 and enum_secondary == 0

    def test_max_fee_tie_break(self, inst_two_parallel):
        flow = solve_at(inst_two_parallel, Fraction(2), "max")
        assert flow.values == (2, 2)
        assert flow.fee == 4
        enum_primary, enum_secondary = lex_optimum_by_enumeration(
            inst_two_parallel, Fraction(2), "max"
        )
        assert enum_secondary == -4

    def test_flows_are_fractions_at_the_boundary(self, inst_two_parallel):
        # a solve returns int totals; its values become Fractions only in
        # the Flow built from them
        basis = Basis(inst_two_parallel)
        assert min_cost_circulation(basis, fee_maximal_cost(basis, Fraction(2))) == (-10, 4)
        flow = solve_at(inst_two_parallel, Fraction(2), "max")
        assert all(type(v) is Fraction for v in flow.values)

    def test_basis_holds_ints_only(self, inst_two_parallel):
        basis = Basis(inst_two_parallel)
        min_cost_circulation(basis, fee_maximal_cost(basis, Fraction(1, 3)))
        assert basis.pivots > 0
        state = basis.flow + basis.potentials + basis.costs
        assert all(type(v) is int for v in state)

    def test_nonnegative_costs_give_zero_circulation(self):
        for seed in range(20):
            inst = generate_instance(nodes=2 + seed % 4, edges=1 + seed % 7, seed=seed)
            flow = solve_flow(Basis(inst), [abs(e.cost) for e in inst.edges])
            assert all(v == 0 for v in flow.values)

    def test_no_negative_cycle_remains(self, inst_two_hop):
        basis = Basis(inst_two_hop)
        costs = lambda_cost(basis, Fraction(0))
        min_cost_circulation(basis, costs)
        # the optimum, closed on the reference's own network, leaves its
        # residual graph without a negative cycle
        circ = circulation_form(inst_two_hop)
        flow = closed_flow(inst_two_hop, basis.flow[: inst_two_hop.edge_count])
        rg = ResidualGraph(circ, [*costs, 0, 0], flow=flow)
        assert search(rg) is None

    def test_matches_enumeration_on_random_instances(self):
        for seed in range(40):
            inst = preprocess(
                generate_instance(
                    nodes=2 + seed % 4,
                    edges=1 + seed % 8,
                    max_capacity=3,
                    budget_mode=("tight", "zero")[seed % 2],
                    seed=seed,
                )
            )
            for lam, fee_direction in (
                (Fraction(0), "min"),
                (Fraction(1 + seed % 3, 2), ("min", "max")[seed % 2]),
            ):
                flow = solve_at(inst, lam, fee_direction)
                assert primary_and_secondary(flow, lam, fee_direction) == (
                    lex_optimum_by_enumeration(inst, lam, fee_direction)
                )

    def test_tie_breaking_never_hurts_primary(self):
        for seed in range(25):
            inst = preprocess(
                generate_instance(nodes=2 + seed % 4, edges=1 + seed % 7, seed=100 + seed)
            )
            lam = Fraction(seed % 5, 3)
            low = solve_at(inst, lam, "min")
            high = solve_at(inst, lam, "max")
            assert low.cost + lam * low.fee == high.cost + lam * high.fee
            assert low.fee <= high.fee


class TestIterationCap:
    def test_tiny_cap_raises(self, inst_two_parallel, monkeypatch):
        # a no-op pivot leaves the same arc pricing out forever; the proven
        # bound on the number of pivots must stop the loop, and exactly there
        calls = []
        monkeypatch.setattr(Basis, "pivot", lambda self, arc: calls.append(arc))
        basis = Basis(inst_two_parallel)
        costs = lambda_cost(basis, Fraction(0))
        with pytest.raises(InternalSolverError, match="cap"):
            min_cost_circulation(basis, costs)
        assert len(calls) == pivot_cap(inst_two_parallel, costs, [0, 0])
        assert len(set(calls)) == 1


class TestWarmStart:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(warm_start_cases())
    def test_any_start_reaches_the_cold_optimum(self, case):
        """A basis left by any earlier solve reaches the fresh basis's (cost, fee)."""
        inst, lam, other_lam, fee_direction = case
        costs = PACKED_COSTS[fee_direction](Basis(inst), lam)
        cold, _ = solve_counting(Basis(inst), costs)
        other_direction = "max" if fee_direction == "min" else "min"
        for prior in ((), ((other_lam, fee_direction),), ((lam, other_direction),)):
            basis = Basis(inst)
            for prior_lam, prior_direction in prior:
                min_cost_circulation(basis, PACKED_COSTS[prior_direction](basis, prior_lam))
            start = list(basis.flow[: inst.edge_count])
            warm, pivots = solve_counting(basis, costs)
            assert (warm.cost, warm.fee) == (cold.cost, cold.fee)
            assert pivots < pivot_cap(inst, costs, start)
            again, pivots = solve_counting(basis, costs)
            assert pivots == 0
            assert again.values == warm.values

    # the basis of inst_two_hop, sink 3 merged into source 1: edge 0 runs
    # 1 -> 2 and edge 1 runs 2 -> 1, both with capacity 2, and edge 2, a
    # loop at 1, has capacity 1; arcs 3 to 5 are the artificial arcs
    @pytest.mark.parametrize(
        "start, message",
        [
            ([Fraction(1, 2), Fraction(1, 2), 0], "integral"),
            ([3, 3, 0], "capacity"),
            ([1, 0, 0], "not a circulation"),
        ],
        ids=["fractional", "over-capacity", "unbalanced"],
    )
    def test_bad_start_rejected(self, inst_two_hop, start, message):
        basis = Basis(inst_two_hop)
        basis.flow[:3] = start
        with pytest.raises(ValueError, match=message):
            min_cost_circulation(basis, plain_costs(inst_two_hop))


@st.composite
def sequences_past_the_guard(draw):
    """A generated instance, up to n = 20, m = 80 and U = 50, too large to
    enumerate, with a sequence of multipliers and fee directions."""
    inst = preprocess(generate_instance(
        nodes=draw(st.integers(6, 20)),
        edges=draw(st.integers(20, 80)),
        max_capacity=draw(st.integers(5, 50)),
        budget_mode=draw(st.sampled_from(("tight", "slack", "zero"))),
        seed=draw(st.integers(0, 10**6)),
    ))
    assume(prod(e.capacity + 1 for e in inst.edges) > DEFAULT_GUARD)
    multiplier = st.builds(Fraction, st.integers(0, 12), st.integers(1, 5))
    direction = st.sampled_from(("min", "max"))
    return inst, draw(st.lists(st.tuples(multiplier, direction), min_size=1, max_size=3))


class TestAgainstCanceling:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sequences_past_the_guard())
    def test_reused_basis_matches_canceling_and_certifies(self, case):
        inst, solves = case
        # the reference engine runs on the closed instance, whose closure
        # arcs cost 0
        circ = circulation_form(inst)
        basis = Basis(inst)
        for lam, fee_direction in solves:
            costs = PACKED_COSTS[fee_direction](basis, lam)
            flow = solve_flow(basis, costs)
            closed_costs, closed = [*costs, 0, 0], closed_flow(inst, flow.values)
            reference = canceling_circulation(circ, closed_costs)
            assert (flow.cost, flow.fee) == (reference.cost, reference.fee)
            assert search(ResidualGraph(circ, closed_costs, flow=closed)) is None
            # the tree stays strongly feasible: every node can send flow to
            # the root along its tree path, which the pivot cap relies on
            for v in range(1, circ.node_count + 1):
                a = basis.pred[v]
                up = basis.caps[a] - basis.flow[a] if basis.dirs[v] == 1 else basis.flow[a]
                assert up > 0
            # the merged node's one potential, given to source and sink
            # alike, certifies the optimum on every residual arc of the
            # closed network, whose closure arcs then price at 0
            pi = list(basis.potentials)
            pi[inst.sink] = pi[inst.source]
            for e, w, x in zip(circ.edges, closed_costs, closed):
                reduced = w + pi[e.tail] - pi[e.head]
                if x < e.capacity:
                    assert reduced >= 0
                if x > 0:
                    assert -reduced >= 0
