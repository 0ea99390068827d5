"""Tests for the instance model, preprocessing, validation, and file formats."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmcf import (
    EdgeData,
    Flow,
    Instance,
    InstanceError,
    ParseError,
    Solution,
    format_solution,
    generate_instance,
    instance_stats,
    parse_instance,
    parse_solution,
    preprocess,
    serialize_instance,
    solve_exact,
    validate_flow,
)
from bcmcf.fptas import _reduced_for_packing
from bcmcf.model import merged_ends, restore_flow

I1_TEXT = """\
p bcmcf 2 2 2
n 1 s
n 2 t
a 1 2 2 -4 2
a 1 2 2 -1 0
"""

I0_TEXT = """\
p bcmcf 2 1 0
n 1 s
n 2 t
a 1 2 1 1 0
"""


class TestParse:
    def test_two_parallel_edges(self, inst_two_parallel):
        assert parse_instance(I1_TEXT) == inst_two_parallel

    def test_single_edge(self, inst_single_positive):
        assert parse_instance(I0_TEXT) == inst_single_positive

    def test_negative_capacity_reports_line(self):
        text = "p bcmcf 2 1 0\nn 1 s\nn 2 t\na 1 2 -1 0 0\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 4
        assert "capacity" in str(err.value)

    def test_unknown_node_id(self):
        text = "p bcmcf 2 1 0\nn 1 s\nn 2 t\na 1 5 1 0 0\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 4

    def test_missing_source(self):
        with pytest.raises(ParseError, match="source"):
            parse_instance("p bcmcf 2 0 0\nn 2 t\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="arcs"):
            parse_instance("p bcmcf 2 3 0\nn 1 s\nn 2 t\na 1 2 1 0 0\n")

    def test_comments_ignored(self, inst_two_parallel):
        text = "# header\nc another comment\n" + I1_TEXT
        assert parse_instance(text) == inst_two_parallel

    def test_roundtrip_on_generated_instances(self):
        for seed in range(100):
            inst = generate_instance(
                nodes=2 + seed % 6,
                edges=1 + seed % 12,
                budget_mode=("tight", "slack", "zero")[seed % 3],
                acyclic=seed % 2 == 0,
                seed=seed,
            )
            assert parse_instance(serialize_instance(inst)) == inst


class TestInstanceInvariants:
    def test_source_equals_sink_rejected(self):
        with pytest.raises(InstanceError):
            Instance(node_count=2, edges=(), source=1, sink=1, budget=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(InstanceError):
            Instance(node_count=2, edges=(), source=1, sink=2, budget=-1)

    def test_negative_fee_rejected(self):
        with pytest.raises(InstanceError):
            EdgeData(1, 2, 1, 0, -1)

    def test_self_loops_and_parallel_edges_allowed(self):
        Instance(
            node_count=3,
            edges=(EdgeData(2, 2, 1, -1, 0), EdgeData(1, 3, 1, 0, 0), EdgeData(1, 3, 2, 1, 1)),
            source=1,
            sink=3,
            budget=0,
        )


class TestGenerate:
    @pytest.mark.parametrize("name", ["max_capacity", "max_cost", "max_fee"])
    def test_negative_maximum_names_the_parameter(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -1"):
            generate_instance(3, 2, **{name: -1})


class TestStats:
    def test_two_parallel(self, inst_two_parallel):
        stats = instance_stats(inst_two_parallel)
        assert stats.cbar == 10
        assert stats.bbar == 4

    def test_single_edge(self, inst_single_positive):
        stats = instance_stats(inst_single_positive)
        assert stats.cbar == 1
        assert stats.bbar == 0

    def test_empty_edge_list(self):
        stats = instance_stats(Instance(node_count=2, edges=(), source=1, sink=2, budget=0))
        assert stats.cbar == 0
        assert stats.bbar == 0

    def test_bounds_on_generated_instances(self):
        for seed in range(50):
            inst = generate_instance(nodes=2 + seed % 5, edges=1 + seed % 9, seed=seed)
            stats = instance_stats(inst)
            m = inst.edge_count
            max_capacity = max(e.capacity for e in inst.edges)
            max_abs_cost = max(abs(e.cost) for e in inst.edges)
            max_abs_value = max(
                [inst.budget] + [v for e in inst.edges for v in (e.capacity, abs(e.cost), e.fee)]
            )
            assert stats.cbar <= m * max_capacity * max_abs_cost
            assert stats.bbar <= m * max_capacity * max_abs_value


class TestPreprocess:
    def test_no_dead_nodes_is_identity(self, inst_two_parallel):
        assert preprocess(inst_two_parallel) == inst_two_parallel

    def test_isolated_node_removed(self, inst_two_parallel):
        padded = Instance(
            node_count=3,
            edges=inst_two_parallel.edges,
            source=1,
            sink=2,
            budget=2,
        )
        result = preprocess(padded)
        assert result == inst_two_parallel

    def test_dead_chain_removed_iteratively(self):
        # b has no outgoing edge, so b dies; then a loses its only head use
        inst = Instance(
            node_count=4,
            edges=(EdgeData(1, 2, 1, -1, 0), EdgeData(2, 3, 1, -1, 0), EdgeData(1, 4, 1, -1, 0)),
            source=1,
            sink=4,
            budget=0,
        )
        result = preprocess(inst)
        assert result.node_count == 2
        assert result.edge_origin == (2,)
        # fixed point: rescanning finds nothing else to remove
        assert all(
            any(e.tail == v or e.head == v for e in result.edges)
            or v in (result.source, result.sink)
            for v in range(1, result.node_count + 1)
        )

    def test_idempotent_on_random_instances(self):
        for seed in range(60):
            inst = generate_instance(nodes=2 + seed % 6, edges=1 + seed % 8, seed=seed)
            once = preprocess(inst)
            assert preprocess(once) == once

    def test_self_loop_keeps_node(self):
        inst = Instance(
            node_count=3,
            edges=(EdgeData(1, 2, 1, 0, 0), EdgeData(3, 3, 1, -1, 0)),
            source=1,
            sink=2,
            budget=0,
        )
        assert preprocess(inst).node_count == 3


@st.composite
def padded_instances(draw) -> Instance:
    """A generated instance with one more dead node and one more zero-capacity
    edge, each inserted at a drawn edge position."""
    n = draw(st.integers(2, 6))
    inst = generate_instance(
        n,
        draw(st.integers(1, 10)),
        max_capacity=draw(st.integers(1, 3)),
        budget_mode=draw(st.sampled_from(["tight", "slack", "zero"])),
        seed=draw(st.integers(0, 10**6)),
    )
    node = st.integers(1, n)
    into_dead = EdgeData(draw(node), n + 1, 2, -3, 1)
    zero_cap = EdgeData(draw(node), draw(node), 0, -5, 0)
    edges = list(inst.edges)
    for e in (into_dead, zero_cap):
        edges.insert(draw(st.integers(0, len(edges))), e)
    return Instance(n + 1, tuple(edges), inst.source, inst.sink, inst.budget)


class TestRestoreFlow:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(padded_instances())
    def test_lifts_back_through_preprocess_and_packing_reduction(self, raw):
        pre = preprocess(raw)
        red = _reduced_for_packing(raw)
        assert pre.edge_count < raw.edge_count and red.edge_count < raw.edge_count
        # each chain ends at an instance whose optimum is lifted back to raw
        for chain in ([raw, pre], [raw, red], [raw, pre, _reduced_for_packing(pre)],
                      [raw, red, preprocess(red)]):
            flow = solve_exact(chain[-1]).flow
            lifted, origin = flow, list(range(chain[-1].edge_count))
            for parent, derived in zip(chain[-2::-1], chain[:0:-1]):
                lifted = restore_flow(parent, derived, lifted)
                origin = [derived.edge_origin[i] for i in origin]
            assert validate_flow(raw, lifted).ok
            assert (lifted.cost, lifted.fee) == (flow.cost, flow.fee)
            assert lifted == Flow.from_values(raw, lifted.values)
            assert [lifted.values[i] for i in origin] == list(flow.values)
            dropped = set(range(raw.edge_count)) - set(origin)
            assert dropped and all(lifted.values[i] == 0 for i in dropped)


class TestFlowTotals:
    def test_int_fraction_and_mixed_values_agree(self, inst_two_hop):
        ints = Flow.from_values(inst_two_hop, [2, 1, 1])
        fractions = Flow.from_values(inst_two_hop, [Fraction(2), Fraction(1), Fraction(1)])
        mixed = Flow.from_values(inst_two_hop, [2, Fraction(2, 2), 1])
        assert ints == fractions == mixed
        for flow in (ints, fractions, mixed):
            assert all(type(v) is Fraction for v in flow.values)
            assert type(flow.cost) is Fraction and type(flow.fee) is Fraction

    def test_float_values_raise(self, inst_two_parallel):
        # a float is not converted in silence, not even an integral one
        for values in ([0.5, 2], [1.0, Fraction(1)]):
            with pytest.raises(TypeError):
                Flow.from_values(inst_two_parallel, values)

    def test_big_int_beside_fraction_is_exact(self, inst_two_parallel):
        big = 2**60 + 1  # beyond a float's 53 bits
        mixed = Flow.from_values(inst_two_parallel, [Fraction(1, 2), big])
        assert mixed.values == (Fraction(1, 2), big)
        assert mixed.cost == -2 - big and mixed.fee == 1
        assert type(mixed.cost) is Fraction and type(mixed.fee) is Fraction

    def test_denominator_divides_every_value(self, inst_two_hop):
        raw, d = [4, 4, 6], 6
        flow = Flow.from_values(inst_two_hop, raw, d)
        assert flow.values == tuple(Fraction(v, d) for v in raw)
        assert flow.cost == Fraction(-4 - 4 - 3 * 6, d) and flow.fee == Fraction(4 + 4 + 6, d)
        assert type(flow.cost) is Fraction and type(flow.fee) is Fraction
        # one Fraction object per distinct value
        assert len({id(v) for v in flow.values}) == len(set(raw))

    def test_fractional_totals_are_exact(self, inst_two_parallel):
        flow = Flow.from_values(inst_two_parallel, [Fraction(1, 3), 2])
        assert flow.cost == Fraction(-4, 3) - 2
        assert flow.fee == Fraction(2, 3)
        assert type(flow.cost) is Fraction and type(flow.fee) is Fraction

    def test_empty_instance_has_zero_totals(self):
        inst = Instance(node_count=2, edges=(), source=1, sink=2, budget=0)
        flow = Flow.from_values(inst, [])
        assert flow == Flow((), Fraction(0), Fraction(0))
        assert type(flow.cost) is Fraction and type(flow.fee) is Fraction

    def test_arity_mismatch_raises(self, inst_two_parallel):
        with pytest.raises(InstanceError):
            Flow.from_values(inst_two_parallel, [1, 2, 0])


class TestValidateFlow:
    def test_valid_flow(self, inst_two_parallel):
        flow = Flow.from_values(inst_two_parallel, [1, 2])
        report = validate_flow(inst_two_parallel, flow)
        assert report.ok
        assert report.cost == -6
        assert report.fee == 2

    def test_zero_flow_always_validates(self):
        for seed in range(40):
            inst = generate_instance(nodes=2 + seed % 5, edges=1 + seed % 9, seed=seed)
            report = validate_flow(inst, Flow.from_values(inst, [0] * inst.edge_count))
            assert report.ok
            assert report.cost == 0
            assert report.fee == 0

    def test_budget_violation(self, inst_two_parallel):
        flow = Flow.from_values(inst_two_parallel, [2, 2])
        report = validate_flow(inst_two_parallel, flow)
        assert not report.ok
        assert report.budget_excess == 2
        assert report.fee == 4

    def test_capacity_and_conservation_violations(self, inst_two_hop):
        flow = Flow.from_values(inst_two_hop, [3, 1, 0])
        report = validate_flow(inst_two_hop, flow)
        assert (0, Fraction(1)) in report.capacity_violations
        assert (2, Fraction(2)) in report.conservation_residuals

    def test_arity_mismatch_raises(self, inst_two_parallel):
        short = Flow((Fraction(1),), Fraction(-4), Fraction(2))
        with pytest.raises(InstanceError):
            validate_flow(inst_two_parallel, short)


class TestMergedEnds:
    def test_sink_becomes_the_source(self):
        # source 2, sink 4: every end at the sink reads 2, others stay
        edges = [(2, 4), (4, 2), (4, 4), (1, 4), (4, 3), (1, 3), (3, 3), (2, 1)]
        inst = Instance(
            node_count=4,
            edges=tuple(EdgeData(t, h, 1, 0, 0) for t, h in edges),
            source=2,
            sink=4,
            budget=0,
        )
        assert merged_ends(inst) == [
            (2, 2), (2, 2), (2, 2), (1, 2), (2, 3), (1, 3), (3, 3), (2, 1)
        ]

    def test_two_nodes_give_only_self_loops(self, inst_two_parallel):
        assert merged_ends(inst_two_parallel) == [(1, 1), (1, 1)]

    def test_no_edges(self):
        inst = Instance(node_count=3, edges=(), source=1, sink=3, budget=0)
        assert merged_ends(inst) == []


class TestSolutionDocument:
    def test_roundtrip_exact_values(self, inst_two_parallel):
        rng = random.Random(5)
        for _ in range(25):
            values = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 17)) for _ in range(2))
            flow = Flow(values, Fraction(rng.randint(-9, 0)), Fraction(rng.randint(0, 9)))
            sol = Solution(
                flow=flow,
                objective=flow.cost,
                algorithm="exact",
                iterations=3,
                lam=Fraction(rng.randint(0, 8), 3),
            )
            doc = parse_solution(format_solution(sol))
            assert doc.values == values
            assert doc.objective == flow.cost
            assert doc.lam == sol.lam
            assert doc.budget_used == flow.fee

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_solution("bcmcf-solution 1\nalgorithm exact\nend\n")
        # negative counts; with no f lines, flows -1 would read as an empty flow
        for counts in ("iterations -5\nflows 0", "flows -1"):
            with pytest.raises(ParseError) as exc:
                parse_solution(f"bcmcf-solution 1\nalgorithm exact\nobjective 0\n{counts}\nend\n")
            assert exc.value.line == 4
            assert exc.value.message == f"malformed {counts.split()[0]} line"

    @pytest.mark.parametrize(
        "line",
        ["algorithm gk", "objective 5", "budget-used 1", "iterations 4", "lambda 1/2", "flows 1"],
        ids=lambda line: line.split()[0],
    )
    def test_repeated_header_line(self, line):
        text = (
            "bcmcf-solution 1\nalgorithm exact\nobjective 0\nbudget-used 0\niterations 1\n"
            f"lambda 0\nflows 1\n{line}\nf 0 1\nend\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_solution(text)
        assert exc.value.line == 8
        assert exc.value.message == f"duplicate {line.split()[0]} line"

    @pytest.mark.parametrize("header", ["bcmcf-solution 99", "bcmcf-solution"], ids=["unknown", "missing"])
    def test_unknown_or_missing_version(self, header):
        text = f"# comment\n{header}\nalgorithm exact\nobjective 0\nflows 0\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_solution(text)
        assert exc.value.line == 2
        assert exc.value.message == "expected 'bcmcf-solution 1'"

    def test_missing_budget_used_reads_none(self):
        doc = parse_solution("bcmcf-solution 1\nalgorithm exact\nobjective 0\nflows 0\nend\n")
        assert doc.budget_used is None

    def test_duplicate_flow_line(self):
        text = "bcmcf-solution 1\nalgorithm exact\nobjective 0\nflows 1\nf 0 1\nf 0 5\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_solution(text)
        assert exc.value.line == 6
        assert "duplicate" in exc.value.message
