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
from bcmcf.model import format_fraction, merged_ends, restore_flow

from reference_oracles import reference_preprocess

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

# the first three lines of a one-arc instance on nodes 1 and 2
HEAD = "p bcmcf 2 1 0\nn 1 s\nn 2 t\n"


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

    def test_comment_forms_blank_and_indented_lines(self, inst_two_parallel):
        lines = I1_TEXT.splitlines()
        text = "#x\nc\n\n   \n\t# indented\n  c bare c token\n" + "\n".join(
            f"  {line}\t" if i % 2 else f"{line}\n#a 1 2 3 4 5" for i, line in enumerate(lines)
        )
        assert parse_instance(text) == inst_two_parallel

    @pytest.mark.parametrize(
        ("text", "line", "message"),
        [
            # a non-integer field, each of the five; the first bad field is named
            (HEAD + "a x 2 1 0 0\n", 4, "tail is not an integer: 'x'"),
            (HEAD + "a 1 2.0 1 0 0\n", 4, "head is not an integer: '2.0'"),
            (HEAD + "a 1 2 x 0 0\n", 4, "capacity is not an integer: 'x'"),
            (HEAD + "a 1 2 1 1/2 0\n", 4, "cost is not an integer: '1/2'"),
            (HEAD + "a 1 2 1 0 e\n", 4, "fee is not an integer: 'e'"),
            (HEAD + "a 1 2 u c 0\n", 4, "capacity is not an integer: 'u'"),
            (HEAD + "a 1 2 1 c f\n", 4, "cost is not an integer: 'c'"),
            # node range: tail and head alike, the tail named when both are bad
            (HEAD + "a 0 2 1 0 0\n", 4, "unknown tail node id 0"),
            (HEAD + "a 1 9 1 0 0\n", 4, "unknown head node id 9"),
            (HEAD + "a 3 -1 1 0 0\n", 4, "unknown tail node id 3"),
            # signs: the capacity named when both are negative
            (HEAD + "a 1 2 -1 0 0\n", 4, "negative capacity -1"),
            (HEAD + "a 1 2 1 0 -2\n", 4, "negative fee -2"),
            (HEAD + "a 1 2 -3 0 -2\n", 4, "negative capacity -3"),
            # range before sign
            (HEAD + "a 1 9 -1 0 0\n", 4, "unknown head node id 9"),
            (HEAD + "a 1 2 1 0\n", 4, "expected 'a <tail> <head> <capacity> <cost> <fee>'"),
            (HEAD + "a 1 2 1 0 0 0\n", 4, "expected 'a <tail> <head> <capacity> <cost> <fee>'"),
            ("a 1 2 1 0 0\np bcmcf 2 1 0\n", 1, "arc line before problem line"),
            ("# c\nn 1 s\np bcmcf 2 1 0\n", 2, "node line before problem line"),
            (HEAD + "x 1 2\n", 4, "unrecognized line kind 'x'"),
            (HEAD + "p bcmcf 2 1 0\n", 4, "duplicate problem line"),
            (HEAD + "n 2 s\n", 4, "duplicate source line"),
            (HEAD + "n 1 t\n", 4, "duplicate sink line"),
            ("p bcmcf 2 1\n", 1, "expected 'p bcmcf <nodes> <edges> <budget>'"),
            ("p dimacs 2 1 0\n", 1, "expected 'p bcmcf <nodes> <edges> <budget>'"),
            ("p bcmcf two 1 0\n", 1, "node count is not an integer: 'two'"),
            ("p bcmcf 2 one 0\n", 1, "edge count is not an integer: 'one'"),
            ("p bcmcf 2 1 b\n", 1, "budget is not an integer: 'b'"),
            ("p bcmcf 2 1 -1\n", 1, "negative budget -1"),
            ("p bcmcf 2 1 0\nn 1 x\n", 2, "expected 'n <id> s' or 'n <id> t'"),
            ("p bcmcf 2 1 0\nn 1\n", 2, "expected 'n <id> s' or 'n <id> t'"),
            ("p bcmcf 2 1 0\nn one s\n", 2, "node id is not an integer: 'one'"),
            ("p bcmcf 2 1 0\nn 3 s\n", 2, "unknown node id 3"),
            ("p bcmcf 2 1 0\nn 0 t\n", 2, "unknown node id 0"),
            # end of file: the line after the last newline
            ("", 1, "missing problem line"),
            ("# only a comment\n", 2, "missing problem line"),
            ("p bcmcf 2 0 0\nn 2 t\n", 3, "missing source line"),
            ("p bcmcf 2 0 0\nn 1 s", 2, "missing sink line"),
            ("p bcmcf 2 0 0\nn 1 s\nn 1 t\n", 4, "source and sink coincide"),
            (HEAD, 4, "expected 1 arcs, found 0"),
            (HEAD + "a 1 2 1 0 0\na 2 1 1 0 0\n\n", 7, "expected 1 arcs, found 2"),
        ],
    )
    def test_error_table(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.message) == (line, message)
        assert str(err.value) == f"line {line}: {message}"

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

    @pytest.mark.parametrize(
        ("bad_head", "bad_tail"),
        [(4, 0), (0, 4), (4, -1)],
        ids=["head-4-tail-0", "head-0-tail-4", "head-4-tail--1"],
    )
    def test_endpoint_message_names_the_first_bad_edge(self, bad_head, bad_tail):
        # edge 1 has a bad head and edge 3 a bad tail, so a scan of every
        # tail before any head would name edge 3
        edges = [EdgeData(1, 2, 1, 0, 0) for _ in range(5)]
        edges[1] = EdgeData(2, bad_head, 1, 0, 0)
        edges[3] = EdgeData(bad_tail, 3, 1, 0, 0)
        with pytest.raises(InstanceError) as err:
            Instance(node_count=3, edges=tuple(edges), source=1, sink=3, budget=0)
        assert str(err.value) == "edge 1 endpoint outside 1..3"

    @pytest.mark.parametrize(("tail", "head"), [(0, 2), (2, 4), (4, 1), (1, 0)])
    def test_endpoint_message_on_one_bad_edge(self, tail, head):
        edges = (EdgeData(1, 2, 1, 0, 0), EdgeData(tail, head, 1, 0, 0))
        with pytest.raises(InstanceError) as err:
            Instance(node_count=3, edges=edges, source=1, sink=3, budget=0)
        assert str(err.value) == "edge 1 endpoint outside 1..3"

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


@st.composite
def small_digraphs(draw) -> Instance:
    """Instances on up to 7 nodes whose drawn edges leave chains of dead
    nodes, self-loops and parallel edges as they fall."""
    n = draw(st.integers(2, 7))
    node = st.integers(1, n)
    source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    edge = st.builds(EdgeData, node, node, st.integers(0, 3), st.integers(-3, 3), st.integers(0, 2))
    edges = draw(st.lists(edge, max_size=12))
    return Instance(n, tuple(edges), source, sink, draw(st.integers(0, 4)))


def assert_preprocess_matches_reference(inst: Instance) -> None:
    result, expected = preprocess(inst), reference_preprocess(inst)
    assert result == expected
    assert result.edge_origin == expected.edge_origin


class TestPreprocess:
    def test_no_dead_nodes_is_identity(self, inst_two_parallel):
        assert preprocess(inst_two_parallel) == inst_two_parallel

    def test_no_dead_nodes_keeps_the_edge_objects(self):
        inst = generate_instance(8, 40, seed=2)
        result = preprocess(inst)
        assert result.node_count == inst.node_count
        assert all(kept is e for kept, e in zip(result.edges, inst.edges, strict=True))
        assert result.edge_origin == tuple(range(inst.edge_count))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(small_digraphs())
    def test_matches_reference(self, inst):
        assert_preprocess_matches_reference(inst)

    def test_matches_reference_where_removal_iterates(self):
        # 5 -> 4 -> 3 -> 2 is a chain into a node with no way out, so each
        # round removes one more of it; a loop gives its node an edge in and
        # one out, so 6, with only a loop, and 7, with a loop and an edge
        # out, stay
        inst = Instance(
            node_count=8,
            edges=(
                EdgeData(1, 5, 1, -1, 0), EdgeData(5, 4, 1, -1, 1), EdgeData(4, 3, 2, 0, 0),
                EdgeData(3, 2, 1, 2, 1), EdgeData(1, 8, 3, -2, 1), EdgeData(6, 6, 1, -1, 0),
                EdgeData(7, 7, 1, -1, 0), EdgeData(7, 8, 1, 0, 0),
            ),
            source=1,
            sink=8,
            budget=1,
        )
        assert_preprocess_matches_reference(inst)
        assert preprocess(inst).edge_origin == (4, 5, 6, 7)
        for seed in range(40):
            raw = generate_instance(3 + seed % 9, 2 + seed % 13, seed=seed)
            assert_preprocess_matches_reference(raw)

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

        # every value renders as Fraction's own form: an int where the
        # denominator is 1, else numerator/denominator with the sign on top
        values = (0, -4, Fraction(-3, 2), 10**400, Fraction(-(10**400), 3), Fraction(7, 1))
        flow = Flow(tuple(map(Fraction, values)), Fraction(-3, 2), Fraction(0))
        text = format_solution(Solution(flow, Fraction(-3, 2), "exact", 0, Fraction(10**400)))
        expected = [f"f {i} {Fraction(v)}" for i, v in enumerate(values)]
        assert text.splitlines()[-7:-1] == expected
        assert expected[2] == "f 2 -3/2" and expected[3] == f"f 3 {10**400}"
        assert text.splitlines()[1:6] == [
            "algorithm exact", "objective -3/2", "budget-used 0", "iterations 0",
            f"lambda {10**400}",
        ]
        assert parse_solution(text).values == tuple(map(Fraction, values))

    @pytest.mark.parametrize("q", [0, 1, -4, 10**400, -(10**400), True])
    def test_format_fraction_takes_an_int(self, q):
        assert format_fraction(q) == str(int(q))
        assert format_fraction(Fraction(q)) == str(int(q))

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
