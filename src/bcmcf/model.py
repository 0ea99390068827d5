"""Instance model, exact rational flows, validation, and file formats.

A problem instance is a directed multigraph with integer edge capacities,
integer edge costs of arbitrary sign, nonnegative integer per-unit usage
fees, a fee budget, and a distinguished source and sink.  Every quantity
derived from an instance (flow values, costs, fees, multipliers) is kept
as an exact :class:`fractions.Fraction`; nothing in this module rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable


class InstanceError(ValueError):
    """Instance data violates a structural invariant."""


class ParseError(ValueError):
    """A malformed instance or solution file; carries the offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class EdgeData:
    """A directed edge with capacity, per-unit cost, and per-unit usage fee."""

    tail: int
    head: int
    capacity: int
    cost: int
    fee: int

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise InstanceError(f"negative capacity {self.capacity}")
        if self.fee < 0:
            raise InstanceError(f"negative fee {self.fee}")


@dataclass(frozen=True)
class Instance:
    """A budget-constrained min-cost flow instance.

    Nodes are numbered ``1..node_count``.  ``edges`` is an ordered tuple;
    edge order is significant (flows are reported positionally).  Parallel
    edges and self-loops are permitted.  ``return_arc_index`` marks the
    sink-to-source arc of an instance that :func:`circulation_form` closed.
    ``edge_origin`` gives, for each edge of a derived instance, its position
    in the instance it was derived from; :func:`restore_flow` lifts flows
    back along it.
    """

    node_count: int
    edges: tuple[EdgeData, ...]
    source: int
    sink: int
    budget: int
    return_arc_index: int | None = None
    edge_origin: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.node_count < 1:
            raise InstanceError(f"node count {self.node_count} < 1")
        if self.budget < 0:
            raise InstanceError(f"negative budget {self.budget}")
        for name, node in (("source", self.source), ("sink", self.sink)):
            if not 1 <= node <= self.node_count:
                raise InstanceError(f"{name} {node} outside 1..{self.node_count}")
        if self.source == self.sink:
            raise InstanceError("source and sink coincide")
        for i, e in enumerate(self.edges):
            if not (1 <= e.tail <= self.node_count and 1 <= e.head <= self.node_count):
                raise InstanceError(f"edge {i} endpoint outside 1..{self.node_count}")
        if self.edge_origin is not None and len(self.edge_origin) != len(self.edges):
            raise InstanceError("edge_origin length mismatch")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def total_capacity(self) -> int:
        return sum(e.capacity for e in self.edges)


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values with exact cost and fee aggregates."""

    values: tuple[Fraction, ...]
    cost: Fraction
    fee: Fraction

    @classmethod
    def from_values(cls, inst: Instance, values: Iterable[Fraction | int]) -> Flow:
        """A flow with ``values`` on ``inst``'s edges, in edge order.

        The cost and fee totals are summed over the values as given, so an
        int circulation is summed in ints and each total becomes a
        ``Fraction`` once; the stored values are always ``Fraction``.
        """
        raw = tuple(values)
        if len(raw) != inst.edge_count:
            raise InstanceError(
                f"flow has {len(raw)} values for {inst.edge_count} edges"
            )
        edges = inst.edges
        cost = sum(map(mul, map(attrgetter("cost"), edges), raw))
        fee = sum(map(mul, map(attrgetter("fee"), edges), raw))
        if set(map(type, raw)) <= {int}:
            # a circulation repeats 0 and a few capacities: one Fraction each
            as_fraction = {v: Fraction(v) for v in set(raw)}
            values = tuple(map(as_fraction.__getitem__, raw))
        else:
            values = tuple(map(Fraction, raw))
        return cls(values, Fraction(cost), Fraction(fee))


@dataclass(frozen=True)
class Stats:
    """Exact instance magnitudes used to size multiplier grids and caps.

    ``cbar`` bounds the absolute cost of any feasible flow, ``bbar`` its
    total usage fee.
    """

    cbar: int
    bbar: int

    def lambda_above_all_slopes(self) -> Fraction:
        """A multiplier strictly larger than any frontier edge slope."""
        return Fraction(self.cbar * self.bbar + 1)


def instance_stats(inst: Instance) -> Stats:
    return Stats(
        cbar=sum(abs(e.capacity * e.cost) for e in inst.edges),
        bbar=sum(e.capacity * e.fee for e in inst.edges),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Exact findings of a feasibility check; empty findings mean feasible."""

    capacity_violations: tuple[tuple[int, Fraction], ...]
    negative_values: tuple[tuple[int, Fraction], ...]
    conservation_residuals: tuple[tuple[int, Fraction], ...]
    budget_excess: Fraction | None
    cost: Fraction
    fee: Fraction

    @property
    def ok(self) -> bool:
        return (
            not self.capacity_violations
            and not self.negative_values
            and not self.conservation_residuals
            and self.budget_excess is None
        )

    def summary(self) -> str:
        lines = []
        for i, excess in self.negative_values:
            lines.append(f"edge {i}: negative flow {format_fraction(excess)}")
        for i, excess in self.capacity_violations:
            lines.append(f"edge {i}: capacity exceeded by {format_fraction(excess)}")
        for v, residual in self.conservation_residuals:
            lines.append(f"node {v}: conservation residual {format_fraction(residual)}")
        if self.budget_excess is not None:
            lines.append(f"budget exceeded by {format_fraction(self.budget_excess)}")
        status = "feasible" if self.ok else "infeasible"
        lines.append(f"{status} c={format_fraction(self.cost)} b={format_fraction(self.fee)}")
        return "\n".join(lines)


def validate_flow(inst: Instance, flow: Flow) -> ValidationReport:
    """Re-check capacities, conservation, and the budget with exact arithmetic.

    Conservation is required at every node except source and sink; in
    circulation form the closure arcs make those two balance as well, but
    they are still exempted here so the same check applies to both forms.
    """
    if len(flow.values) != inst.edge_count:
        raise InstanceError(
            f"flow has {len(flow.values)} values for {inst.edge_count} edges"
        )
    cap_viol = []
    neg = []
    balance = [Fraction(0)] * (inst.node_count + 1)
    cost = Fraction(0)
    fee = Fraction(0)
    for i, (e, v) in enumerate(zip(inst.edges, flow.values)):
        if v < 0:
            neg.append((i, v))
        if v > e.capacity:
            cap_viol.append((i, v - e.capacity))
        balance[e.head] += v
        balance[e.tail] -= v
        cost += e.cost * v
        fee += e.fee * v
    residuals = [
        (v, balance[v])
        for v in range(1, inst.node_count + 1)
        if v not in (inst.source, inst.sink) and balance[v] != 0
    ]
    excess = fee - inst.budget
    return ValidationReport(
        capacity_violations=tuple(cap_viol),
        negative_values=tuple(neg),
        conservation_residuals=tuple(residuals),
        budget_excess=excess if excess > 0 else None,
        cost=cost,
        fee=fee,
    )


def preprocess(inst: Instance) -> Instance:
    """Drop nodes (other than source/sink) with no incoming or no outgoing edge.

    No flow can pass through such nodes, so removing them and their incident
    edges preserves every feasible flow.  Removal is iterated to a fixed
    point; surviving nodes are renumbered contiguously and each surviving
    edge's position in ``inst`` is recorded as the result's ``edge_origin``.
    """
    alive_nodes = set(range(1, inst.node_count + 1))
    alive_edges = list(range(inst.edge_count))
    while True:
        outdeg = {v: 0 for v in alive_nodes}
        indeg = {v: 0 for v in alive_nodes}
        for i in alive_edges:
            e = inst.edges[i]
            outdeg[e.tail] += 1
            indeg[e.head] += 1
        dead = {
            v
            for v in alive_nodes
            if v not in (inst.source, inst.sink) and (outdeg[v] == 0 or indeg[v] == 0)
        }
        if not dead:
            break
        alive_nodes -= dead
        alive_edges = [
            i
            for i in alive_edges
            if inst.edges[i].tail not in dead and inst.edges[i].head not in dead
        ]

    old_ids = sorted(alive_nodes)
    renum = {old: new for new, old in enumerate(old_ids, start=1)}
    kept = [inst.edges[i] for i in alive_edges]
    edges = tuple(EdgeData(renum[e.tail], renum[e.head], e.capacity, e.cost, e.fee) for e in kept)
    return Instance(
        node_count=len(old_ids),
        edges=edges,
        source=renum[inst.source],
        sink=renum[inst.sink],
        budget=inst.budget,
        edge_origin=tuple(alive_edges),
    )


def restore_flow(parent: Instance, derived: Instance, flow: Flow) -> Flow:
    """Lift a flow on ``derived`` back onto the edges of ``parent``.

    ``derived.edge_origin`` maps each of its edges to a position in
    ``parent``; every other parent edge gets zero flow.  Dropped edges carry
    no flow, so the cost and fee totals carry over unchanged.
    """
    values = [Fraction(0)] * parent.edge_count
    for i, v in zip(derived.edge_origin, flow.values):
        values[i] = v
    return Flow(tuple(values), flow.cost, flow.fee)


def circulation_form(inst: Instance) -> Instance:
    """Close the instance into circulation form for the cycle-based solvers.

    Appends a free source-to-sink closure arc and then the sink-to-source
    return arc.  Conservation never binds at source or sink, so the net
    source-sink value of a feasible flow may take either sign; one
    zero-cost, zero-fee arc per orientation lets a circulation represent
    both.  Both get the total capacity, which neither orientation can
    exceed, so all arithmetic stays integral.
    """
    u = inst.total_capacity()
    closure = EdgeData(inst.source, inst.sink, u, 0, 0), EdgeData(inst.sink, inst.source, u, 0, 0)
    return Instance(
        node_count=inst.node_count,
        edges=inst.edges + closure,
        source=inst.source,
        sink=inst.sink,
        budget=inst.budget,
        return_arc_index=inst.edge_count + 1,
    )


def project_flow(base: Instance, flow: Flow) -> Flow:
    """Restrict a circulation-form flow to the base instance's own edges.

    :func:`circulation_form` appends both closure arcs with zero cost and
    zero fee, so the dropped coordinates contribute nothing to either total
    and the flow's cost and fee carry over without re-summing.
    """
    return Flow(flow.values[: base.edge_count], flow.cost, flow.fee)


# ---------------------------------------------------------------------------
# instance file format
#
#   p bcmcf <nodes> <edges> <budget>
#   n <id> s
#   n <id> t
#   a <tail> <head> <capacity> <cost> <fee>     (one line per edge, in order)
#
# '#' or a bare 'c' token starts a comment line.
# ---------------------------------------------------------------------------


def _int_field(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {token!r}") from None


def parse_instance(text: str) -> Instance:
    header: tuple[int, int, int] | None = None
    source: int | None = None
    sink: int | None = None
    edges: list[EdgeData] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "c":
            continue
        if kind == "p":
            if header is not None:
                raise ParseError(lineno, "duplicate problem line")
            if len(tokens) != 5 or tokens[1] != "bcmcf":
                raise ParseError(lineno, "expected 'p bcmcf <nodes> <edges> <budget>'")
            n = _int_field(tokens[2], "node count", lineno)
            m = _int_field(tokens[3], "edge count", lineno)
            budget = _int_field(tokens[4], "budget", lineno)
            if budget < 0:
                raise ParseError(lineno, f"negative budget {budget}")
            header = (n, m, budget)
        elif kind == "n":
            if header is None:
                raise ParseError(lineno, "node line before problem line")
            if len(tokens) != 3 or tokens[2] not in ("s", "t"):
                raise ParseError(lineno, "expected 'n <id> s' or 'n <id> t'")
            node = _int_field(tokens[1], "node id", lineno)
            if not 1 <= node <= header[0]:
                raise ParseError(lineno, f"unknown node id {node}")
            if tokens[2] == "s":
                if source is not None:
                    raise ParseError(lineno, "duplicate source line")
                source = node
            else:
                if sink is not None:
                    raise ParseError(lineno, "duplicate sink line")
                sink = node
        elif kind == "a":
            if header is None:
                raise ParseError(lineno, "arc line before problem line")
            if len(tokens) != 6:
                raise ParseError(lineno, "expected 'a <tail> <head> <capacity> <cost> <fee>'")
            tail = _int_field(tokens[1], "tail", lineno)
            head = _int_field(tokens[2], "head", lineno)
            capacity = _int_field(tokens[3], "capacity", lineno)
            cost = _int_field(tokens[4], "cost", lineno)
            fee = _int_field(tokens[5], "fee", lineno)
            for name, node in (("tail", tail), ("head", head)):
                if not 1 <= node <= header[0]:
                    raise ParseError(lineno, f"unknown {name} node id {node}")
            if capacity < 0:
                raise ParseError(lineno, f"negative capacity {capacity}")
            if fee < 0:
                raise ParseError(lineno, f"negative fee {fee}")
            edges.append(EdgeData(tail, head, capacity, cost, fee))
        else:
            raise ParseError(lineno, f"unrecognized line kind {kind!r}")

    last = text.count("\n") + 1
    if header is None:
        raise ParseError(last, "missing problem line")
    if source is None:
        raise ParseError(last, "missing source line")
    if sink is None:
        raise ParseError(last, "missing sink line")
    if source == sink:
        raise ParseError(last, "source and sink coincide")
    if len(edges) != header[1]:
        raise ParseError(last, f"expected {header[1]} arcs, found {len(edges)}")
    return Instance(
        node_count=header[0],
        edges=tuple(edges),
        source=source,
        sink=sink,
        budget=header[2],
    )


def serialize_instance(inst: Instance) -> str:
    lines = [f"p bcmcf {inst.node_count} {inst.edge_count} {inst.budget}"]
    lines.append(f"n {inst.source} s")
    lines.append(f"n {inst.sink} t")
    for e in inst.edges:
        lines.append(f"a {e.tail} {e.head} {e.capacity} {e.cost} {e.fee}")
    return "\n".join(lines) + "\n"


def format_fraction(q: Fraction | int) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(token: str) -> Fraction:
    return Fraction(token)


# ---------------------------------------------------------------------------
# solution document: a small line-oriented format that round-trips exactly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """A solver answer: a flow, its exact objective, and run metadata.

    ``iterations`` counts every multiplier probe of the exact solver and
    every loop iteration of the packing solvers.  ``lam`` is the multiplier
    certificate of parametric solvers.
    """

    flow: Flow
    objective: Fraction
    algorithm: str
    iterations: int
    lam: Fraction | None = None


@dataclass(frozen=True)
class SolutionDocument:
    """Parsed form of the solution text format; ``budget_used`` is None
    when the document has no ``budget-used`` line."""

    algorithm: str
    objective: Fraction
    budget_used: Fraction | None
    iterations: int
    lam: Fraction | None
    values: tuple[Fraction, ...]


def format_solution(sol: Solution) -> str:
    obj = sol.objective
    lines = [
        "bcmcf-solution 1",
        f"algorithm {sol.algorithm}",
        f"objective {obj.numerator}/{obj.denominator} {float(obj)!r}",
        f"budget-used {format_fraction(sol.flow.fee)}",
        f"iterations {sol.iterations}",
    ]
    if sol.lam is not None:
        lines.append(f"lambda {format_fraction(sol.lam)}")
    lines.append(f"flows {len(sol.flow.values)}")
    for i, v in enumerate(sol.flow.values):
        lines.append(f"f {i} {format_fraction(v)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# each of these lines may appear at most once in a solution document
_SOLUTION_HEADERS = frozenset(
    ("bcmcf-solution", "algorithm", "objective", "budget-used", "iterations", "lambda", "flows")
)


def parse_solution(text: str) -> SolutionDocument:
    algorithm: str | None = None
    objective: Fraction | None = None
    budget_used: Fraction | None = None
    iterations = 0
    lam: Fraction | None = None
    count: int | None = None
    values: dict[int, Fraction] = {}
    seen_header = False
    seen_kinds: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in _SOLUTION_HEADERS:
            if kind in seen_kinds:
                raise ParseError(lineno, f"duplicate {kind} line")
            seen_kinds.add(kind)
        try:
            if kind == "bcmcf-solution":
                seen_header = True
            elif kind == "algorithm":
                algorithm = tokens[1]
            elif kind == "objective":
                objective = parse_fraction(tokens[1])
            elif kind == "budget-used":
                budget_used = parse_fraction(tokens[1])
            elif kind == "iterations":
                iterations = int(tokens[1])
            elif kind == "lambda":
                lam = parse_fraction(tokens[1])
            elif kind == "flows":
                count = int(tokens[1])
            elif kind == "f":
                index = int(tokens[1])
                if index in values:
                    raise ParseError(lineno, f"duplicate flow line for edge {index}")
                values[index] = parse_fraction(tokens[2])
            elif kind == "end":
                break
            else:
                raise ParseError(lineno, f"unrecognized line kind {kind!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(lineno, f"malformed {kind} line") from None
    last = text.count("\n") + 1
    if not seen_header or algorithm is None or objective is None:
        raise ParseError(last, "incomplete solution document")
    if count is None or set(values) != set(range(count)):
        raise ParseError(last, "flow lines do not match declared count")
    return SolutionDocument(
        algorithm=algorithm,
        objective=objective,
        budget_used=budget_used,
        iterations=iterations,
        lam=lam,
        values=tuple(values[i] for i in range(count)),
    )
