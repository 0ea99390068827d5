"""Brute-force ground truth: integral flow enumeration, exact optimum, frontier.

Everything here is exponential by design and guarded to desk scale.  The
solvers never call into this module; it exists so tests and the ``oracle``
CLI command have an independent answer to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .frontier import FrontierPoint, attach_lambda_intervals
from .model import Flow, Instance, Solution, zero_flow

DEFAULT_GUARD = 10**7


class EnumerationGuardError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _check_guard(inst: Instance, guard: int) -> None:
    size = 1
    for e in inst.edges:
        size *= e.capacity + 1
        if size > guard:
            raise EnumerationGuardError(
                f"assignment space exceeds guard {guard}; refusing to enumerate"
            )


def iter_integral_values(inst: Instance, guard: int = DEFAULT_GUARD) -> Iterator[tuple[int, ...]]:
    """Yield every integral edge assignment satisfying capacity and conservation.

    Conservation is enforced at all nodes except source and sink; on an
    instance that ``circulation_form`` closed (``return_arc_index`` set) it
    is enforced everywhere.  Partial assignments are pruned as soon as some
    node's balance can no longer be repaired by its unassigned edges.
    """
    _check_guard(inst, guard)
    n, m = inst.node_count, inst.edge_count
    conserved = [v not in (inst.source, inst.sink) for v in range(n + 1)]
    if inst.return_arc_index is not None:
        conserved = [True] * (n + 1)
    conserved[0] = False

    # per-node remaining correction capacity over edges not yet assigned
    rem_in = [0] * (n + 1)
    rem_out = [0] * (n + 1)
    for e in inst.edges:
        rem_in[e.head] += e.capacity
        rem_out[e.tail] += e.capacity

    balance = [0] * (n + 1)
    assignment = [0] * m

    def feasible_so_far() -> bool:
        for v in range(1, n + 1):
            if not conserved[v]:
                continue
            bal = balance[v]
            if bal > 0 and bal > rem_out[v]:
                return False
            if bal < 0 and -bal > rem_in[v]:
                return False
        return True

    def assign(i: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            if all(balance[v] == 0 for v in range(1, n + 1) if conserved[v]):
                yield tuple(assignment)
            return
        e = inst.edges[i]
        rem_in[e.head] -= e.capacity
        rem_out[e.tail] -= e.capacity
        for x in range(e.capacity + 1):
            assignment[i] = x
            balance[e.head] += x
            balance[e.tail] -= x
            if feasible_so_far():
                yield from assign(i + 1)
            balance[e.head] -= x
            balance[e.tail] += x
        assignment[i] = 0
        rem_in[e.head] += e.capacity
        rem_out[e.tail] += e.capacity

    yield from assign(0)


def enumerate_integral_flows(inst: Instance, guard: int = DEFAULT_GUARD) -> list[Flow]:
    return [Flow.from_values(inst, vals) for vals in iter_integral_values(inst, guard)]


@dataclass(frozen=True)
class PointCloud:
    """De-duplicated (cost, fee) pairs of integral flows, with one witness each."""

    points: tuple[tuple[int, int], ...]
    witnesses: tuple[tuple[int, ...], ...]


def build_point_cloud(inst: Instance, guard: int = DEFAULT_GUARD) -> PointCloud:
    """Collect achievable (cost, fee) pairs, keeping only the cheapest per fee.

    A dominated point (same fee, higher cost) can never appear in an optimum
    or on the frontier, so dropping it early keeps the pair scans small.
    """
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for vals in iter_integral_values(inst, guard):
        cost = sum(e.cost * x for e, x in zip(inst.edges, vals))
        fee = sum(e.fee * x for e, x in zip(inst.edges, vals))
        cur = best.get(fee)
        if cur is None or cost < cur[0]:
            best[fee] = (cost, vals)
    fees = sorted(best)
    points = tuple((best[f][0], f) for f in fees)
    witnesses = tuple(best[f][1] for f in fees)
    return PointCloud(points, witnesses)


def oracle_optimum(inst: Instance, guard: int = DEFAULT_GUARD) -> Solution:
    """Exact optimum by exhaustive pair scan over the integral point cloud.

    The flow polytope without the budget row has integral vertices, so the
    optimum with the one extra budget constraint lies on a segment between
    two integral flows; scanning all point pairs whose fees bracket the
    budget (plus all single feasible points) finds it exactly.
    """
    cloud = build_point_cloud(inst, guard)
    budget = inst.budget
    best_cost: Fraction | None = None
    best_flow: Flow | None = None

    for (cost, fee), vals in zip(cloud.points, cloud.witnesses):
        if fee <= budget and (best_cost is None or Fraction(cost) < best_cost):
            best_cost = Fraction(cost)
            best_flow = Flow.from_values(inst, vals)

    pts = cloud.points
    for i, (c1, b1) in enumerate(pts):
        if b1 > budget:
            continue
        for j, (c2, b2) in enumerate(pts):
            if b2 <= budget or c2 >= c1:
                continue
            # interpolate to fee == budget on the segment (c1,b1)-(c2,b2)
            t = Fraction(budget - b1, b2 - b1)
            cost = c1 + t * (c2 - c1)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                w1 = Flow.from_values(inst, cloud.witnesses[i])
                w2 = Flow.from_values(inst, cloud.witnesses[j])
                best_flow = Flow(
                    tuple((1 - t) * a + t * b for a, b in zip(w1.values, w2.values)),
                    cost,
                    Fraction(budget),
                )

    if best_flow is None:
        best_flow = zero_flow(inst)
        best_cost = Fraction(0)
    assert best_cost is not None
    return Solution(
        flow=best_flow,
        objective=best_cost,
        algorithm="oracle",
        iterations=len(pts),
    )


def lower_left_hull(points: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the extreme points of the lower-left hull, by increasing fee.

    ``points`` must hold the cheapest cost per fee level, sorted by fee.
    Keeps only points where the hull turns strictly, and stops at the global
    cost minimum (anything beyond has higher fee for no cost gain).
    """
    if not points:
        return []
    # truncate at the first global cost minimum
    min_cost = min(c for c, _ in points)
    end = next(i for i, (c, _) in enumerate(points) if c == min_cost)
    hull: list[int] = []
    for i in range(end + 1):
        c, b = points[i]
        if hull and points[hull[-1]][0] <= c:
            continue  # dominated: no cost improvement for more fee
        while len(hull) >= 2:
            c0, b0 = points[hull[-2]]
            c1, b1 = points[hull[-1]]
            # drop hull[-1] if it is on or above segment hull[-2] -> (c, b)
            if (c1 - c0) * (b - b0) - (c - c0) * (b1 - b0) >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def oracle_frontier(inst: Instance, guard: int = DEFAULT_GUARD) -> list[FrontierPoint]:
    """Exact Pareto frontier extreme points, cheapest-cost-first per fee."""
    cloud = build_point_cloud(inst, guard)
    hull = lower_left_hull(cloud.points)
    points = [
        FrontierPoint(
            cost=Fraction(cloud.points[i][0]),
            fee=Fraction(cloud.points[i][1]),
            witness=Flow.from_values(inst, cloud.witnesses[i]),
            lambda_low=Fraction(0),
            lambda_high=None,
        )
        for i in hull
    ]
    return attach_lambda_intervals(points)


# ---------------------------------------------------------------------------
# exhaustive minimum-ratio searches, used to audit the approximation oracles
# ---------------------------------------------------------------------------


def iter_simple_cycles(inst: Instance) -> Iterator[tuple[int, ...]]:
    """Yield each directed simple cycle once, as a tuple of edge indices.

    A cycle is identified by its minimum edge index, which fixes both the
    starting edge and the orientation; self-loops are one-edge cycles.
    """
    out_edges: list[list[int]] = [[] for _ in range(inst.node_count + 1)]
    for i, e in enumerate(inst.edges):
        out_edges[e.tail].append(i)

    for start in range(inst.edge_count):
        first = inst.edges[start]
        anchor = first.tail
        if first.head == anchor:
            yield (start,)
            continue
        path = [start]
        seen = {anchor, first.head}

        def extend(node: int) -> Iterator[tuple[int, ...]]:
            for j in out_edges[node]:
                if j <= start:
                    continue
                head = inst.edges[j].head
                if head == anchor:
                    yield tuple(path + [j])
                elif head not in seen:
                    path.append(j)
                    seen.add(head)
                    yield from extend(head)
                    seen.discard(head)
                    path.pop()

        yield from extend(first.head)


def exhaustive_min_ratio_cycle(
    inst: Instance, num: Sequence, den: Sequence
) -> tuple[tuple[int, ...], Fraction] | None:
    """Minimum of num(C)/den(C) over simple cycles with den(C) > 0, exactly."""
    best: tuple[tuple[int, ...], Fraction] | None = None
    for cycle in iter_simple_cycles(inst):
        d = sum(Fraction(den[i]) for i in cycle)
        if d <= 0:
            continue
        ratio = sum(Fraction(num[i]) for i in cycle) / d
        if best is None or ratio < best[1]:
            best = (cycle, ratio)
    return best


def iter_source_sink_paths(
    inst: Instance, source: int | None = None, sink: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every simple path between two nodes as a tuple of edge indices."""
    source = inst.source if source is None else source
    sink = inst.sink if sink is None else sink
    out_edges: list[list[int]] = [[] for _ in range(inst.node_count + 1)]
    for i, e in enumerate(inst.edges):
        out_edges[e.tail].append(i)
    path: list[int] = []
    seen = {source}

    def extend(node: int) -> Iterator[tuple[int, ...]]:
        if node == sink:
            yield tuple(path)
            return
        for j in out_edges[node]:
            head = inst.edges[j].head
            if head in seen:
                continue
            path.append(j)
            seen.add(head)
            yield from extend(head)
            seen.discard(head)
            path.pop()

    yield from extend(source)


def exhaustive_min_ratio_path(
    inst: Instance,
    num: Sequence,
    den: Sequence,
    source: int | None = None,
    sink: int | None = None,
) -> tuple[tuple[int, ...], Fraction] | None:
    """Minimum of num(P)/den(P) over source-sink paths with den(P) > 0."""
    best: tuple[tuple[int, ...], Fraction] | None = None
    for p in iter_source_sink_paths(inst, source, sink):
        d = sum(Fraction(den[i]) for i in p)
        if d <= 0:
            continue
        ratio = sum(Fraction(num[i]) for i in p) / d
        if best is None or ratio < best[1]:
            best = (p, ratio)
    return best
