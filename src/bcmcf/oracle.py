"""Brute-force ground truth: integral flow enumeration and the exact optimum.

Everything here is exponential by design and guarded to desk scale.  The
solvers never call into this module; it gives the ``oracle`` CLI command
and the reference checks an answer independent of every solver.  Like the
solvers it hands its answer to ``Flow.from_values`` as int numerators over
one int denominator, but it interpolates the objective itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import Flow, Instance, Solution

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

    Conservation is enforced at all nodes except source and sink, as in
    every solver.  Partial assignments are pruned as soon as some node's
    balance can no longer be repaired by its unassigned edges.
    """
    _check_guard(inst, guard)
    n, m = inst.node_count, inst.edge_count
    conserved = [v not in (0, inst.source, inst.sink) for v in range(n + 1)]

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
    budget (plus all single feasible points) finds it exactly.  The all-zero
    flow is one of those points, with fee 0, so some point is feasible.
    """
    cloud = build_point_cloud(inst, guard)
    budget = inst.budget
    pts = cloud.points
    # the cheapest feasible point, the one of least fee among ties
    first = min((i for i, (_, fee) in enumerate(pts) if fee <= budget), key=lambda i: pts[i][0])
    best_cost = Fraction(pts[first][0])
    best = first, first, 1, 0  # the answer (a * x_i + b * x_j) / (a + b), as i, j, a, b

    for i, (c1, b1) in enumerate(pts):
        if b1 > budget:
            continue
        for j, (c2, b2) in enumerate(pts):
            if b2 <= budget or c2 >= c1:
                continue
            # interpolate to fee == budget on the segment (c1,b1)-(c2,b2)
            a, b = b2 - budget, budget - b1
            cost = Fraction(a * c1 + b * c2, b2 - b1)
            if cost < best_cost:
                best_cost, best = cost, (i, j, a, b)

    i, j, a, b = best
    pairs = zip(cloud.witnesses[i], cloud.witnesses[j])
    flow = Flow.from_values(inst, [a * p + b * q for p, q in pairs], a + b)
    return Solution(flow=flow, objective=best_cost, algorithm="oracle", iterations=len(pts))
