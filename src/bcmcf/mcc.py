"""Exact minimum-cost circulation by negative-cycle canceling.

Costs, capacities and labels are plain Python ints.  :func:`lambda_cost`
packs a multiplier's scaled cost and a fee tie-break into one int per edge,
so a single solve returns, among all minimum-cost circulations, the one
with the smallest or largest total usage fee.  With integral capacities the
returned circulation is integral.  :func:`find_negative_cycle` is the
package's one negative-cycle detector: this lane calls it with int costs,
the approximation lane's cycle oracle with float lengths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import Flow, Instance


class InternalSolverError(RuntimeError):
    """A defensive iteration cap fired; indicates a solver bug, not bad input."""


def lambda_cost(inst: Instance, lam: Fraction, fee_direction: str) -> list[int]:
    """Edge costs ``cost + lam * fee`` with the fee as tie-break, packed into ints.

    ``fee_direction`` "min" prefers the smallest total fee among primary
    optima, "max" the largest.  The closure arcs of ``circulation_form``,
    having zero cost and fee, get 0.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"multiplier {lam} is negative")
    if fee_direction not in ("min", "max"):
        raise ValueError(f"fee_direction must be 'min' or 'max', got {fee_direction!r}")
    p, q = lam.numerator, lam.denominator
    sign = 1 if fee_direction == "min" else -1
    # For lam = p/q edge e costs (q*c_e + p*b_e)*K + sign*b_e with K > sum(b).
    # A simple residual cycle holds at most one of the two arcs of each edge,
    # so its fee term is below K in absolute value; the only exception, an
    # edge's forward arc with its own backward arc, sums to 0.  A cycle's
    # packed sign is therefore its lexicographic (primary, fee) sign.
    k = sum(e.fee for e in inst.edges) + 1
    return [(q * e.cost + p * e.fee) * k + sign * e.fee for e in inst.edges]


class ResidualGraph:
    """Residual arcs of a circulation: arc 2i runs edge i forward at cost
    +cost_i, arc 2i+1 backward at -cost_i.  Capacities are kept current as
    cycles are applied."""

    def __init__(
        self,
        inst: Instance,
        costs: Sequence[int],
        flow: Sequence[Fraction | int] | None = None,
    ) -> None:
        if len(costs) != inst.edge_count:
            raise ValueError("one cost per edge required")
        x = flow if flow is not None else [0] * inst.edge_count
        self.inst = inst
        self.node_count = inst.node_count
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.costs: list[int] = []
        self.caps: list[int] = []
        for e, c, v in zip(inst.edges, costs, x):
            xv = int(v)
            if xv != v or not 0 <= xv <= e.capacity:
                raise ValueError("initial flow is not integral within capacity bounds")
            self.tails.append(e.tail)
            self.heads.append(e.head)
            self.costs.append(c)
            self.caps.append(e.capacity - xv)
            self.tails.append(e.head)
            self.heads.append(e.tail)
            self.costs.append(-c)
            self.caps.append(xv)

    def apply_cycle(self, cycle: Sequence[int]) -> int:
        """Saturate the cycle: push its bottleneck residual capacity around it."""
        amount = min(self.caps[a] for a in cycle)
        if amount <= 0:
            raise ValueError("cycle has no residual capacity")
        for a in cycle:
            self.caps[a] -= amount
            self.caps[a ^ 1] += amount
        return amount

    def arcs(self) -> list[tuple[int, int, int]]:
        """Arcs with positive residual capacity, as (tail, head, arc) in index order."""
        tails, heads = self.tails, self.heads
        return [(tails[a], heads[a], a) for a, cap in enumerate(self.caps) if cap > 0]

    def flow_values(self) -> list[int]:
        # backward residual capacity of edge i is exactly its flow
        return [self.caps[2 * i + 1] for i in range(self.inst.edge_count)]


def find_negative_cycle(
    node_count: int,
    arcs: Sequence[tuple[int, int, int]],
    weights: Sequence[int] | Sequence[float],
) -> list[int] | None:
    """A simple cycle of strictly negative total weight, as arc ids, or None.

    The package's one negative-cycle detector.  ``arcs`` holds static
    ``(tail, head, arc_id)`` triples over nodes 1..node_count and
    ``weights[arc_id]`` is an int (the exact lane's packed costs) or a
    float (the approximation lane's parametric lengths).  Bellman-Ford label
    correction from an implicit super-source: all labels start at zero and
    every pass scans ``arcs`` in the given order, so the result is a
    deterministic function of the input.  Returns None only after a full
    pass without relaxation.

    Otherwise one predecessor walk extracts the cycle.  A relaxation in pass
    k comes from a tail relaxed in pass k or k-1, so the last node relaxed
    in pass n has a predecessor chain of at least n arcs, and n steps back
    from it lie on a cycle of the predecessor graph.  A walk that reaches a
    root, does not close within n arcs, or closes on a cycle that is not
    negative raises InternalSolverError.
    """
    n = node_count
    # labels take the weights' type: int labels under float weights would
    # send every addition and comparison through CPython's mixed-type path
    zero = type(weights[arcs[0][2]])() if arcs else 0
    dist = [zero] * (n + 1)
    pred = [-1] * (n + 1)
    for _ in range(n):
        improved = -1
        for u, v, a in arcs:
            cand = dist[u] + weights[a]
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = a
                improved = v
        if improved < 0:
            return None
    tail_of = {a: u for u, _, a in arcs}
    v = improved
    for _ in range(n):
        if pred[v] < 0:
            raise InternalSolverError("negative-cycle walk reached a root before a cycle")
        v = tail_of[pred[v]]
    cycle_rev = []
    node = v
    for _ in range(n):
        a = pred[node]
        if a < 0:
            raise InternalSolverError("negative-cycle walk reached a root before a cycle")
        cycle_rev.append(a)
        node = tail_of[a]
        if node == v:
            break
    else:
        raise InternalSolverError("negative-cycle walk did not close within n arcs")
    cycle = cycle_rev[::-1]
    if not sum(weights[a] for a in cycle) < 0:
        raise InternalSolverError("extracted predecessor cycle is not negative")
    return cycle


def min_cost_circulation(inst: Instance, costs: Sequence[int]) -> Flow:
    """Minimum cost circulation under int edge costs, by negative-cycle canceling.

    Starts at the zero circulation and saturates the first negative residual
    cycle Bellman-Ford finds until none remains, which certifies optimality.
    Every cancel pushes an integral amount >= 1 around a cycle of cost <= -1,
    so the objective, which starts at 0 and never drops below
    ``-sum(u_e * |w_e|)``, falls by at least 1 each time: more cancels than
    that sum means a solver bug and raises :class:`InternalSolverError`.
    """
    rg = ResidualGraph(inst, costs)
    cap = sum(e.capacity * abs(w) for e, w in zip(inst.edges, costs)) + 1
    for _ in range(cap):
        cycle = find_negative_cycle(rg.node_count, rg.arcs(), rg.costs)
        if cycle is None:
            break
        rg.apply_cycle(cycle)
    else:
        raise InternalSolverError("negative-cycle canceling exceeded its iteration cap")
    return Flow.from_values(inst, rg.flow_values())
