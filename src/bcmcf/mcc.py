"""Exact minimum-cost circulation by negative-cycle canceling.

Costs, capacities and labels are plain Python ints.  :func:`lambda_cost`
packs a multiplier's scaled cost and a fee tie-break into one int per edge,
so a single solve returns, among all minimum-cost circulations, the one
with the smallest or largest total usage fee.  A solve starts from any
integral circulation, so a caller can warm-start it from the optimum of a
nearby solve.  With integral capacities the returned circulation is
integral.  :func:`find_negative_cycle` is the package's one negative-cycle
detector: this lane calls it with int costs, the approximation lane's cycle
oracle with float lengths.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, le, neg, sub
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


def _interleave(forward: list[int], backward: list[int]) -> list[int]:
    """One list holding ``forward[i]`` at 2i and ``backward[i]`` at 2i+1."""
    out = forward + backward
    out[0::2], out[1::2] = forward, backward
    return out


class ResidualGraph:
    """Residual arcs of a circulation: arc 2i runs edge i forward at cost
    +cost_i, arc 2i+1 backward at -cost_i.  Capacities are kept current as
    cycles are applied.  An initial ``flow`` must be an integral circulation
    within the capacity bounds, else ``ValueError``."""

    def __init__(
        self,
        inst: Instance,
        costs: Sequence[int],
        flow: Sequence[Fraction | int] | None = None,
    ) -> None:
        if len(costs) != inst.edge_count:
            raise ValueError("one cost per edge required")
        edges = inst.edges
        tails = list(map(attrgetter("tail"), edges))
        heads = list(map(attrgetter("head"), edges))
        caps = list(map(attrgetter("capacity"), edges))
        if flow is None:
            x = [0] * len(edges)
        else:
            # int and Fraction both carry numerator and denominator, so an
            # integral value is read as an int without an int() round trip
            if any(map((1).__ne__, map(attrgetter("denominator"), flow))):
                raise ValueError("initial flow is not integral")
            x = list(map(attrgetter("numerator"), flow))
            if len(x) != len(edges):
                raise ValueError("one initial flow value per edge required")
            if min(x, default=0) < 0 or not all(map(le, x, caps)):
                raise ValueError("initial flow is not within capacity bounds")
            imbalance = [0] * (inst.node_count + 1)
            for t, h, v in zip(tails, heads, x):
                imbalance[t] -= v
                imbalance[h] += v
            if any(imbalance):
                raise ValueError("initial flow breaks conservation: not a circulation")
        self.node_count = inst.node_count
        self.tails = _interleave(tails, heads)
        self.heads = _interleave(heads, tails)
        self.costs = _interleave(list(costs), list(map(neg, costs)))
        self.caps = _interleave(list(map(sub, caps, x)), x)

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
        return self.caps[1::2]


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


def min_cost_circulation(
    inst: Instance, costs: Sequence[int], start: Sequence[Fraction | int] | None = None
) -> Flow:
    """Minimum cost circulation under int edge costs, by negative-cycle canceling.

    Starts at the circulation ``start`` (integral values, one per edge; the
    zero circulation when omitted) and saturates the first negative residual
    cycle Bellman-Ford finds until none remains, which certifies optimality.
    A start that breaks a capacity bound or flow conservation raises
    ``ValueError``: canceling keeps every node's imbalance, so it could not
    repair one.  Every cancel pushes an integral amount >= 1 around a cycle
    of cost <= -1, so the objective, which starts at ``w . start`` and never
    drops below ``-sum(u_e * |w_e|)``, falls by at least 1 each time: more
    cancels than ``w . start + sum(u_e * |w_e|)``, at most twice that sum,
    means a solver bug and raises :class:`InternalSolverError`.
    """
    rg = ResidualGraph(inst, costs, start)
    bound = sum(e.capacity * abs(w) for e, w in zip(inst.edges, costs))
    cap = sum(w * v for w, v in zip(costs, rg.flow_values())) + bound + 1
    for _ in range(cap):
        cycle = find_negative_cycle(rg.node_count, rg.arcs(), rg.costs)
        if cycle is None:
            break
        rg.apply_cycle(cycle)
    else:
        raise InternalSolverError("negative-cycle canceling exceeded its iteration cap")
    return Flow.from_values(inst, rg.flow_values())
