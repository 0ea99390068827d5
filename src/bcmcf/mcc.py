"""Exact minimum-cost circulation by a primal network simplex.

Costs, capacities, flows and potentials are plain Python ints.
:func:`lambda_cost` packs a multiplier's scaled cost and a fee tie-break
into one int per edge, so a single solve returns, among all minimum-cost
circulations, the one with the smallest or largest total usage fee.  A
:class:`Basis` is the simplex's spanning tree over one closed instance;
between the solves on that instance only the costs change, so the last
optimal tree is primal feasible for the next solve and is its warm start.
With integral capacities the returned circulation is integral.
:func:`find_negative_cycle` is the package's one negative-cycle detector,
called by the approximation lane's cycle oracle with float lengths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import attrgetter, le, mul
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
    fees = list(map(attrgetter("fee"), inst.edges))
    k = sum(fees) + 1
    return [(q * c + p * b) * k + sign * b for c, b in zip(map(attrgetter("cost"), inst.edges), fees)]


class Basis:
    """A strongly feasible spanning-tree basis of one closed instance.

    Node 0 is the root.  Edge i of the instance is arc i; arc m + v - 1 is
    an artificial arc v -> root with cost 0 and a capacity no flow can
    reach.  The root has no outgoing arc, so no circulation puts flow on an
    artificial arc, and the all-artificial start tree, holding the zero
    circulation, is strongly feasible: every node can send flow to the root
    along its tree path.  Every nonbasic arc sits at one of its bounds,
    ``state`` +1 at 0 and -1 at capacity; basic arcs and arcs of capacity 0,
    which can carry no flow, have state 0 and are never priced.  Between
    solves only the costs change, so the optimal tree a solve leaves is
    primal feasible and the next solve's start.  ``pivots`` counts the
    pivots of all its solves.
    """

    def __init__(self, inst: Instance) -> None:
        n, m = inst.node_count, inst.edge_count
        caps = [e.capacity for e in inst.edges]
        self.inst = inst
        self.tails = [e.tail for e in inst.edges] + list(range(1, n + 1))
        self.heads = [e.head for e in inst.edges] + [0] * n
        self.caps = caps + [sum(caps) + 1] * n
        self.flow = [0] * (m + n)
        self.state = [1 if u > 0 else 0 for u in caps] + [0] * n
        # the tree: each node's parent, the arc to it, and that arc's
        # direction, +1 when it runs from the node up to the parent
        self.parent = [-1] + [0] * n
        self.pred = [-1] + list(range(m, m + n))
        self.dirs = [0] + [1] * n
        self.children: list[list[int]] = [list(range(1, n + 1))] + [[] for _ in range(n)]
        self.depth = [0] + [1] * n
        # the tree arcs have reduced cost cost_a + pi[tail_a] - pi[head_a] = 0
        self.potentials = [0] * (n + 1)
        self.costs = [0] * (m + n)
        self.block = max(isqrt(m), 10)
        self.next_arc = 0
        self.pivots = 0

    def check_flow(self) -> None:
        """Raise ``ValueError`` unless the flow is an int circulation within capacity."""
        flow = self.flow
        if not set(map(type, flow)) <= {int}:
            raise ValueError("basis flow must be integral")
        if min(flow) < 0 or not all(map(le, flow, self.caps)):
            raise ValueError("basis flow breaks a capacity")
        tails, heads, excess = self.tails, self.heads, [0] * len(self.parent)
        for a in compress(range(len(flow)), flow):
            excess[tails[a]] -= flow[a]
            excess[heads[a]] += flow[a]
        if any(excess):
            raise ValueError("basis flow is not a circulation")

    def set_costs(self, costs: Sequence[int]) -> None:
        """Take new edge costs and recompute the tree's potentials."""
        self.costs[: len(costs)] = costs
        costs, pi, parent, pred, dirs = self.costs, self.potentials, self.parent, self.pred, self.dirs
        stack = list(self.children[0])
        while stack:
            v = stack.pop()
            pi[v] = pi[parent[v]] - dirs[v] * costs[pred[v]]
            stack.extend(self.children[v])

    def entering(self) -> int:
        """An arc whose reduced cost breaks optimality, or -1 when none does.

        Block search: scan arcs cyclically from where the last search
        stopped and return the worst arc of the first block holding one.
        """
        costs, pi, tails, heads, state = self.costs, self.potentials, self.tails, self.heads, self.state
        m, block = self.inst.edge_count, self.block
        best, best_arc = 0, -1
        a, count = self.next_arc, block
        for _ in range(m):
            v = state[a] * (costs[a] + pi[tails[a]] - pi[heads[a]])
            if v < best:
                best, best_arc = v, a
            a += 1
            if a == m:
                a = 0
            count -= 1
            if not count:
                if best_arc >= 0:
                    break
                count = block
        self.next_arc = a
        return best_arc

    def pivot(self, arc: int) -> None:
        """Push flow round the cycle ``arc`` closes in the tree and swap arcs.

        The cycle is oriented along ``arc``'s improving direction.  The
        leaving arc is the last blocking arc met when walking the cycle from
        its apex, which keeps the tree strongly feasible.
        """
        parent, pred, dirs, flow, caps = self.parent, self.pred, self.dirs, self.flow, self.caps
        depth, state = self.depth, self.state
        if state[arc] == 1:
            first, second = self.tails[arc], self.heads[arc]
        else:
            first, second = self.heads[arc], self.tails[arc]
        u, v = first, second
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        apex = u
        # the cycle runs apex -> first (down), arc, second -> apex (up);
        # walking up from first meets that side in reverse, hence < there
        delta, out, side = caps[arc], -1, 0
        u = first
        while u != apex:
            a = pred[u]
            d = flow[a] if dirs[u] == 1 else caps[a] - flow[a]
            if d < delta:
                delta, out, side = d, u, 1
            u = parent[u]
        u = second
        while u != apex:
            a = pred[u]
            d = caps[a] - flow[a] if dirs[u] == 1 else flow[a]
            if d <= delta:
                delta, out, side = d, u, 2
            u = parent[u]
        if delta:
            flow[arc] += state[arc] * delta
            u = first
            while u != apex:
                flow[pred[u]] -= dirs[u] * delta
                u = parent[u]
            u = second
            while u != apex:
                flow[pred[u]] += dirs[u] * delta
                u = parent[u]
        if not side:
            state[arc] = -state[arc]  # the arc itself blocks: it changes bound
            return
        leaving = pred[out]
        if leaving < self.inst.edge_count:
            state[leaving] = 1 if flow[leaving] == 0 else -1
        state[arc] = 0
        u_in, v_in = (first, second) if side == 1 else (second, first)
        # reverse the tree path u_in .. out and hang u_in from v_in by arc
        new_parent, new_pred, new_dir = v_in, arc, 1 if self.tails[arc] == u_in else -1
        children = self.children
        u = u_in
        while True:
            old_parent, old_pred, old_dir = parent[u], pred[u], dirs[u]
            children[old_parent].remove(u)
            children[new_parent].append(u)
            parent[u], pred[u], dirs[u] = new_parent, new_pred, new_dir
            if u == out:
                break
            new_parent, new_pred, new_dir = u, old_pred, -old_dir
            u = old_parent
        # the moved subtree keeps its internal arcs: one shift of potentials
        pi = self.potentials
        shift = pi[v_in] - dirs[u_in] * self.costs[arc] - pi[u_in]
        stack = [u_in]
        while stack:
            u = stack.pop()
            pi[u] += shift
            depth[u] = depth[parent[u]] + 1
            stack.extend(children[u])


def find_negative_cycle(
    node_count: int,
    arcs: Sequence[tuple[int, int, int]],
    weights: Sequence[int] | Sequence[float],
) -> list[int] | None:
    """A simple cycle of strictly negative total weight, as arc ids, or None.

    The package's one negative-cycle detector.  ``arcs`` holds static
    ``(tail, head, arc_id)`` triples over nodes 1..node_count and
    ``weights[arc_id]`` is an int or a float (the approximation lane's
    parametric lengths).  Bellman-Ford label correction from an implicit
    super-source: all labels start at zero and every pass scans ``arcs`` in
    the given order, so the result is a deterministic function of the input.
    Returns None only after a full pass without relaxation.

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


def min_cost_circulation(inst: Instance, costs: Sequence[int], basis: Basis | None = None) -> Flow:
    """Minimum cost circulation under int edge costs, by primal network simplex.

    Starts from ``basis``, a :class:`Basis` of ``inst`` left by an earlier
    solve (a fresh one, holding the zero circulation, when omitted), and
    pivots until no arc prices out, which certifies optimality: the tree's
    potentials give every residual arc a nonnegative reduced cost.  The
    basis keeps the optimal tree for the caller's next solve.  A basis of
    another instance, or one whose flow is not an int circulation within
    capacity, raises ``ValueError``.
    """
    if basis is None:
        basis = Basis(inst)
    elif basis.inst != inst:
        raise ValueError("basis was built for another instance")
    else:
        basis.check_flow()
    if len(costs) != inst.edge_count:
        raise ValueError("one cost per edge required")
    basis.set_costs(costs)
    flow = basis.flow
    # Pivot cap, with x0 the start flow and W = max |w_e|.
    # - A nondegenerate pivot pushes an int amount >= 1 round a cycle whose
    #   cost, the entering arc's reduced cost, is <= -1.  The objective
    #   starts at w . x0 and never drops below -sum(u_e * |w_e|), so there
    #   are at most A = w . x0 + sum(u_e * |w_e|) of them.
    # - A degenerate pivot on a strongly feasible tree shifts the potentials
    #   of the moved subtree by the entering arc's nonzero int reduced cost,
    #   always in one direction, so the sum of the n potentials strictly
    #   moves one way (Ahuja, Magnanti & Orlin, "Network Flows", ch. 11).
    #   A potential sums at most n tree-path costs, so that sum stays within
    #   +-n^2 * W: at most D = 2 * n^2 * W degenerate pivots run between two
    #   nondegenerate ones.
    # So a solve makes at most A + (A + 1) * D < (A + 1) * (D + 1) pivots.
    reach = sum(map(mul, basis.caps, map(abs, costs)))
    start = sum(map(mul, costs, flow))
    width = max(map(abs, costs), default=0)
    cap = (start + reach + 1) * (2 * inst.node_count**2 * width + 1)
    pivots = 0
    while (arc := basis.entering()) >= 0:
        if pivots == cap:
            raise InternalSolverError(f"network simplex exceeded its cap of {cap} pivots")
        basis.pivot(arc)
        pivots += 1
    basis.pivots += pivots
    return Flow.from_values(inst, flow[: inst.edge_count])
