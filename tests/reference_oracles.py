"""References that only the tests compare against.

Integral flow enumeration, the exact Pareto frontier as the lower-left hull
of the integral point cloud, exhaustive minimum-ratio cycle and path
searches, the packing loop's flow assembly in ``Fraction`` arithmetic, and
the dead-node removal of ``preprocess`` by degree dicts and node sets.
All but the last are exponential by design and guarded to desk scale.
The frontier reference shares only the point type and the interval
bookkeeping with ``bcmcf.exact``; its hull never calls a solver.

Past the enumeration guard, second methods check the package.
Negative-cycle canceling on the residual graph, pseudo-polynomial but simple
enough to trust, checks the network simplex of ``bcmcf.mcc``; the residual
graph is also where the tests call ``find_negative_cycle``.  Dichotomic
chord subdivision, solve by solve on that simplex, checks the parametric
walk of ``enumerate_frontier``.  The multiplier trichotomy, from a
fee-minimal and a fee-maximal solve, says where a multiplier sits against
the optimal multiplier interval that ``solve_exact``'s probes look for.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import attrgetter, le, neg, sub
from typing import Iterator, NamedTuple, Sequence

from bcmcf.exact import FrontierPoint, Witness, attach_lambda_intervals, edge_multiplier
from bcmcf.mcc import (
    Basis,
    InternalSolverError,
    find_negative_cycle,
    lambda_cost,
    min_cost_circulation,
)
from bcmcf.model import EdgeData, Flow, Instance, instance_stats, restore_flow
from bcmcf.oracle import DEFAULT_GUARD, build_point_cloud, iter_integral_values


def reference_preprocess(inst: Instance) -> Instance:
    """``preprocess`` by degree dicts and dead-node sets, rescanning every
    edge after each round of removals and rebuilding every edge."""
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


def enumerate_integral_flows(inst: Instance, guard: int = DEFAULT_GUARD) -> list[Flow]:
    return [Flow.from_values(inst, vals) for vals in iter_integral_values(inst, guard)]


def fraction_assemble_flow(
    inst: Instance, reduced: Instance, routed: dict[tuple[int, ...], Fraction]
) -> Flow:
    """Sum exact routed values per edge and scale them to feasibility.

    ``routed`` maps each column, a tuple of edges of ``reduced``, to its
    exact routed value.  The summed flow is divided by its worst load over
    the capacity rows and a positive budget row, if that load is positive,
    and lifted back onto ``inst``.  Every step is ``Fraction`` arithmetic.
    """
    values = [Fraction(0)] * reduced.edge_count
    for column, amount in routed.items():
        for i in column:
            values[i] += amount
    worst = max((v / e.capacity for v, e in zip(values, reduced.edges)), default=Fraction(0))
    if reduced.budget > 0:
        fee_total = sum((e.fee * v for e, v in zip(reduced.edges, values)), Fraction(0))
        worst = max(worst, fee_total / reduced.budget)
    if worst > 0:
        values = [v / worst for v in values]
    return restore_flow(inst, reduced, Flow.from_values(reduced, values))


def circulation_form(inst: Instance) -> Instance:
    """Close ``inst`` with a zero-cost, zero-fee arc each way between source and sink.

    Edge m runs source -> sink and edge m + 1 sink -> source, each with the
    total capacity, which no flow's net value can exceed; with them every
    node conserves flow, so source and sink are free.  The package merges
    the sink into the source instead (``bcmcf.model.merged_ends``); this
    closed network is the independent reference for the canceling engine
    and the exhaustive cycle enumeration.
    """
    u = sum(e.capacity for e in inst.edges)
    closure = EdgeData(inst.source, inst.sink, u, 0, 0), EdgeData(inst.sink, inst.source, u, 0, 0)
    return Instance(
        node_count=inst.node_count,
        edges=inst.edges + closure,
        source=inst.source,
        sink=inst.sink,
        budget=inst.budget,
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
    return attach_lambda_intervals([Witness(cloud.witnesses[i], *cloud.points[i]) for i in hull])


def dichotomic_frontier(inst: Instance) -> list[FrontierPoint]:
    """Frontier extreme points by dichotomic chord subdivision (Aneja & Nair 1979).

    Solves fee-minimally at multiplier 0 and one beyond every slope, then
    once per chord of two adjacent known points, at the chord's multiplier.
    A solve that ties the chord closes it as a segment; one that beats it
    is a new extreme point strictly between the corners in fee.  So P >= 2
    points take 2P - 1 solves of ``min_cost_circulation`` (P = 1 takes 2),
    all on one basis.  No enumeration guard: this checks
    ``enumerate_frontier``'s parametric walk past ``oracle_frontier``'s.
    """
    basis = Basis(inst)
    m = inst.edge_count

    def extreme(lam: Fraction) -> Witness:
        cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam))
        return Witness(basis.flow[:m], cost, fee)

    def expand(x_low: Witness, x_high: Witness) -> list[Witness]:
        """Extreme points strictly between two known ones (fee order)."""
        lam = edge_multiplier(x_low, x_high)
        x = extreme(lam)
        # with lam = p/q, x ties the chord iff q * (cost - cost_low)
        # + p * (fee - fee_low) = 0
        if lam.denominator * (x.cost - x_low.cost) + lam.numerator * (x.fee - x_low.fee) == 0:
            return []
        return expand(x_low, x) + [x] + expand(x, x_high)

    top = extreme(Fraction(0))
    bottom = extreme(instance_stats(inst).lambda_above_all_slopes())
    if (top.cost, top.fee) == (bottom.cost, bottom.fee):
        extremes = [bottom]
    else:
        extremes = [bottom, *expand(bottom, top), top]
    return attach_lambda_intervals(extremes)


# ---------------------------------------------------------------------------
# the multiplier trichotomy, the reference for the probes of solve_exact
# ---------------------------------------------------------------------------


class VerdictKind(enum.Enum):
    BELOW = "below"
    INSIDE = "inside"
    ABOVE = "above"


class Verdict(NamedTuple):
    """Where a multiplier sits, with the fee-minimal and fee-maximal optima."""

    kind: VerdictKind
    x_minfee: Witness
    x_maxfee: Witness


def fee_maximal_cost(basis: Basis, lam: Fraction) -> list[int]:
    """``lambda_cost`` with its fee tie-break turned round.

    For lam = p/q edge e costs (q*c_e + p*b_e)*K - b_e, K the basis's
    packing factor, so a solve returns, among the optima of cost + lam *
    fee, one of largest total fee.
    """
    lam = Fraction(lam)
    p, q, k = lam.numerator, lam.denominator, basis.fee_scale
    return [(q * c + p * b) * k - b for c, b in zip(basis.edge_costs, basis.fees)]


def trichotomy(inst: Instance, lam: Fraction) -> Verdict:
    """Where ``lam`` sits relative to the closed interval of optimal multipliers.

    BELOW when even the fee-minimal optimum of cost + lam * fee overshoots
    the budget, ABOVE when the fee-maximal optimum undershoots it (only for
    lam > 0; at lam = 0 a slack budget means the unconstrained optimum
    already wins, hence INSIDE), INSIDE otherwise.  Two solves of
    ``min_cost_circulation``, under ``lambda_cost`` and ``fee_maximal_cost``.
    """
    basis = Basis(inst)

    def optimum(costs) -> Witness:
        cost, fee = min_cost_circulation(basis, costs(basis, lam))
        return Witness(basis.flow[: inst.edge_count], cost, fee)

    low, high = optimum(lambda_cost), optimum(fee_maximal_cost)
    if low.fee > inst.budget:
        return Verdict(VerdictKind.BELOW, low, high)
    if lam > 0 and high.fee < inst.budget:
        return Verdict(VerdictKind.ABOVE, low, high)
    return Verdict(VerdictKind.INSIDE, low, high)


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


# ---------------------------------------------------------------------------
# negative-cycle canceling, the reference min-cost-circulation engine
# ---------------------------------------------------------------------------


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


def canceling_circulation(
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
