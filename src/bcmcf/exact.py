"""Exact solver: one chord search over multipliers, and the frontier.

The budget-constrained optimum is a point of the lower-left (cost, fee)
Pareto frontier on or below the budget line.  A probe at multiplier
``lam`` is one min-cost-circulation solve under costs ``cost + lam * fee``
that picks a fee-minimal optimum, an extreme point of the frontier.  The
search keeps one point over the budget and one under it and probes their
chord's multiplier (Aneja & Nair 1979).  A point of fee exactly the
budget ends it, and so does a tie with the chord, which is then a
frontier segment crossing the budget line; any other point replaces a
corner.  All the solves of one search share one network-simplex
:class:`~bcmcf.mcc.Basis`, so each starts from the optimal tree of the
solve before it.  The frontier takes one solve and then walks its
breakpoints on that basis, a parametric simplex in int cost and fee
potentials.  The search and the frontier run on int (cost, fee) totals.
A :class:`Flow` is built only for the search's answer, once, from int
values: a witness's, or the budget combination's int numerators over the
int fee gap of the two corners.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .mcc import Basis, InternalSolverError, lambda_cost, min_cost_circulation
from .model import Flow, Instance, Solution, instance_stats


class Witness(NamedTuple):
    """One solve's optimum: its int edge values and (cost, fee) totals."""

    values: list[int]
    cost: int
    fee: int


def lambda_callback(basis: Basis, lam: Fraction) -> Witness:
    """One multiplier probe: the fee-minimal optimum of cost + ``lam`` * fee.

    ``basis`` is a :class:`Basis` of the problem instance, and a negative
    ``lam`` raises ``ValueError``.  The solve runs on ``basis``, typically
    left optimal by the probe before it; the basis moves no (cost, fee)
    point, only which of several tied flows comes back.  Its one caller
    in the package is ``solve_exact``.
    """
    cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam))
    return Witness(basis.flow[: basis.inst.edge_count], cost, fee)


def budget_combination(inst: Instance, x1: Witness, x2: Witness) -> Flow:
    """The convex combination of two witnesses that meets ``inst``'s budget.

    Requires witnesses of equal arity with fee(x1) < budget <= fee(x2).  The
    combination alpha * x1 + (1 - alpha) * x2 with alpha = (fee(x2) - budget)
    / (fee(x2) - fee(x1)) is the int combination (fee(x2) - budget) * x1 +
    (budget - fee(x1)) * x2 over the int fee gap, its fee exactly the budget.
    """
    budget = inst.budget
    if not x1.fee < budget <= x2.fee:
        raise ValueError(f"budget {budget} not in ({x1.fee}, {x2.fee}]")
    a, b = x2.fee - budget, budget - x1.fee
    values = [a * p + b * q for p, q in zip(x1.values, x2.values, strict=True)]
    return Flow.from_values(inst, values, x2.fee - x1.fee)


class FrontierPoint(NamedTuple):
    """An extreme point of the lower-left (cost, fee) frontier.

    The fields of its int :class:`Witness`, then ``lambda_low``/
    ``lambda_high``, the closed multiplier interval on which it minimizes
    cost + lambda * fee; ``lambda_high`` is None when it is unbounded above.
    """

    values: list[int]
    cost: int
    fee: int
    lambda_low: Fraction
    lambda_high: Fraction | None


def edge_multiplier(p_low: FrontierPoint | Witness, p_high: FrontierPoint | Witness) -> Fraction:
    """Multiplier at which two (cost, fee) points have equal cost + lam * fee.

    ``p_low`` has the smaller fee.  The value is the negated slope of the
    chord between their int totals in cost-per-fee form, a reduced
    ``Fraction``; for two adjacent frontier points it is the multiplier at
    which their segment is optimal.
    """
    return Fraction(p_low.cost - p_high.cost, p_high.fee - p_low.fee)


def attach_lambda_intervals(witnesses: list[Witness]) -> list[FrontierPoint]:
    """The frontier points of ``witnesses``, with intervals from adjacent segment multipliers.

    ``witnesses`` must be an instance's extreme points sorted by increasing
    fee.  Segment multipliers decrease along that order: the lowest-fee
    point is optimal for all large multipliers, the highest-fee point down
    to zero.
    """
    lams = [None, *(edge_multiplier(a, b) for a, b in zip(witnesses, witnesses[1:])), Fraction(0)]
    return [FrontierPoint(*x, low, high) for x, low, high in zip(witnesses, lams[1:], lams)]


def solve_exact(inst: Instance) -> Solution:
    """Optimal budget-constrained min-cost flow, exactly.

    Each probe is one fee-minimal solve, ``lambda_callback``, decided by
    its witness alone.  Probes lam = 0 first (a witness within the budget
    there is the answer), then lam = bbar, the top of the multiplier grid
    k/(2*cbar^2), and, only if that witness is still over the budget, a
    multiplier above every frontier slope.  One loop then probes the chord
    multiplier p/q of the over and under corners.  A witness of fee
    exactly the budget ends the search, and so does a chord witness that
    ties the chord (q * cost + p * fee equal to a corner's), with the
    corners' budget combination; any other witness replaces the corner on
    its side.  The last probe's multiplier is returned, so when the budget
    is an extreme point's fee the probe order picks one in its interval.
    ``iterations`` counts every probe.  All solves share one simplex
    basis, so each starts from the optimum of the solve before it, which
    moves no (cost, fee) point.  Only the answer builds a :class:`Flow`.
    """
    basis = Basis(inst)
    stats = instance_stats(inst)
    budget = inst.budget
    x_over = x_under = None  # the corners: optima with fee above / below the budget

    def multipliers():
        """The multipliers to probe, in order; reads the corners the loop updates."""
        yield Fraction(0)
        if stats.bbar == 0 or stats.cbar == 0:
            raise InternalSolverError("lam=0 optimum over the budget on an instance with empty grid")
        yield Fraction(stats.bbar)
        if x_under is None:
            # the optimal interval lies beyond the grid
            yield stats.lambda_above_all_slopes()
            if x_under is None:
                raise InternalSolverError("beyond-slope optimum over the budget")
        while True:
            yield edge_multiplier(x_under, x_over)

    # Probe cap.  The opening takes at most 3 probes.  Each corner is
    # optimal at the multiplier that found it, and the chord multiplier lies
    # between the two.  A chord witness that does not tie the chord lies
    # strictly below it, so its fee lies strictly between the corners'
    # (Aneja & Nair 1979) and, unless it is the budget, it replaces one
    # corner.  Fees are integers in 0..bbar, so the gap x_over.fee -
    # x_under.fee, at most bbar and at least 2 around the integer budget,
    # shrinks by at least 1 at each chord probe that does not end the
    # search: at most bbar - 2 of them run, and the next one ends it.
    cap = stats.bbar + 2
    probes = 0
    for lam in multipliers():
        if probes == cap:
            raise InternalSolverError(f"multiplier search exceeded its cap of {cap} probes")
        probes += 1
        x = lambda_callback(basis, lam)
        p, q = lam.numerator, lam.denominator
        if x.fee == budget or (lam == 0 and x.fee < budget):
            flow = Flow.from_values(inst, x.values)
        elif x_over and x_under and q * x.cost + p * x.fee == q * x_under.cost + p * x_under.fee:
            flow = budget_combination(inst, x_under, x_over)
        elif x.fee > budget:
            x_over = x
            continue
        else:
            x_under = x
            continue
        return Solution(flow=flow, objective=flow.cost, algorithm="exact", iterations=probes, lam=lam)


def _next_breakpoint(
    basis: Basis, costs: list[int], fees: list[int], pc: list[int], pb: list[int]
) -> tuple[int, int, int]:
    """The nonbasic arc that prices out first as the multiplier falls.

    ``pc``/``pb`` are the tree's cost and fee potentials under ``costs``/
    ``fees``.  An arc with state s and reduced cost r_c + lam * r_b turns
    negative below lam' = -r_c / r_b when s * r_b > 0 > s * r_c.  Returns
    (arc, -r_c * s, r_b * s) for the largest such lam', the first arc in
    order among ties, or (-1, 0, 1) when no arc has lam' > 0.  The ratios
    are compared as int cross-products.
    """
    tails, heads, state = basis.tails, basis.heads, basis.state
    best, num, den = -1, 0, 1
    for a in range(basis.arc_count):
        s = state[a]
        if s:
            t, h = tails[a], heads[a]
            rb = s * (fees[a] + pb[t] - pb[h])
            if rb > 0:
                rc = s * (pc[h] - pc[t] - costs[a])
                if rc * den > num * rb:
                    best, num, den = a, rc, rb
    return best, num, den


def enumerate_frontier(inst: Instance) -> list[FrontierPoint]:
    """All extreme points of the Pareto frontier, by increasing fee.

    A parametric network simplex (Ruhe 1991; Sedeño-Noda & González-Martín
    2001) on one :class:`Basis`: one fee-minimal solve at a multiplier above
    every slope, then a walk down to 0 that pivots in the arc of the next
    breakpoint lam' (``_next_breakpoint``), with the tree's cost and fee
    potentials kept as two int vectors.  The tree stays optimal at lam' and,
    once no arc prices out there, down to the next breakpoint; so at each
    strict drop of lam', and at the end, the flow is optimal on an interval
    and is an extreme point, kept unless its totals repeat the last one's.
    Breakpoints can be exponentially many (Zadeh 1973), so only the
    frontier walks them.  A point keeps its int witness, and
    ``Flow.from_values(inst, p.values)`` is its :class:`Flow`.
    """
    stats = instance_stats(inst)
    basis = Basis(inst)
    m = inst.edge_count
    min_cost_circulation(basis, lambda_cost(basis, stats.lambda_above_all_slopes()))
    flow, state, tails, heads, pred = basis.flow, basis.state, basis.tails, basis.heads, basis.pred
    pad = [0] * (len(flow) - m)
    costs, fees = basis.edge_costs + pad, basis.fees + pad
    pc, pb = [0] * len(basis.parent), [0] * len(basis.parent)
    basis.tree_potentials(costs, pc, basis.children[0])
    basis.tree_potentials(fees, pb, basis.children[0])
    # Pivot cap.  A breakpoint is -r_c / r_b for a cycle of the tree and one
    # arc of positive capacity, so 1 <= |r_b| <= bbar and |r_c| <= cbar: at
    # most cbar * bbar distinct ones, each p/q with p <= cbar, q <= bbar.
    # The pivots at one breakpoint are network-simplex pivots on a strongly
    # feasible tree under the packed costs w_e = (q * c_e + p * b_e) * K - b_e,
    # whose fee tie-break favours the larger fee; each entering arc has
    # reduced cost -|r_b| < 0 there, so the argument of
    # min_cost_circulation bounds them by (A + 1) * (D + 1) with
    # A = 2 * sum(u_e * |w_e|) and D = 2 * n^2 * max |w_e|.  Over the edges
    # of positive capacity both sums are below R = 2 * cbar * bbar * K + bbar.
    reach = 2 * stats.cbar * stats.bbar * basis.fee_scale + stats.bbar
    cap = stats.cbar * stats.bbar * (2 * reach + 1) * (2 * inst.node_count**2 * reach + 1)
    points: list[Witness] = []

    def keep() -> None:
        cost, fee = sum(map(mul, basis.edge_costs, flow)), sum(map(mul, basis.fees, flow))
        if not points or (points[-1].cost, points[-1].fee) != (cost, fee):
            points.append(Witness(flow[:m], cost, fee))

    at_num, at_den = 1, 0  # the current breakpoint, above every finite one at the start
    pivots = 0
    while True:
        arc, num, den = _next_breakpoint(basis, costs, fees, pc, pb)
        if arc < 0:
            break
        if num * at_den < at_num * den:
            keep()
            at_num, at_den = num, den
        if pivots == cap:
            raise InternalSolverError(f"frontier walk exceeded its cap of {cap} pivots")
        basis.pivot(arc)
        pivots += 1
        if not state[arc]:
            # the arc entered the tree: refresh the subtree it now holds up
            top = (tails[arc] if pred[tails[arc]] == arc else heads[arc],)
            basis.tree_potentials(costs, pc, top)
            basis.tree_potentials(fees, pb, top)
    keep()
    basis.pivots += pivots
    return attach_lambda_intervals(points)
