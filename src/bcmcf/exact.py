"""Exact solver: multiplier trichotomy test, one multiplier search, frontier.

The budget-constrained optimum is a point of the lower-left (cost, fee)
Pareto frontier on or below the budget line.  For a multiplier ``lam``,
lexicographic min-cost-circulation solves under costs ``cost + lam * fee``
(fee-minimal, then fee-maximal among optima unless the first decides)
reveal whether ``lam`` is below, inside, or above the closed interval of
optimal multipliers.  A chord search narrows a bracket until one probe lands
inside that interval; the optimum is then a convex combination of that
probe's two witness flows meeting the budget line.  All the solves of
one search share one network-simplex :class:`~bcmcf.mcc.Basis`, so each
starts from the optimal tree of the solve before it.  The frontier takes
one solve and then walks its breakpoints on that basis, a parametric
simplex in int cost and fee potentials.  The search and the frontier run
on int (cost, fee) totals.  A :class:`Flow` is built only for the search's
answer, once, from int values: a witness's, or the budget combination's
int numerators over the int fee gap of its two witnesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .mcc import Basis, InternalSolverError, lambda_cost, min_cost_circulation
from .model import Flow, Instance, Solution, instance_stats


class VerdictKind(enum.Enum):
    BELOW = "below"
    INSIDE = "inside"
    ABOVE = "above"


class Witness(NamedTuple):
    """One solve's optimum: its int edge values and (cost, fee) totals."""

    values: list[int]
    cost: int
    fee: int


@dataclass(frozen=True)
class CallbackVerdict:
    """Trichotomy result for one multiplier, with its witness optima.

    ``x_minfee``/``x_maxfee`` are optimal for cost + lam * fee with the
    smallest/largest total fee among optima.  ``x_maxfee`` is None when no
    verdict reads it: at lam = 0, or when fee(x_minfee) is not below the
    budget.  For an INSIDE verdict with lam > 0 and ``x_maxfee`` set they
    satisfy fee(x_minfee) < budget <= fee(x_maxfee).
    """

    kind: VerdictKind
    x_minfee: Witness
    x_maxfee: Witness | None


def lambda_callback(basis: Basis, lam: Fraction) -> CallbackVerdict:
    """Decide where ``lam`` sits relative to the optimal multiplier interval.

    ``basis`` is a :class:`Basis` of the problem instance, and a negative
    ``lam`` raises ``ValueError``.  Verdicts: BELOW when even the fee-minimal
    optimum overshoots the budget, ABOVE when the fee-maximal optimum
    undershoots it (only for lam > 0; at lam = 0 a slack budget means the
    unconstrained optimum already wins, hence INSIDE), INSIDE otherwise.
    The fee-maximal solve runs only when the fee-minimal one leaves the
    verdict open, at lam > 0 with fee(x_minfee) below the budget; otherwise
    a probe is one solve.

    The solves run on ``basis``, typically left optimal by a nearby
    multiplier's solves; the fee-maximal solve starts from the fee-minimal
    optimum, which is already optimal in cost + lam * fee.  The basis moves
    no verdict or (cost, fee) point.  Its one caller in the package is
    ``solve_exact``.
    """
    m, budget = basis.inst.edge_count, basis.inst.budget
    cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam, "min"))
    x_min = Witness(basis.flow[:m], cost, fee)
    if fee > budget:
        return CallbackVerdict(VerdictKind.BELOW, x_min, None)
    if lam == 0 or fee == budget:
        return CallbackVerdict(VerdictKind.INSIDE, x_min, None)
    cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam, "max"))
    kind = VerdictKind.ABOVE if fee < budget else VerdictKind.INSIDE
    return CallbackVerdict(kind, x_min, Witness(basis.flow[:m], cost, fee))


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

    Probes lam = 0 first (handles a slack budget outright), then lam = bbar,
    the top of the multiplier grid k/(2*cbar^2), and, only if that verdicts
    BELOW, a multiplier above every frontier slope.  One loop then shrinks
    the BELOW/ABOVE bracket by probing the chord multiplier of the
    bracket's two corner flows.  The first INSIDE probe ends the search and
    its multiplier is returned, so when the optimal multiplier interval
    holds more than one point the probe order picks the answer.
    ``iterations`` counts every probe.  All solves share one simplex basis,
    so each starts from the optimum of the solve before it, which moves no
    verdict.  The bracket corners are int witnesses; only the INSIDE probe
    builds a :class:`Flow`, of its fee-minimal witness or of the budget
    combination of its two.
    """
    basis = Basis(inst)
    stats = instance_stats(inst)
    x_over = x_under = None  # bracket corners: optima with fee above / below the budget

    def multipliers():
        """The multipliers to probe, in order; reads the bracket the loop updates."""
        yield Fraction(0)
        if stats.bbar == 0 or stats.cbar == 0:
            raise InternalSolverError("lam=0 verdict BELOW on an instance with empty grid")
        yield Fraction(stats.bbar)
        if x_under is None:
            # the optimal interval lies beyond the grid
            yield stats.lambda_above_all_slopes()
            if x_under is None:
                raise InternalSolverError("beyond-slope multiplier did not verdict ABOVE")
        while True:
            yield edge_multiplier(x_under, x_over)

    # Probe cap.  The opening takes at most 3 probes.  The chord lies
    # strictly inside the bracket, and a BELOW (ABOVE) verdict there yields
    # an optimum with fee strictly below x_over's (above x_under's):
    # otherwise x_over (x_under) would be optimal at the chord, and with it
    # the other corner, making the verdict INSIDE.  Fees are integers in
    # 0..bbar, so the gap x_over.fee - x_under.fee, at most bbar and at least
    # 2 around the integer budget, allows at most bbar - 2 chord probes that
    # are not INSIDE; the next one is.
    cap = stats.bbar + 2
    probes = 0
    for lam in multipliers():
        if probes == cap:
            raise InternalSolverError(f"multiplier search exceeded its cap of {cap} probes")
        probes += 1
        verdict = lambda_callback(basis, lam)
        if verdict.kind is VerdictKind.INSIDE:
            # without a fee-maximal witness the fee-minimal optimum is
            # feasible (fee <= budget) and is the answer
            if verdict.x_maxfee is None:
                flow = Flow.from_values(inst, verdict.x_minfee.values)
            else:
                flow = budget_combination(inst, verdict.x_minfee, verdict.x_maxfee)
            return Solution(
                flow=flow, objective=flow.cost, algorithm="exact", iterations=probes, lam=lam
            )
        # keep the optimum nearest the budget as the new corner
        if verdict.kind is VerdictKind.BELOW:
            x_over = verdict.x_minfee
        else:
            x_under = verdict.x_maxfee


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
    min_cost_circulation(basis, lambda_cost(basis, stats.lambda_above_all_slopes(), "min"))
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
    # feasible tree under w = lambda_cost(basis, p/q, "max"), where each
    # entering arc has reduced cost -|r_b| < 0, so the argument of
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
