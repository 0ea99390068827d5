"""Exact solver: multiplier trichotomy test, one multiplier search, frontier.

The budget-constrained optimum is a point of the lower-left (cost, fee)
Pareto frontier on or below the budget line.  For a multiplier ``lam``, a
pair of lexicographic min-cost-circulation solves under costs
``cost + lam * fee`` (fee-minimal and fee-maximal among optima) reveals
whether ``lam`` is below, inside, or above the closed interval of optimal
multipliers.  A chord search narrows a bracket until one probe lands
inside that interval; the optimum is then a convex combination of that
probe's two witness flows meeting the budget line.  All the solves on one
closed instance share one network-simplex :class:`~bcmcf.mcc.Basis`, so
each starts from the optimal tree of the solve before it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from .mcc import Basis, InternalSolverError, lambda_cost, min_cost_circulation
from .model import (
    Flow,
    Instance,
    InstanceError,
    Solution,
    circulation_form,
    instance_stats,
    project_flow,
)


class VerdictKind(enum.Enum):
    BELOW = "below"
    INSIDE = "inside"
    ABOVE = "above"


@dataclass(frozen=True)
class CallbackVerdict:
    """Trichotomy result for one multiplier, with the two witness circulations.

    ``x_minfee``/``x_maxfee`` are optimal for cost + lam * fee with the
    smallest/largest total fee among optima.  For an INSIDE verdict with
    lam > 0 they satisfy fee(x_minfee) <= budget <= fee(x_maxfee).
    """

    kind: VerdictKind
    x_minfee: Flow
    x_maxfee: Flow


def lambda_callback(circ: Instance, lam: Fraction, basis: Basis | None = None) -> CallbackVerdict:
    """Decide where ``lam`` sits relative to the optimal multiplier interval.

    ``circ`` must be in circulation form (see ``circulation_form``).  Verdicts:
    BELOW when even the fee-minimal optimum overshoots the budget, ABOVE
    when the fee-maximal optimum undershoots it (only for lam > 0; at
    lam = 0 a slack budget means the unconstrained optimum already wins,
    hence INSIDE), INSIDE otherwise.

    Both solves run on ``basis``, a :class:`Basis` of ``circ`` (a fresh one
    when omitted), typically left optimal by a nearby multiplier's solves;
    the fee-maximal solve starts from the fee-minimal optimum, which is
    already optimal in cost + lam * fee.  The basis moves no verdict or
    (cost, fee) point.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"multiplier {lam} is negative")
    if circ.return_arc_index is None:
        raise ValueError("lambda_callback needs a circulation-form instance")
    if basis is None:
        basis = Basis(circ)
    x_min = min_cost_circulation(circ, lambda_cost(circ, lam, "min"), basis)
    x_max = min_cost_circulation(circ, lambda_cost(circ, lam, "max"), basis)
    budget = circ.budget
    if x_min.fee > budget:
        kind = VerdictKind.BELOW
    elif x_max.fee < budget and lam > 0:
        kind = VerdictKind.ABOVE
    else:
        kind = VerdictKind.INSIDE
    return CallbackVerdict(kind, x_min, x_max)


def budget_combination(x1: Flow, x2: Flow, budget: Fraction | int) -> Flow:
    """Convex combination of two flows meeting the budget with equality.

    Requires flows of equal arity with fee(x1) <= budget <= fee(x2); the
    combination ``alpha*x1 + (1-alpha)*x2`` keeps exact totals.  Returns x1
    unchanged when both fees coincide.
    """
    budget = Fraction(budget)
    if len(x1.values) != len(x2.values):
        raise InstanceError("flows have different arities")
    if not x1.fee <= budget <= x2.fee:
        raise ValueError(
            f"budget {budget} not between fees {x1.fee} and {x2.fee}"
        )
    if x2.fee == x1.fee:
        return x1
    alpha = (x2.fee - budget) / (x2.fee - x1.fee)
    beta = 1 - alpha
    return Flow(
        tuple(alpha * a + beta * b for a, b in zip(x1.values, x2.values)),
        alpha * x1.cost + beta * x2.cost,
        alpha * x1.fee + beta * x2.fee,
    )


@dataclass(frozen=True)
class FrontierPoint:
    """An extreme point of the lower-left (cost, fee) frontier.

    ``lambda_low``/``lambda_high`` delimit the closed multiplier interval for
    which this point minimizes cost + lambda * fee; ``lambda_high`` is None
    when the interval is unbounded above.
    """

    cost: Fraction
    fee: Fraction
    witness: Flow
    lambda_low: Fraction
    lambda_high: Fraction | None


def edge_multiplier(p_low: FrontierPoint | Flow, p_high: FrontierPoint | Flow) -> Fraction:
    """Multiplier at which two (cost, fee) points have equal cost + lam * fee.

    ``p_low`` has the smaller fee.  The value is the negated slope of the
    chord between them in cost-per-fee form; for two adjacent frontier
    points it is the multiplier at which their segment is optimal.
    """
    return (p_low.cost - p_high.cost) / (p_high.fee - p_low.fee)


def attach_lambda_intervals(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Fill optimality intervals from adjacent segment multipliers.

    ``points`` must be extreme points sorted by increasing fee.  Segment
    multipliers decrease along that order: the lowest-fee point is optimal
    for all large multipliers, the highest-fee point down to zero.
    """
    if not points:
        return []
    lams = [edge_multiplier(points[i], points[i + 1]) for i in range(len(points) - 1)]
    out = []
    for i, p in enumerate(points):
        low = lams[i] if i < len(lams) else Fraction(0)
        high = lams[i - 1] if i > 0 else None
        out.append(replace(p, lambda_low=low, lambda_high=high))
    return out


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
    verdict.
    """
    circ = circulation_form(inst)
    budget = Fraction(inst.budget)
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
    basis = Basis(circ)
    for lam in multipliers():
        if probes == cap:
            raise InternalSolverError(f"multiplier search exceeded its cap of {cap} probes")
        probes += 1
        verdict = lambda_callback(circ, lam, basis)
        if verdict.kind is VerdictKind.INSIDE:
            if lam == 0:
                # fee-minimal unconstrained optimum; feasible since fee <= budget
                flow = verdict.x_minfee
            else:
                flow = budget_combination(verdict.x_minfee, verdict.x_maxfee, budget)
            flow = project_flow(inst, flow)
            return Solution(
                flow=flow, objective=flow.cost, algorithm="exact", iterations=probes, lam=lam
            )
        # keep the optimum nearest the budget as the new corner
        if verdict.kind is VerdictKind.BELOW:
            x_over = verdict.x_minfee
        else:
            x_under = verdict.x_maxfee


def enumerate_frontier(inst: Instance) -> list[FrontierPoint]:
    """All extreme points of the Pareto frontier, by increasing fee.

    Dichotomic subdivision: solve at the two endpoint multipliers (0 and one
    beyond every slope), then recursively probe each adjacent pair's chord
    multiplier; an improvement exposes one or two new extreme points,
    otherwise the chord is a frontier segment.  The number of solves is
    linear in the number of extreme points, which desk-scale instances keep
    small but is not polynomially bounded in general.  All solves share one
    simplex basis, so each starts from the optimum of the solve before it.
    """
    circ = circulation_form(inst)
    stats = instance_stats(inst)
    basis = Basis(circ)
    top = min_cost_circulation(circ, lambda_cost(circ, Fraction(0), "min"), basis)
    bottom = min_cost_circulation(
        circ, lambda_cost(circ, stats.lambda_above_all_slopes(), "min"), basis
    )

    def expand(x_low: Flow, x_high: Flow) -> list[Flow]:
        """Extreme points strictly between two known ones (fee order)."""
        lam = edge_multiplier(x_low, x_high)
        verdict = lambda_callback(circ, lam, basis)
        q_low, q_high = verdict.x_minfee, verdict.x_maxfee
        if q_low.cost + lam * q_low.fee == x_low.cost + lam * x_low.fee:
            return []  # the chord is a frontier segment
        between = expand(x_low, q_low) + [q_low]
        if (q_high.cost, q_high.fee) != (q_low.cost, q_low.fee):
            between.append(q_high)  # q_low-q_high is itself a segment
        return between + expand(q_high, x_high)

    if (top.cost, top.fee) == (bottom.cost, bottom.fee):
        extremes = [bottom]
    else:
        extremes = [bottom] + expand(bottom, top) + [top]
    return attach_lambda_intervals([
        FrontierPoint(x.cost, x.fee, project_flow(inst, x), Fraction(0), None) for x in extremes
    ])
