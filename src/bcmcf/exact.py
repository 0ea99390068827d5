"""Exact solver: multiplier trichotomy test, one multiplier search, frontier.

The budget-constrained optimum is a point of the lower-left (cost, fee)
Pareto frontier on or below the budget line.  For a multiplier ``lam``,
lexicographic min-cost-circulation solves under costs ``cost + lam * fee``
(fee-minimal, then fee-maximal among optima unless the first decides)
reveal whether ``lam`` is below, inside, or above the closed interval of
optimal multipliers.  A chord search narrows a bracket until one probe lands
inside that interval; the optimum is then a convex combination of that
probe's two witness flows meeting the budget line.  The frontier needs
only the fee-minimal solve, one per chord.  All the solves on one
instance share one network-simplex :class:`~bcmcf.mcc.Basis`, so each
starts from the optimal tree of the solve before it.  The search and the
frontier run on each solve's int (cost, fee) totals; a :class:`Flow` is
built only for the answers they keep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .mcc import Basis, InternalSolverError, lambda_cost, min_cost_circulation
from .model import Flow, Instance, InstanceError, Solution, instance_stats


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


def edge_multiplier(p_low: FrontierPoint | Witness, p_high: FrontierPoint | Witness) -> Fraction:
    """Multiplier at which two (cost, fee) points have equal cost + lam * fee.

    ``p_low`` has the smaller fee.  The value is the negated slope of the
    chord between them in cost-per-fee form, a reduced ``Fraction`` for int
    and ``Fraction`` totals alike; for two adjacent frontier points it is
    the multiplier at which their segment is optimal.
    """
    return Fraction(p_low.cost - p_high.cost, p_high.fee - p_low.fee)


def attach_lambda_intervals(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Fill optimality intervals from adjacent segment multipliers.

    ``points`` must be extreme points sorted by increasing fee.  Segment
    multipliers decrease along that order: the lowest-fee point is optimal
    for all large multipliers, the highest-fee point down to zero.
    """
    lams = [None, *(edge_multiplier(a, b) for a, b in zip(points, points[1:])), Fraction(0)]
    return [replace(p, lambda_low=lams[i + 1], lambda_high=lams[i]) for i, p in enumerate(points)]


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
    builds :class:`Flow` values and their budget combination.
    """
    basis = Basis(inst)
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
    for lam in multipliers():
        if probes == cap:
            raise InternalSolverError(f"multiplier search exceeded its cap of {cap} probes")
        probes += 1
        verdict = lambda_callback(basis, lam)
        if verdict.kind is VerdictKind.INSIDE:
            # without a fee-maximal witness the fee-minimal optimum is
            # feasible (fee <= budget) and is the answer
            flow = Flow.from_values(inst, verdict.x_minfee.values)
            if verdict.x_maxfee is not None:
                x_max = Flow.from_values(inst, verdict.x_maxfee.values)
                flow = budget_combination(flow, x_max, budget)
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

    Dichotomic subdivision (Aneja & Nair 1979): solve at multipliers 0 and
    one beyond every slope, then once per chord of two adjacent known
    points, for the fee-minimal optimum at the chord's multiplier.  One that
    ties the chord closes it as a segment.  One that beats it is a new
    extreme point, strictly between the corners in fee, since each corner
    is optimal at a multiplier on its own side of the chord's.  So P >= 2
    points take exactly 2P - 1 solves (P = 1 takes 2), and P is not
    polynomially bounded in general.  All solves share one simplex basis,
    so each starts from the optimum of the solve before it.  The chords are
    tested on the solves' int totals, and a solve's values are copied only
    when it is a new extreme point; the kept points become :class:`Flow`
    witnesses at the end.
    """
    stats = instance_stats(inst)
    basis = Basis(inst)
    m = inst.edge_count

    def extreme(lam: Fraction) -> Witness:
        cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam, "min"))
        return Witness(basis.flow[:m], cost, fee)

    top = extreme(Fraction(0))
    bottom = extreme(stats.lambda_above_all_slopes())

    def expand(x_low: Witness, x_high: Witness) -> list[Witness]:
        """Extreme points strictly between two known ones (fee order)."""
        lam = edge_multiplier(x_low, x_high)
        cost, fee = min_cost_circulation(basis, lambda_cost(basis, lam, "min"))
        # with lam = p/q, the solve ties the chord iff q * (cost - cost_low)
        # + p * (fee - fee_low) = 0: the chord is a frontier segment
        if lam.denominator * (cost - x_low.cost) + lam.numerator * (fee - x_low.fee) == 0:
            return []
        q = Witness(basis.flow[:m], cost, fee)
        return expand(x_low, q) + [q] + expand(q, x_high)

    if (top.cost, top.fee) == (bottom.cost, bottom.fee):
        extremes = [bottom]
    else:
        extremes = [bottom] + expand(bottom, top) + [top]
    witnesses = [Flow.from_values(inst, x.values) for x in extremes]
    return attach_lambda_intervals(
        [FrontierPoint(x.cost, x.fee, x, Fraction(0), None) for x in witnesses]
    )
