"""Exact solver: multiplier trichotomy test, grid binary search, frontier.

The budget-constrained optimum is a point of the lower-left (cost, fee)
Pareto frontier on or below the budget line.  For a multiplier ``lam``, a
pair of lexicographic min-cost-circulation solves under costs
``cost + lam * fee`` (fee-minimal and fee-maximal among optima) reveals
whether ``lam`` is below, inside, or above the closed interval of optimal
multipliers.  A binary search over a grid fine enough to separate frontier
slopes brackets that interval; the optimum is then recovered as a convex
combination of the two corner flows of the frontier segment crossing the
budget line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .frontier import FrontierPoint, attach_lambda_intervals, edge_multiplier
from .mcc import InternalSolverError, lambda_cost, min_cost_circulation
from .model import (
    Flow,
    Instance,
    Solution,
    circulation_form,
    combine_flows,
    instance_stats,
    project_flow,
)

_REFINE_CAP = 100_000


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

    @property
    def is_inside(self) -> bool:
        return self.kind is VerdictKind.INSIDE


def lambda_callback(circ: Instance, lam: Fraction) -> CallbackVerdict:
    """Decide where ``lam`` sits relative to the optimal multiplier interval.

    ``circ`` must be in circulation form (return arc present).  Verdicts:
    BELOW when even the fee-minimal optimum overshoots the budget, ABOVE
    when the fee-maximal optimum undershoots it (only for lam > 0; at
    lam = 0 a slack budget means the unconstrained optimum already wins,
    hence INSIDE), INSIDE otherwise.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"multiplier {lam} is negative")
    if circ.return_arc_index is None:
        raise ValueError("lambda_callback needs a circulation-form instance")
    x_min = min_cost_circulation(circ, lambda_cost(circ, lam, "min"))
    x_max = min_cost_circulation(circ, lambda_cost(circ, lam, "max"))
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

    Requires fee(x1) <= budget <= fee(x2).  Returns x1 unchanged when both
    fees coincide.
    """
    budget = Fraction(budget)
    if not x1.fee <= budget <= x2.fee:
        raise ValueError(
            f"budget {budget} not between fees {x1.fee} and {x2.fee}"
        )
    if x2.fee == x1.fee:
        return x1
    alpha = (x2.fee - budget) / (x2.fee - x1.fee)
    return combine_flows(x1, x2, alpha)


def _point(flow: Flow) -> tuple[Fraction, Fraction]:
    return (flow.cost, flow.fee)


def solve_exact(inst: Instance) -> Solution:
    """Optimal budget-constrained min-cost flow, exactly.

    Probes lam = 0 first (handles a slack budget outright), then binary
    searches the multiplier grid with spacing 1/(2*cbar^2) up to bbar.  An
    INSIDE probe short-circuits; otherwise the search ends with a
    bracketing BELOW/ABOVE pair and the crossing segment's corners are
    recovered by chord probes: probing the multiplier of the chord through
    the current corner candidates either certifies the chord as a frontier
    segment (INSIDE) or discovers a strictly better extreme point, so the
    recovery terminates after finitely many probes (one, when the bracket
    already holds a single frontier segment).
    """
    circ = circulation_form(inst)
    budget = Fraction(inst.budget)
    probes = 0

    def probe(lam: Fraction) -> CallbackVerdict:
        nonlocal probes
        probes += 1
        return lambda_callback(circ, lam)

    def finish(flow: Flow, lam: Fraction, refine_probes: int, segment=None) -> Solution:
        flow = project_flow(inst, flow)
        return Solution(
            flow=flow,
            objective=flow.cost,
            algorithm="exact",
            iterations=probes + refine_probes,
            lam=lam,
            frontier_segment=segment,
            search_probes=probes,
            refine_probes=refine_probes,
        )

    def inside_flow(verdict: CallbackVerdict) -> Flow:
        return budget_combination(verdict.x_minfee, verdict.x_maxfee, budget)

    v0 = probe(Fraction(0))
    if v0.is_inside:
        # fee-minimal unconstrained optimum; feasible since fee <= budget
        return finish(v0.x_minfee, Fraction(0), 0)

    stats = instance_stats(inst)
    denom = 2 * stats.cbar * stats.cbar
    k_max = 2 * stats.bbar * stats.cbar * stats.cbar
    if stats.cbar == 0 or k_max == 0:
        raise InternalSolverError("lam=0 verdict BELOW on an instance with empty grid")

    v_top = probe(Fraction(k_max, denom))
    if v_top.is_inside:
        seg = (_point(v_top.x_minfee), _point(v_top.x_maxfee))
        return finish(inside_flow(v_top), Fraction(k_max, denom), 0, seg)

    if v_top.kind is VerdictKind.BELOW:
        # optimal interval lies beyond the grid; bracket with a multiplier
        # larger than any frontier slope (its optimum has the minimum fee, 0)
        lam_inf = stats.lambda_above_all_slopes()
        v_inf = probe(lam_inf)
        if v_inf.is_inside:
            seg = (_point(v_inf.x_minfee), _point(v_inf.x_maxfee))
            return finish(inside_flow(v_inf), lam_inf, 0, seg)
        if v_inf.kind is not VerdictKind.ABOVE:
            raise InternalSolverError("beyond-slope multiplier did not verdict ABOVE")
        below, above = v_top, v_inf
    else:
        lo, hi = 0, k_max
        lo_v, hi_v = v0, v_top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = probe(Fraction(mid, denom))
            if v_mid.is_inside:
                seg = (_point(v_mid.x_minfee), _point(v_mid.x_maxfee))
                return finish(inside_flow(v_mid), Fraction(mid, denom), 0, seg)
            if v_mid.kind is VerdictKind.BELOW:
                lo, lo_v = mid, v_mid
            else:
                hi, hi_v = mid, v_mid
        below, above = lo_v, hi_v

    # corner recovery between the bracketing verdicts: over-budget corner
    # from the BELOW side, under-budget corner from the ABOVE side
    x_over = below.x_maxfee
    x_under = above.x_minfee
    refine = 0
    while True:
        refine += 1
        if refine > _REFINE_CAP:
            raise InternalSolverError("corner refinement exceeded its probe cap")
        lam = (x_under.cost - x_over.cost) / (x_over.fee - x_under.fee)
        verdict = lambda_callback(circ, lam)
        if verdict.is_inside:
            seg = (_point(verdict.x_minfee), _point(verdict.x_maxfee))
            return finish(inside_flow(verdict), lam, refine, seg)
        if verdict.kind is VerdictKind.BELOW:
            # every optimum at lam overshoots: its fee-minimal one is a
            # strictly better over-budget corner
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
    small but is not polynomially bounded in general.
    """
    circ = circulation_form(inst)
    stats = instance_stats(inst)

    def solve_point(lam: Fraction) -> Flow:
        return project_flow(inst, min_cost_circulation(circ, lambda_cost(circ, lam, "min")))

    def as_point(flow: Flow) -> FrontierPoint:
        return FrontierPoint(flow.cost, flow.fee, flow, Fraction(0), None)

    top = as_point(solve_point(Fraction(0)))
    bottom = as_point(solve_point(stats.lambda_above_all_slopes()))
    if (top.cost, top.fee) == (bottom.cost, bottom.fee):
        return attach_lambda_intervals([bottom])

    def expand(p_low: FrontierPoint, p_high: FrontierPoint) -> list[FrontierPoint]:
        """Extreme points strictly between two known ones (fee order)."""
        lam = edge_multiplier(p_low, p_high)
        verdict = lambda_callback(circ, lam)
        x_min = verdict.x_minfee
        if x_min.cost + lam * x_min.fee == p_low.cost + lam * p_low.fee:
            return []  # the chord is a frontier segment
        q_low = as_point(project_flow(inst, x_min))
        q_high = as_point(project_flow(inst, verdict.x_maxfee))
        between = expand(p_low, q_low) + [q_low]
        if (q_high.cost, q_high.fee) != (q_low.cost, q_low.fee):
            between.append(q_high)  # q_low-q_high is itself a segment
        return between + expand(q_high, p_high)

    points = [bottom] + expand(bottom, top) + [top]
    return attach_lambda_intervals(points)
