"""Pareto frontier extreme points shared by the exact solver and the oracle."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .model import Flow


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
