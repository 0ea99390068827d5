"""Brute-force references that only the tests compare against.

Integral flow enumeration, the exact Pareto frontier as the lower-left hull
of the integral point cloud, and exhaustive minimum-ratio cycle and path
searches.  Everything here is exponential by design and guarded to desk
scale.  The frontier reference shares only the point type and the interval
bookkeeping with ``bcmcf.exact``; its hull never calls a solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from bcmcf.exact import FrontierPoint, attach_lambda_intervals
from bcmcf.model import Flow, Instance
from bcmcf.oracle import DEFAULT_GUARD, build_point_cloud, iter_integral_values


def enumerate_integral_flows(inst: Instance, guard: int = DEFAULT_GUARD) -> list[Flow]:
    return [Flow.from_values(inst, vals) for vals in iter_integral_values(inst, guard)]


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
    points = [
        FrontierPoint(
            cost=Fraction(cloud.points[i][0]),
            fee=Fraction(cloud.points[i][1]),
            witness=Flow.from_values(inst, cloud.witnesses[i]),
            lambda_low=Fraction(0),
            lambda_high=None,
        )
        for i in hull
    ]
    return attach_lambda_intervals(points)


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
