"""Packing-LP approximation scheme with minimum-ratio cycle/path oracles.

The circulation form of the problem is a packing LP over negative-cost
cycles: pack cycle flow against edge capacities and the fee budget.  The
multiplicative-weights loop keeps a positive length per capacity row and
one for the budget row, and repeatedly routes the cycle minimizing
(fee-weighted length)/(-cost).  Every oracle answer also bounds the optimum
by weak duality, and the loop stops once the routed flow, scaled to
feasibility, certifiably reaches (1 - eps) of that bound.

Both oracles run one Newton (Dinkelbach) loop on the ratio, ``_newton``:
test the float lengths num - lam * den at the current column's ratio
divided by (1 + tolerance), jump to any column the test finds, and stop
once a test finds none, so every answer is nearly minimal.  Only the test
differs.  On general graphs it is the package's negative-cycle detector,
``mcc.find_negative_cycle``, over arcs that ``solve_gk`` builds once per
solve; the seed search for a first cycle runs once per solve, and every
later call starts from the column the loop just rejected.  On acyclic
graphs every candidate cycle is a path between source and sink (in one
orientation or the other) plus the matching zero-cost closure arc, so the
test is one float pass over a topological order; its set-up (the order,
out-edge lists, denominators and a maximum-denominator first path) is
built once per solve.

Dual lengths and the dual objective are running floats; the loop counts
routings per column and returns routed values as ints over one power-of-two
scale, so the flow conserves exactly, its scaling to feasibility is an exact
int comparison, and one ``Fraction`` is built per distinct value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, NamedTuple, Sequence

from . import mcc
from .mcc import InternalSolverError
from .model import Flow, Instance, Solution, circulation_form, restore_flow


class CyclicGraphError(ValueError):
    """The acyclic-only entry point received a graph with a directed cycle."""


@dataclass
class DualState:
    """Multiplicative-weights lengths: one per capacity row, one for the budget.

    ``budget_length`` is None when the budget row is dropped (budget zero).
    True lengths are the stored ones times ``exp(log_shift)``: only length
    ratios feed the oracle, so the common scale lives in the exponent and
    the stored floats are renormalized whenever they grow large.  That keeps
    the loop exact-in-spirit for accuracies whose start value ``delta``
    underflows a float.  The dual objective, tracked in log space, starts
    below zero and the loop stops once it reaches it.  ``total`` is the
    running objective of the stored lengths; ``objective`` resyncs it.
    """

    lengths: list[float]
    budget_length: float | None
    log_shift: float = 0.0
    total: float = 0.0

    def objective(self, capacities: Sequence[int], budget: int) -> float:
        """The exact objective of the stored lengths; resyncs ``total``."""
        total = sum(map(mul, capacities, self.lengths))
        if self.budget_length is not None:
            total += budget * self.budget_length
        self.total = total
        return total

    def log_objective(self) -> float:
        """The true objective's log, in O(1) from the running ``total``."""
        return math.log(self.total) + self.log_shift

    def renormalize(self, capacities: Sequence[int], budget: int) -> float:
        """Divide stored lengths by their objective; returns the factor."""
        total = self.objective(capacities, budget)
        self.lengths = [y / total for y in self.lengths]
        if self.budget_length is not None:
            self.budget_length /= total
        self.log_shift += math.log(total)
        self.objective(capacities, budget)
        return total


@dataclass(frozen=True)
class RatioResult:
    """A cycle or path with its ratio and a proven lower end.

    ``lower`` is a proven lower bound on the minimum ratio over all
    candidates with positive denominator: the threshold of the oracle's
    last parametric test, which found no candidate below it.
    """

    edges: tuple[int, ...]
    ratio: float
    lower: float


# ---------------------------------------------------------------------------
# the oracles' Newton loop on the parametric lengths num - lam * den
# ---------------------------------------------------------------------------


def _newton(
    test: Callable[[list[float]], Sequence[int] | None],
    num: Sequence[float],
    den: Sequence[float],
    rel_tol: float,
    den_sum: float,
    first: Sequence[int],
) -> RatioResult:
    """Nearly minimum-ratio column by Newton steps on the ratio, from ``first``.

    Requires num >= 0 per arc, ``den_sum`` the sum of the positive ``den``
    and ``first`` a column with positive denominator.  ``test(weights)``
    returns a column of negative total weight, or None when none has one.
    A column with ratio below ``lam`` exists exactly when the lengths
    num - lam * den give some column a negative weight (columns with
    nonpositive denominator can never look negative there since their
    parametric length stays nonnegative).  Each step tests
    ``lam = r / (1 + rel_tol)`` for the current column's ratio r: a column
    found there has a ratio below ``lam`` and becomes the current one, and
    a test that finds none proves every ratio at least ``lam``.  The
    returned ratio is then within (1 + rel_tol) of the true minimum over
    columns with positive denominator, and ``lower`` is that ``lam``.

    Each step divides a positive ratio by more than 1 + rel_tol, positive
    ratios never fall below (least positive num)/``den_sum``, and a zero
    ratio stops at the next test; more steps than that allows from the
    first column's ratio, or a step whose ratio does not fall, raises
    InternalSolverError.
    """

    def ratio_of(column: Sequence[int]) -> float:
        d = sum(den[a] for a in column)
        if d <= 0:
            # exactly, a negative column under num - lam * den has den > 0
            raise InternalSolverError(
                f"oracle test returned a column with denominator sum {d}: "
                "float cancellation in the parametric lengths"
            )
        return sum(num[a] for a in column) / d

    # Step cap from the first column's ratio r0: at most
    # log(r0 / floor) / log1p(rel_tol) steps keep a positive ratio, one more
    # may reach zero, and one more certifies the last column.  The floor's
    # least positive num is the least nonzero one: none is negative.
    column, ratio = first, ratio_of(first)
    steps = 2
    if ratio > 0:
        floor = math.log(min(filter(None, num))) - math.log(den_sum)
        steps += math.ceil((math.log(ratio) - floor) / math.log1p(rel_tol))
    for _ in range(steps):
        lam = ratio / (1.0 + rel_tol)
        found = test([x - lam * d for x, d in zip(num, den)])
        if found is None:
            return RatioResult(tuple(column), ratio, lam)
        found_ratio = ratio_of(found)
        if not found_ratio < ratio:
            raise InternalSolverError("oracle step did not lower the ratio")
        column, ratio = found, found_ratio
    raise InternalSolverError("oracle exceeded its proven step bound")


def _check_ratio_inputs(num: Sequence[float], rel_tol: float) -> None:
    """Reject a tolerance outside (0, 1) or a negative numerator."""
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol {rel_tol} outside (0, 1)")
    if min(num, default=0) < 0:
        raise ValueError("ratio numerators must be nonnegative")


# ---------------------------------------------------------------------------
# cycle oracle: the negative-cycle detector as the Newton test
# ---------------------------------------------------------------------------


def _cycle_arcs(inst: Instance) -> list[tuple[int, int, int]]:
    """The ``(tail, head, index)`` arcs the cycle oracle's detector scans."""
    return [(e.tail, e.head, a) for a, e in enumerate(inst.edges)]


def min_ratio_cycle(
    inst: Instance,
    num: Sequence[float],
    den: Sequence[float],
    rel_tol: float,
    arcs: Sequence[tuple[int, int, int]],
    den_sum: float,
    start: Sequence[int] | None = None,
) -> RatioResult | None:
    """Nearly minimum-ratio simple cycle: ``_newton`` over negative-cycle tests.

    Requires num >= 0 per edge.  The returned ratio is within
    (1 + rel_tol) of the minimum over cycles with positive denominator.
    ``arcs`` is ``_cycle_arcs(inst)`` and ``den_sum`` the sum of the
    positive ``den``; both are fixed for as long as ``inst`` and ``den``
    are, so a caller builds them once.  ``start``, a simple cycle with
    positive denominator, replaces the seed search for the first cycle;
    without it None is returned when no cycle has positive denominator.
    """
    _check_ratio_inputs(num, rel_tol)
    if start is None:
        # a qualifying cycle exists iff some cycle has negative total -den
        start = mcc.find_negative_cycle(inst.node_count, arcs, [-d for d in den])
        if start is None:
            return None
    elif not sum(den[a] for a in start) > 0:
        raise ValueError("start cycle needs a positive denominator")
    test = functools.partial(mcc.find_negative_cycle, inst.node_count, arcs)
    return _newton(test, num, den, rel_tol, den_sum, start)


# ---------------------------------------------------------------------------
# path oracle on acyclic graphs: one topological-order pass as the Newton test
# ---------------------------------------------------------------------------


def topological_order(inst: Instance) -> list[int]:
    """Topological node order; raises CyclicGraphError on a directed cycle."""
    indeg = [0] * (inst.node_count + 1)
    out: list[list[int]] = [[] for _ in range(inst.node_count + 1)]
    for e in inst.edges:
        indeg[e.head] += 1
        out[e.tail].append(e.head)
    queue = [v for v in range(1, inst.node_count + 1) if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != inst.node_count:
        raise CyclicGraphError("graph contains a directed cycle")
    return order


def _negative_dag_path(
    inst: Instance,
    order: Sequence[int],
    out_edges: Sequence[Sequence[tuple[int, int]]],
    source: int,
    sink: int,
    weights: Sequence[float],
) -> list[int] | None:
    """A minimum-weight ``source``-``sink`` path if its weight is negative.

    One pass over the topological ``order``; ``out_edges[v]`` lists (edge
    index, head) pairs.  Returns None when the sink is unreachable or no
    path weighs below 0.
    """
    size = inst.node_count + 1
    label = [math.inf] * size
    pred = [-1] * size
    label[source] = 0.0
    for v in order:
        base = label[v]
        if base == math.inf:
            continue
        for i, head in out_edges[v]:
            w = base + weights[i]
            if w < label[head]:
                label[head] = w
                pred[head] = i
    if not label[sink] < 0:
        return None
    path = []
    node = sink
    while node != source:
        i = pred[node]
        path.append(i)
        node = inst.edges[i].tail
    path.reverse()
    return path


class PathSetup(NamedTuple):
    """What the path oracle keeps fixed for as long as the graph and ``den``.

    ``order`` is a topological order of the nodes, ``out_edges[v]`` lists
    (edge index, head) pairs, and ``den_sum`` is the sum of the positive
    ``den``.  ``first`` is a maximum-denominator path, or None when no path
    has a positive denominator.
    """

    order: Sequence[int]
    out_edges: Sequence[Sequence[tuple[int, int]]]
    den: Sequence[float]
    den_sum: float
    first: Sequence[int] | None


def _path_setup(
    inst: Instance,
    order: Sequence[int],
    den: Sequence[float],
    source: int,
    sink: int,
) -> PathSetup:
    """Build the path oracle's set-up for ``inst`` in topological ``order``.

    ``order`` may come from any graph with ``inst``'s nodes and a superset
    of its edges.  The oracle's own pass, on the weights -den, finds the
    maximum-denominator path when that maximum is positive.
    """
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(inst.node_count + 1)]
    for i, e in enumerate(inst.edges):
        out_edges[e.tail].append((i, e.head))
    first = _negative_dag_path(inst, order, out_edges, source, sink, [-d for d in den])
    return PathSetup(order, out_edges, den, sum(d for d in den if d > 0), first)


def min_ratio_path_dag(
    inst: Instance,
    num: Sequence[float],
    source: int,
    sink: int,
    setup: PathSetup,
    rel_tol: float,
) -> RatioResult | None:
    """Nearly minimum-ratio ``source``-``sink`` path on an acyclic graph.

    ``_newton`` from the maximum-denominator path, with one float pass over
    the topological order as its test.  Requires num >= 0 per edge.  The
    returned ratio is within (1 + rel_tol) of the minimum over paths with
    positive denominator.  ``setup`` is
    ``_path_setup(inst, order, den, source, sink)``: the topological order,
    the out-edge lists, the denominators and the first path are fixed for
    as long as ``inst`` and ``den`` are, so a caller builds them once.
    Returns None if no source-sink path has positive denominator.
    """
    _check_ratio_inputs(num, rel_tol)
    if setup.first is None:
        return None
    test = functools.partial(
        _negative_dag_path, inst, setup.order, setup.out_edges, source, sink
    )
    return _newton(test, num, setup.den, rel_tol, setup.den_sum, setup.first)


# ---------------------------------------------------------------------------
# the multiplicative-weights loop
# ---------------------------------------------------------------------------

# an oracle takes one numerator length per edge and a relative tolerance
Oracle = Callable[[Sequence[float], float], RatioResult | None]


def _reduced_for_packing(inst: Instance) -> Instance:
    """Drop zero-capacity edges, and fee-carrying edges when the budget is 0.

    The result keeps the budget, so the loop keeps a budget row exactly
    when it is positive, and records each kept edge's position in ``inst``
    as its ``edge_origin``.
    """
    keep = [
        i
        for i, e in enumerate(inst.edges)
        if e.capacity > 0 and (inst.budget > 0 or e.fee == 0)
    ]
    return Instance(
        node_count=inst.node_count,
        edges=tuple(inst.edges[i] for i in keep),
        source=inst.source,
        sink=inst.sink,
        budget=inst.budget,
        edge_origin=tuple(keep),
    )


# Relative slack on the stop test.  It absorbs float rounding in the loads,
# the routed profit, the dual objective and the oracle's lower end, each
# off by about (arcs + iterations) units in the last place.  The running
# dual objective drifts by about one unit per iteration since its resync at
# the last oracle call; only the fallback stop at objective 1 and the
# renormalization below read it.
CERTIFICATE_MARGIN = 1e-9

# The stored lengths are renormalized once their running objective exceeds
# this; capacities and a positive budget are ints >= 1, so no stored length
# is larger.
LENGTH_CEILING = 1e120


def _scaled_ints(values: Sequence[int | float]) -> tuple[list[int], int]:
    """Return (ints, scale) with ints[i] == values[i] * scale exactly.

    Every int and float is exactly p/q with q a power of two, and ``scale``
    is the least common multiple of the q's, so the conversion stays exact
    over the whole float range.
    """
    ratios = [x.as_integer_ratio() for x in values]
    # pairwise: unpacking a generator into math.lcm leaves its resized
    # argument tuples in the interpreter's free lists, raising peak memory
    scale = 1
    for _, q in ratios:
        scale = math.lcm(scale, q)
    return [p * (scale // q) for p, q in ratios], scale


def _gk_loop(
    reduced: Instance,
    eps: float,
    oracle: Oracle,
) -> tuple[dict[tuple[int, ...], int], int, int, float]:
    """Run the width-controlled packing loop until a certified gap closes.

    Returns (routed columns, scale, iterations, upper bound on the optimum).
    ``eps`` is the solver's accuracy; one outside (0, 1), or one so small
    that the loop's internal accuracy eps' = eps/4 leaves no float phase
    count, raises ``ValueError``.  ``oracle`` sees one numerator length per
    ``reduced`` edge and the tolerance eps', and may return columns through
    extra arcs of its own, which carry no length, cost or fee (the cycle
    oracle's closure arcs).  Oracle calls are lazy: the previously returned
    column keeps being routed while its ratio stays within (1 + eps') of
    the last oracle answer, which the monotone growth of all lengths makes
    sound.

    Why eps/4: an answer is within (1 + eps') of the minimum ratio, and the
    lazy rule keeps a routed column within (1 + eps') of the answer, so every
    routed column is within (1 + eps')^2 of the minimum.  Garg and
    Koenemann's analysis of the proven stop at dual objective 1 loses a
    factor of about 1 - 2 eps' in the loop itself and the column's factor on
    top, and (1 - 2 eps') / (1 + eps')^2 >= 1 - 4 eps' = 1 - eps.

    Between oracle calls an iteration touches only its column's edges (the
    lazy test, the running objective).  Routings are counted per column: a
    routed value is ``scale`` times the column's exact amount times its
    count, an int: each amount is an int capacity or a float budget / fee.

    Weak duality: lengths divided by any lower bound on the minimum column
    ratio are dual feasible, so every real oracle call bounds the optimum
    by (dual objective)/(its ``lower``).  The loop stops once the routed
    flow divided by its worst row load reaches 1 - ``eps`` times the least
    such bound, or, as the scheme's proven fallback, once the dual
    objective reaches 1.
    """
    if not 0 < eps < 1:
        raise ValueError(f"epsilon {eps} outside (0, 1)")
    eps_prime = eps / 4.0
    target = 1.0 - eps
    m = reduced.edge_count
    budget = reduced.budget
    budget_row = budget > 0
    rows = m + (1 if budget_row else 0)
    capacities = [e.capacity for e in reduced.edges]
    fees = [e.fee for e in reduced.edges]
    if m == 0:
        return {}, 1, 0, 0.0  # no edges means no columns: the zero flow stands

    # start value delta is handled in log space: it underflows a float for
    # small accuracies, but only length ratios ever reach the oracle
    try:
        log_delta = math.log1p(eps_prime) - math.log((1.0 + eps_prime) * rows) / eps_prime
        phases = (math.log1p(eps_prime) - log_delta) / math.log1p(eps_prime)
        iteration_cap = 4 * rows * (int(phases) + 1) + 64
    except (ZeroDivisionError, OverflowError):
        # eps_prime is 0, or the phases, about log(rows) / eps_prime^2, exceed
        # every float: eps below about 1e-154
        raise ValueError(f"epsilon {eps} is too small for float lengths") from None

    dual = DualState(
        lengths=[1.0 / u for u in capacities],
        budget_length=(1.0 / budget) if budget_row else None,
        log_shift=log_delta,
    )
    dual.objective(capacities, budget)  # the running total starts exact

    counts: dict[tuple[int, ...], int] = {}
    amounts: dict[tuple[int, ...], int | float] = {}
    iterations = 0
    current: tuple[int, ...] | None = None
    threshold = math.inf
    bound = math.inf
    loads = [0.0] * m
    fee_load = 0.0
    worst = 0.0  # max over rows of load / capacity
    profit = 0.0
    while dual.log_objective() < 0.0:
        iterations += 1
        if iterations > iteration_cap:
            raise InternalSolverError("packing loop exceeded its iteration cap")
        if dual.total > LENGTH_CEILING:
            # thresholds are length ratios, so they rescale with the lengths
            threshold /= dual.renormalize(capacities, budget)
        lengths = dual.lengths
        mu = dual.budget_length or 0.0
        # every column has positive gain: both oracles return only columns
        # with a positive denominator sum
        if current is None or (
            length := sum(lengths[i] + fees[i] * mu for i in edges)
        ) / gain > threshold:
            nums = [y + b * mu for y, b in zip(lengths, fees)]
            answer = oracle(nums, eps_prime)
            if answer is None:
                bound = 0.0
                break  # no qualifying column at all: optimum is the zero flow
            current = tuple(answer.edges)
            edges = [i for i in current if i < m]
            gain = -sum(reduced.edges[i].cost for i in edges)
            length = sum(nums[i] for i in edges)
            threshold = (1.0 + eps_prime) * (length / gain)
            objective = dual.objective(capacities, budget)
            if answer.lower > 0:
                # stored lengths: log_shift cancels out of the ratio
                bound = min(bound, objective / answer.lower)
            cycle_fee = sum(fees[i] for i in edges)
            amount = min(capacities[i] for i in edges)
            if budget_row and cycle_fee > 0:
                amount = min(amount, budget / cycle_fee)
            amounts[current] = amount
        counts[current] = counts.get(current, 0) + 1
        profit += amount * gain
        # sum of u * (growth of y) over the column's rows, budget row included
        dual.total += eps_prime * amount * length
        for i in edges:
            loads[i] += amount
            worst = max(worst, loads[i] / capacities[i])
            lengths[i] *= 1.0 + eps_prime * amount / capacities[i]
        if budget_row and cycle_fee > 0:
            assert dual.budget_length is not None
            fee_load += amount * cycle_fee
            worst = max(worst, fee_load / budget)
            dual.budget_length *= 1.0 + eps_prime * amount * cycle_fee / budget
        if profit >= target * bound * (1.0 + CERTIFICATE_MARGIN) * worst:
            break
    ints, scale = _scaled_ints(list(amounts.values()))
    routed = {column: p * counts[column] for column, p in zip(amounts, ints)}
    return routed, scale, iterations, bound


def _assemble_flow(
    inst: Instance, reduced: Instance, routed: dict[tuple[int, ...], int], scale: int
) -> Flow:
    """Exactly accumulate routed columns and scale them to feasibility.

    A routed value is ``scale`` times its column's exact routed flow, on
    each of its edges, so conservation holds exactly.  The flow is divided
    by its worst row load (capacity or budget), the exact counterpart of the
    loop's float stop test: 1 or more unless nothing was routed, save for
    float rounding on the budget row.  As that load is top / (bottom * scale),
    ``scale`` cancels: one ``Fraction`` is built per distinct value and total.
    """
    m = reduced.edge_count
    values = [0] * m
    for edges, amount in routed.items():
        for i in edges:
            if i < m:
                values[i] += amount
    cost, fee = (sum(map(mul, map(attrgetter(k), reduced.edges), values)) for k in ("cost", "fee"))
    top, bottom = 0, 1  # compared by cross-multiplying ints
    for load, size in zip([*values, fee], [*(e.capacity for e in reduced.edges), reduced.budget]):
        if size > 0 and load * bottom > top * size:  # a zero budget has no row
            top, bottom = load, size
    top = top or scale  # nothing routed: the values stay zero
    as_fraction = {v: Fraction(v * bottom, top) for v in set(values)}
    values = tuple(map(as_fraction.__getitem__, values))
    flow = Flow(values, Fraction(cost * bottom, top), Fraction(fee * bottom, top))
    return restore_flow(inst, reduced, flow)  # lifted back onto inst's edges


def solve_gk(inst: Instance, eps: float) -> Solution:
    """(1 - eps)-approximate solver for general graphs.

    The loop stops at a certified (1 - eps) gap: the routed flow, scaled to
    feasibility, reaches (1 - eps) of the weak-duality bound that the cycle
    oracle's proven lower ends give, or at the loop's proven fallback stop
    (``_gk_loop``).  The budget-zero case drops fee-carrying edges and the
    budget row entirely.
    """
    reduced = _reduced_for_packing(inst)
    circ = circulation_form(reduced)
    den = [float(-e.cost) for e in circ.edges]  # zero on the closure arcs
    arcs = _cycle_arcs(circ)
    den_sum = sum(d for d in den if d > 0)

    last: RatioResult | None = None

    def oracle(nums: Sequence[float], rel_tol: float) -> RatioResult | None:
        # the two closure arcs carry no length; each call after the first
        # starts from the column the loop just rejected, the last answer
        nonlocal last
        last = min_ratio_cycle(
            circ, [*nums, 0.0, 0.0], den, rel_tol, arcs, den_sum, last and last.edges
        )
        return last

    routed, scale, iterations, _ = _gk_loop(reduced, eps, oracle)
    flow = _assemble_flow(inst, reduced, routed, scale)
    return Solution(flow=flow, objective=flow.cost, algorithm="gk", iterations=iterations)


def solve_gk_acyclic(inst: Instance, eps: float) -> Solution:
    """(1 - eps)-approximate solver for acyclic graphs.

    Every circulation cycle is a simple path between source and sink (in
    either orientation) closed by the matching zero-cost closure arc, so
    the oracle is the min-ratio path search on the original graph, whose
    Newton test is one float pass over a topological order.  Every path
    runs forward in that order, so only the orientation whose start comes
    first can hold one, and the search runs in that one.  The oracle's
    set-up is built once per solve, on the order that the acyclicity check
    computes.  The loop and its stops are ``solve_gk``'s.
    """
    try:
        order = topological_order(inst)
    except CyclicGraphError:
        raise CyclicGraphError(
            "graph contains a directed cycle; use solve_gk instead"
        ) from None
    reduced = _reduced_for_packing(inst)
    den = [float(-e.cost) for e in reduced.edges]
    start, end = inst.source, inst.sink
    if order.index(end) < order.index(start):
        start, end = end, start
    setup = _path_setup(reduced, order, den, start, end)

    def oracle(nums: Sequence[float], rel_tol: float) -> RatioResult | None:
        return min_ratio_path_dag(reduced, nums, start, end, setup, rel_tol)

    routed, scale, iterations, _ = _gk_loop(reduced, eps, oracle)
    flow = _assemble_flow(inst, reduced, routed, scale)
    return Solution(flow=flow, objective=flow.cost, algorithm="gk-acyclic", iterations=iterations)
