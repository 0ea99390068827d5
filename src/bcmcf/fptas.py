"""Packing-LP approximation scheme with threshold-test ratio oracles.

With the sink merged into the source (``model.merged_ends``) the problem's
flows are circulations, so it is a packing LP over negative-cost cycles:
pack cycle flow against edge capacities and the fee budget.  The
multiplicative-weights loop keeps a positive length per capacity row and
one for the budget row, and repeatedly routes a cycle of nearly minimal
(fee-weighted length)/(-cost).  Every proven lower bound on that ratio
also bounds the optimum by weak duality, and the loop stops once the
routed flow, scaled to feasibility, certifiably reaches (1 - eps) of that
bound.

Both oracles are threshold tests, as in Fleischer's phases: a test at lam
weighs each edge num - lam * den, its length minus lam times its gain, and
returns a column of negative weight, one whose ratio is below lam, or None,
which proves every ratio at least lam.  The loop keeps alpha, a proven
lower bound on the minimum ratio, and routes a column only while its ratio
is below t = (1 + eps') * alpha, where it tests.  Only the test differs
between the solvers.  On general graphs it is the
package's negative-cycle detector, ``mcc.find_negative_cycle``, over arcs
that ``solve_gk`` builds once per solve.  On acyclic graphs every
candidate cycle is a path between source and sink (in one orientation or
the other), so the test is one float pass over the edges in a
topological order of their tails, sorted once per solve.

Most tests would find a column the loop has routed before, so each run
keeps its routed columns in a heap keyed by lower bounds on their ratios,
and runs a test only once no pooled column is below its threshold; a
test that finds none is still the only proof that raises alpha.

Dual lengths and the dual objective are running floats; the loop counts
routings per column and returns routed values as ints over one power-of-two
scale, so the flow conserves exactly and its scaling to feasibility is an
exact int comparison.  The routed ints are summed straight onto the
instance's edges and handed to ``Flow.from_values`` over the worst row
load, its one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from operator import mul
from typing import Callable, Sequence

from . import mcc
from .mcc import InternalSolverError
from .model import Flow, Instance, Solution, merged_ends


class CyclicGraphError(ValueError):
    """The acyclic-only entry point received a graph with a directed cycle."""


@dataclass
class DualState:
    """Multiplicative-weights lengths: one per capacity row, one for the budget.

    ``budget_length`` is 0.0 when the budget row is dropped (budget zero).
    True lengths are the stored ones times ``exp(log_shift)``: only length
    ratios feed the tests, so the common scale lives in the exponent and
    the stored floats are renormalized whenever they grow large.  That keeps
    the loop exact-in-spirit for accuracies whose start value ``delta``
    underflows a float.  The dual objective, tracked in log space, starts
    below zero and the loop stops once it reaches it.  ``total`` is the
    running objective of the stored lengths; ``objective`` resyncs it.
    """

    lengths: list[float]
    budget_length: float
    log_shift: float = 0.0
    total: float = 0.0

    def objective(self, capacities: Sequence[int], budget: int) -> float:
        """The exact objective of the stored lengths; resyncs ``total``."""
        self.total = sum(map(mul, capacities, self.lengths)) + budget * self.budget_length
        return self.total

    def log_objective(self) -> float:
        """The true objective's log, in O(1) from the running ``total``."""
        return math.log(self.total) + self.log_shift

    def renormalize(self, capacities: Sequence[int], budget: int) -> float:
        """Divide stored lengths by their objective; returns the factor."""
        total = self.objective(capacities, budget)
        self.lengths = [y / total for y in self.lengths]
        self.budget_length /= total
        self.log_shift += math.log(total)
        self.objective(capacities, budget)
        return total


# ---------------------------------------------------------------------------
# the threshold tests: a column of negative weight num - lam * den, or None
# ---------------------------------------------------------------------------


def _arcs(inst: Instance) -> list[tuple[int, int, int]]:
    """The ``(tail, head, index)`` triples of ``inst``'s edges, as the tests scan them."""
    return [(e.tail, e.head, a) for a, e in enumerate(inst.edges)]


def min_ratio_cycle(
    inst: Instance, arcs: Sequence[tuple[int, int, int]], weights: Sequence[float]
) -> list[int] | None:
    """The threshold test on general graphs: a simple cycle of negative weight, or None.

    ``arcs`` holds the ``(tail, head, index)`` triples of ``inst``'s edges
    with the sink merged into the source, built once by the caller, and
    ``weights[i]`` weighs edge i; the test runs the package's
    negative-cycle detector on them.  At the weights num - lam * den with
    num >= 0, a cycle of negative weight has a positive denominator and a
    ratio below lam, and None proves every ratio at least lam.  A float run
    too close to call raises; the same weights, as exact ints, then decide.
    """
    try:
        return mcc.find_negative_cycle(inst.node_count, arcs, weights)
    except InternalSolverError:
        return mcc.find_negative_cycle(inst.node_count, arcs, _scaled_ints(weights)[0])


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
        raise CyclicGraphError("graph contains a directed cycle; use solve_gk (-a gk) instead")
    return order


def min_ratio_path_dag(
    inst: Instance,
    arcs: Sequence[tuple[int, int, int]],
    source: int,
    sink: int,
    weights: Sequence[float],
) -> list[int] | None:
    """The threshold test on acyclic graphs: a ``source``-``sink`` path of negative weight, or None.

    ``arcs`` is ``_arcs(inst)`` sorted by a topological order of the
    tails, so one pass over it labels every node with its least path
    weight from ``source``; the path returned is a minimum-weight one.
    ``weights[i]`` weighs edge i, and the contract is ``min_ratio_cycle``'s.
    """
    size = inst.node_count + 1
    label = [math.inf] * size
    pred = [-1] * size
    label[source] = 0.0
    for tail, head, i in arcs:
        w = label[tail] + weights[i]  # inf while the tail is unreached
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


# ---------------------------------------------------------------------------
# the multiplicative-weights loop
# ---------------------------------------------------------------------------


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
# the routed profit, the dual objective and alpha, whose threshold tests
# weigh in floats, each off by about (arcs + iterations) units in the last
# place.  The running dual objective drifts by about one unit per iteration
# since its last resync, where alpha last rose; only the fallback stop at
# objective 1 and the renormalization below read it.
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
    test: Callable[[list[float]], Sequence[int] | None],
) -> tuple[dict[tuple[int, ...], int], int, int, float]:
    """Run the width-controlled packing loop until a certified gap closes.

    Returns (routed columns, scale, iterations, upper bound on the optimum);
    after a rerun (below) the bound is the lesser of both runs'.
    ``eps`` is the solver's accuracy; one outside (0, 1), or one so small
    that the certified stop (below) could never fire, raises
    ``ValueError``, as does an instance beyond the float range (below);
    both are decided once, before the first run.
    ``test(weights)`` is a threshold test: it takes one weight per
    ``reduced`` edge and returns a column, a list of edges of negative
    total weight, or None when no column has one.  A column's ratio is its
    length (the sum of y + b * mu over its edges) over its gain (minus its
    cost), and at the weights length - lam * gain a column found has a
    ratio below lam, while None proves every ratio at least lam.

    The loop keeps alpha, a proven lower bound on the minimum ratio, which
    stays one since lengths only grow and gains are fixed (Fleischer's
    phases on Garg and Koenemann's loop).  Every iteration routes a column
    whose ratio is below t = (1 + eps') * alpha, taken first from its pool
    (below), else from a test at t; a test that finds none multiplies
    alpha by 1 + eps' and the loop looks again.  alpha starts from a
    descent in each run: the seed test, at the weights cost = -gain, finds
    a first column with positive gain, or none (then the optimum is the
    zero flow), and the run tests at its last column's ratio over 1 + eps'
    until a test finds none; that threshold is alpha's start.

    Which stop proves what.  The certified stop (below) proves the
    (1 - eps) guarantee at any eps', since alpha is a proven lower bound
    whatever its pace.  The fallback stop at dual objective 1 proves it
    only at eps' = eps/4: every column routed had a ratio below t when the
    loop took it, which is at most (1 + eps') times the minimum.  Garg and
    Koenemann's analysis of that stop loses a factor of about 1 - 2 eps' in
    the loop itself and the column's factor on top, and
    (1 - 2 eps') / (1 + eps') >= 1 - 3 eps' > 1 - eps.  So the loop runs
    first at eps' = eps, whose proven iteration cap is about a sixteenth
    of eps/4's, and returns that run's answer when it stops on the
    certificate.  Only when that run reaches the fallback stop uncertified
    does the loop run once more, from fresh lengths, at eps' = eps/4, and
    return that run's answer, whichever stop ends it.  The seed test runs
    once; the iteration count is the sum over the runs.  The first run's
    bound holds in the rerun too, as it bounds the optimum.

    The pool.  Most tests would find a column the run has routed before,
    so each run keeps a heap of columns keyed by a ratio each once had: the
    descent's last column goes in first, and every routed column goes back
    in, keyed by its ratio before that routing.  Between renormalizations
    lengths only grow and gains are fixed, so a column's ratio only grows,
    and every key is a lower bound on its column's current ratio; a
    renormalization divides every ratio, and every key, by one factor,
    which keeps the heap's order.  An iteration pops each key below t and
    recomputes that column's ratio in O(column): one below t is a column a
    test at t could return, and is routed; one at t or above is pushed back
    with its new key.  The test runs only once the least key reaches t, so
    a column it finds is below every key, and not in the heap but for float
    rounding, which costs a recompute.  The rerun starts again from fresh
    lengths, below the first run's, where the first run's keys bound
    nothing: each run starts a pool of its own.  A test that finds none is
    still the only step that raises alpha, so alpha stays proven and the
    raise cap, the iteration cap and the weak-duality bound keep their
    proofs; every routed column was below (1 + eps') * alpha when the loop
    took it, so the fallback stop's proof holds too.

    Both test loops of each run have proven bounds, at its eps', that
    raise InternalSolverError.  Each descent step divides a positive ratio
    by more than 1 + eps', and no ratio falls below (least length)/(sum of
    the positive gains), so log(r0 / that floor) / log1p(eps') + 1 tests
    from the seed's ratio r0 certify alpha.  While the loop runs the true
    dual objective stays below 1, so y_e < 1/u_e and mu < 1/B, and every
    column, whose gain is an int >= 1, has a true ratio below
    rho = sum_e (1/u_e + b_e/B); alpha never passes the minimum, so at most
    ceil(log(rho / alpha_0) / log1p(eps')) raises happen, counted on true
    lengths.

    Between tests an iteration touches only columns' edges: each recompute
    sums a pooled column's length, one pass prices the column taken, which
    gives its gain, length, fee and least capacity, and one loop routes it.
    Routings are counted per column: a routed value is ``scale`` times the
    column's exact amount times its count, an int: each amount is an int
    capacity or a float budget / fee.

    Weak duality: lengths divided by a lower bound on the minimum column
    ratio are dual feasible, so the optimum is at most (dual
    objective)/alpha, least when alpha has just been proven.  The loop
    stops once the routed flow divided by its worst row load reaches
    1 - ``eps`` times the least such bound, or, as the scheme's proven
    fallback, once the dual objective reaches 1.

    Float range, decided once before the runs: with M the largest
    capacity, |cost|, fee or budget of ``reduced`` and phases the phase
    count at eps/4, which bounds eps's, an instance with
    (phases + 1) * m * M^2 above 2^1022, the reciprocal of the least normal
    float, raises ``ValueError``; ``solve_exact`` answers it.  Below that
    every int the loop converts is at most M, the descent's floor on the
    ratios is at least 1/(m M^2), and no row's load passes phases times its
    size: a routing at relative load x <= 1 multiplies its rows' true
    lengths by at least (1 + eps')^x, from delta/size to below 1/size.  So
    the routed profit stays below phases times the optimum, at most m M^2.
    """
    if not 0 < eps < 1:
        raise ValueError(f"epsilon {eps} outside (0, 1)")
    target = 1.0 - eps
    m = reduced.edge_count
    budget = reduced.budget
    rows = m + (budget > 0)
    capacities = [e.capacity for e in reduced.edges]
    fees = [e.fee for e in reduced.edges]
    int_costs = [e.cost for e in reduced.edges]
    if m == 0:
        return {}, 1, 0, 0.0  # no edges means no columns: the zero flow stands

    def start(eps_prime: float) -> tuple[float, int]:
        """log delta and the phase count, rounded up, at internal accuracy eps_prime."""
        # delta is handled in log space: it underflows a float for small
        # accuracies, but only length ratios ever reach the tests
        log_delta = math.log1p(eps_prime) - math.log((1.0 + eps_prime) * rows) / eps_prime
        return log_delta, int((math.log1p(eps_prime) - log_delta) / math.log1p(eps_prime)) + 1

    if target * (1.0 + CERTIFICATE_MARGIN) > 1.0:
        # eps below about the margin: the routed value, scaled to
        # feasibility, is at most the optimum, which is at most every
        # bound, so only the fallback stop could end a run, about
        # log(rows) / eps^2 iterations away
        raise ValueError(f"epsilon {eps} is too small for float lengths")
    _, phases = start(eps / 4.0)  # the finer run's count bounds the coarser one's
    magnitude = max(budget, max(capacities), max(fees), max(map(abs, int_costs)))
    if phases * m * magnitude**2 > 2**1022:
        raise ValueError(
            f"magnitudes up to 2^{magnitude.bit_length()} are too large for float "
            f"lengths at epsilon {eps}; solve exactly (solve_exact, -a exact)"
        )
    costs = [float(c) for c in int_costs]
    float_fees = [float(b) for b in fees]
    seed = test(costs)
    if seed is None:
        return {}, 1, 0, 0.0  # no column has a positive gain: the zero flow stands

    def weights(lam: float) -> list[float]:
        """length - lam * gain per edge, on the stored lengths."""
        mu = dual.budget_length
        return [y + b * mu + lam * c for y, b, c in zip(dual.lengths, float_fees, costs)]

    def priced(column: Sequence[int]) -> tuple[int, float, int, int]:
        """The column's int gain, stored length, int fee and least capacity, in one pass."""
        lengths = dual.lengths
        mu = dual.budget_length
        gain, length, fee, least = 0, 0.0, 0, math.inf
        for i in column:
            gain -= int_costs[i]
            length += lengths[i] + float_fees[i] * mu
            fee += fees[i]
            if capacities[i] < least:
                least = capacities[i]
        if gain <= 0:
            # exactly, a column of negative weight has a positive gain
            raise InternalSolverError(
                f"threshold test returned a column with gain {gain}: "
                "float cancellation in its weights"
            )
        return gain, length, fee, least

    def reoffered(threshold: float) -> tuple[int, ...] | None:
        """A pooled column whose ratio, recomputed, is below ``threshold``, or None."""
        lengths = dual.lengths
        mu = dual.budget_length
        while pool and pool[0][0] < threshold:
            _, column, gain = pool[0]
            length = 0.0
            for i in column:
                length += lengths[i] + float_fees[i] * mu
            if length / gain < threshold:
                heappop(pool)
                return column
            heapreplace(pool, (length / gain, column, gain))
        return None

    iterations = 0
    least_bound = math.inf
    for eps_prime in (eps, eps / 4.0):
        log_delta, phases = start(eps_prime)
        iteration_cap = iterations + 4 * rows * phases + 64
        grow = 1.0 + eps_prime
        dual = DualState(
            lengths=[1.0 / u for u in capacities],
            budget_length=1.0 / budget if budget else 0.0,
            log_shift=log_delta,
        )
        dual.objective(capacities, budget)  # the running total starts exact

        column = seed
        gain, length, _, _ = priced(column)
        mu = dual.budget_length
        floor = min(y + b * mu for y, b in zip(dual.lengths, float_fees))
        floor /= -sum(c for c in costs if c < 0)
        for _ in range(math.ceil(math.log(length / gain / floor) / math.log1p(eps_prime)) + 1):
            alpha = length / gain / grow
            found = test(weights(alpha))
            if found is None:
                break
            column = found
            gain, length, _, _ = priced(column)
        else:
            raise InternalSolverError("ratio descent exceeded its proven step bound")
        bound = dual.objective(capacities, budget) / alpha
        stop = target * bound * (1.0 + CERTIFICATE_MARGIN)  # recomputed as bound falls
        rho = sum(1.0 / u for u in capacities) + (sum(fees) / budget if budget else 0.0)
        raises_left = math.ceil((math.log(rho / alpha) - dual.log_shift) / math.log1p(eps_prime))

        counts: dict[tuple[int, ...], int] = {}
        amounts: dict[tuple[int, ...], int | float] = {}
        # this run's columns, keyed by a ratio each once had: a lower bound
        # until fresh lengths start a new run
        pool: list[tuple[float, tuple[int, ...], int]] = []
        heappush(pool, (length / gain, tuple(column), gain))
        loads = [0.0] * m
        fee_load = 0.0
        worst = 0.0  # max over rows of load / capacity
        profit = 0.0
        while dual.log_objective() < 0.0:
            iterations += 1
            if iterations > iteration_cap:
                raise InternalSolverError("packing loop exceeded its iteration cap")
            if dual.total > LENGTH_CEILING:
                # alpha is a length ratio, so it rescales with the lengths
                factor = dual.renormalize(capacities, budget)
                alpha /= factor
                # one positive factor keeps the heap's order
                pool = [(key / factor, column, gain) for key, column, gain in pool]
            while (column := reoffered(grow * alpha) or test(weights(grow * alpha))) is None:
                raises_left -= 1
                if raises_left < 0:
                    raise InternalSolverError("alpha rose past its proven bound")
                alpha *= grow
                # stored lengths: log_shift cancels out of the ratio
                bound = min(bound, dual.objective(capacities, budget) / alpha)
                stop = target * bound * (1.0 + CERTIFICATE_MARGIN)
            column = tuple(column)
            gain, length, cycle_fee, amount = priced(column)
            if cycle_fee > 0:  # the reduction leaves no fee when the budget is 0
                amount = min(amount, budget / cycle_fee)
            amounts[column] = amount
            counts[column] = counts.get(column, 0) + 1
            step = eps_prime * amount
            profit += amount * gain
            # sum of u * (growth of y) over the column's rows, budget row included
            dual.total += step * length
            lengths = dual.lengths
            for i in column:
                loads[i] += amount
                load = loads[i] / capacities[i]
                if load > worst:
                    worst = load
                lengths[i] *= 1.0 + step / capacities[i]
            if cycle_fee > 0:
                fee_load += amount * cycle_fee
                load = fee_load / budget
                if load > worst:
                    worst = load
                dual.budget_length *= 1.0 + step * cycle_fee / budget
            heappush(pool, (length / gain, column, gain))
            if profit >= stop * worst:
                break  # the certified stop
        else:
            least_bound = min(least_bound, bound)  # still valid after the rerun
            continue  # the fallback stop, proven at eps / 4 alone: rerun there once
        break
    ints, scale = _scaled_ints(list(amounts.values()))
    routed = {column: p * counts[column] for column, p in zip(amounts, ints)}
    return routed, scale, iterations, min(least_bound, bound)


def _assemble_flow(
    inst: Instance, reduced: Instance, routed: dict[tuple[int, ...], int], scale: int
) -> Flow:
    """Exactly accumulate routed columns on ``inst``'s edges and scale them to feasibility.

    A routed value is ``scale`` times its column's exact routed flow, on
    each of its edges, so conservation holds exactly; each edge of
    ``reduced`` adds it to its origin in ``inst``, and the edges the
    reduction dropped stay 0.  The flow is divided by its worst row load
    (capacity or budget), the exact counterpart of the loop's float stop
    test: 1 or more unless nothing was routed, save for float rounding on
    the budget row.  As that load is top / (bottom * scale), ``scale``
    cancels, and the flow is the int values times bottom over top.
    """
    values = [0] * inst.edge_count
    origin = reduced.edge_origin
    for column, amount in routed.items():
        for i in column:
            values[origin[i]] += amount
    fee = sum(map(mul, [e.fee for e in inst.edges], values))
    top, bottom = 0, 1  # compared by cross-multiplying ints
    for load, size in zip([*values, fee], [*(e.capacity for e in inst.edges), inst.budget]):
        if size > 0 and load * bottom > top * size:  # a zero budget has no row
            top, bottom = load, size
    top = top or scale  # nothing routed: the values stay zero
    return Flow.from_values(inst, [v * bottom for v in values], top)


def solve_gk(inst: Instance, eps: float) -> Solution:
    """(1 - eps)-approximate solver for general graphs.

    The threshold test is the negative-cycle detector on the reduced
    instance with its sink merged into its source, over arcs built once
    per solve.  The loop stops at a certified (1 - eps) gap: the routed
    flow, scaled to feasibility, reaches (1 - eps) of the weak-duality
    bound that its proven alpha gives, or at the loop's proven fallback
    stop (``_gk_loop``).  The budget-zero case drops fee-carrying edges
    and the budget row entirely.
    """
    reduced = _reduced_for_packing(inst)
    arcs = [(t, h, a) for a, (t, h) in enumerate(merged_ends(reduced))]
    routed, scale, iterations, _ = _gk_loop(
        reduced, eps, lambda weights: min_ratio_cycle(reduced, arcs, weights)
    )
    flow = _assemble_flow(inst, reduced, routed, scale)
    return Solution(flow=flow, objective=flow.cost, algorithm="gk", iterations=iterations)


def solve_gk_acyclic(inst: Instance, eps: float) -> Solution:
    """(1 - eps)-approximate solver for acyclic graphs.

    With the sink merged into the source every cycle passes through the
    merged node, as the graph holds no other, so it is a simple path
    between source and sink in either orientation.  The threshold test is
    therefore the path test on the original graph, one float pass over its
    edges sorted by the topological order that the acyclicity check
    computes, once per solve.  Every path runs forward in that order, so
    only the orientation whose start comes first can hold one, and the
    test runs in that one.  The loop and its stops are ``solve_gk``'s.
    """
    order = topological_order(inst)
    reduced = _reduced_for_packing(inst)
    rank = {v: k for k, v in enumerate(order)}
    arcs = sorted(_arcs(reduced), key=lambda arc: rank[arc[0]])
    start, end = inst.source, inst.sink
    if rank[end] < rank[start]:
        start, end = end, start
    routed, scale, iterations, _ = _gk_loop(
        reduced, eps, lambda weights: min_ratio_path_dag(reduced, arcs, start, end, weights)
    )
    flow = _assemble_flow(inst, reduced, routed, scale)
    return Solution(flow=flow, objective=flow.cost, algorithm="gk-acyclic", iterations=iterations)
