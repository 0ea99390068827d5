"""Reproducible random instance generation.

Draws come from Python's ``random.Random`` (Mersenne Twister) seeded
explicitly, and the draw order is fixed, so a given seed always produces
byte-identical instance files across runs and platforms.
"""

from __future__ import annotations

import random

from .model import EdgeData, Instance

BUDGET_MODES = ("tight", "slack", "zero")


def generate_instance(
    nodes: int,
    edges: int,
    *,
    max_capacity: int = 3,
    max_cost: int = 5,
    max_fee: int = 5,
    budget_mode: str = "tight",
    acyclic: bool = False,
    seed: int = 0,
) -> Instance:
    """A random instance with source 1 and sink ``nodes``.

    Capacities are uniform on [0, max_capacity], costs on
    [-max_cost, max_cost], fees on [0, max_fee].  The budget is uniform on
    [0, total fee volume] for "tight", that volume plus one for "slack"
    (never binding), and 0 for "zero".  With ``acyclic`` every edge runs
    from a lower to a higher node id, so node order is a topological order.
    """
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes}")
    if edges < 1:
        raise ValueError(f"need at least 1 edge, got {edges}")
    maxima = {"max_capacity": max_capacity, "max_cost": max_cost, "max_fee": max_fee}
    for name, value in maxima.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if budget_mode not in BUDGET_MODES:
        raise ValueError(f"budget_mode must be one of {BUDGET_MODES}, got {budget_mode!r}")
    rng = random.Random(seed)
    edge_list = []
    for _ in range(edges):
        if acyclic:
            tail = rng.randint(1, nodes - 1)
            head = rng.randint(tail + 1, nodes)
        else:
            tail = rng.randint(1, nodes)
            head = rng.randint(1, nodes)
        edge_list.append(
            EdgeData(
                tail=tail,
                head=head,
                capacity=rng.randint(0, max_capacity),
                cost=rng.randint(-max_cost, max_cost),
                fee=rng.randint(0, max_fee),
            )
        )
    fee_volume = sum(e.capacity * e.fee for e in edge_list)
    if budget_mode == "tight":
        budget = rng.randint(0, fee_volume)
    elif budget_mode == "slack":
        budget = fee_volume + 1
    else:
        budget = 0
    return Instance(
        node_count=nodes,
        edges=tuple(edge_list),
        source=1,
        sink=nodes,
        budget=budget,
    )
