"""Instance corpora and seeded operation lists for the four workloads.

A corpus is a fixed list of ``generate_instance`` calls with consecutive
generator seeds starting at ``corpus_seed * 1000``; its reference table
(``refs.py``) holds the exact optimum and frontier of every instance.  The
run seed then derives the inputs actually solved: every instance gets its
node ids permuted at random, and the operations are shuffled.  Relabeling
changes the text the solvers read but not the optimum, the frontier or
whether the budget binds, so one reference table checks every run seed.
The edge order is kept: shuffling it changes which cycles Bellman-Ford
cancels, and single operations then moved by 20-100% from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# corpus name -> rungs (nodes, edges per node, max capacity, budget mode,
# acyclic, accuracies); the approximation corpora solve each instance once
# per accuracy.  Iterations grow as about 1/eps^2, so the finer accuracies
# run on the smaller instances only.
E = ()  # the exact lane takes no accuracy
CORPORA: dict[str, tuple[tuple[int, int, int, str, bool, tuple[float, ...]], ...]] = {
    "exact": (
        (8, 4, 3, "tight", False, E), (8, 4, 10, "tight", False, E),
        (8, 4, 50, "tight", False, E), (8, 4, 10, "zero", False, E),
        (8, 4, 10, "slack", False, E), (10, 4, 3, "tight", False, E),
        (10, 4, 10, "tight", False, E), (12, 4, 3, "tight", False, E),
        (12, 4, 10, "tight", False, E), (12, 4, 3, "zero", False, E),
        (8, 4, 3, "tight", True, E), (8, 4, 10, "tight", True, E),
        (8, 4, 50, "tight", True, E), (10, 4, 3, "tight", True, E),
        (10, 4, 10, "tight", True, E), (10, 4, 50, "tight", True, E),
        (12, 4, 3, "tight", True, E), (12, 4, 10, "tight", True, E),
        (12, 4, 3, "slack", True, E), (16, 4, 3, "tight", True, E),
        (16, 4, 3, "zero", True, E), (20, 4, 3, "tight", True, E),
        (24, 4, 3, "tight", True, E), (24, 4, 3, "slack", True, E),
    ),
    "gk": (
        (6, 4, 3, "tight", False, (0.5, 0.25, 0.1)), (6, 4, 10, "slack", False, (0.5, 0.25)),
        (6, 4, 50, "tight", False, (0.5, 0.25)), (8, 4, 3, "tight", False, (0.5, 0.25)),
        (8, 4, 10, "slack", False, (0.5,)), (8, 4, 50, "tight", False, (0.5, 0.25)),
        (8, 4, 10, "zero", False, (0.5, 0.25)), (12, 4, 10, "slack", False, (0.5,)),
        (12, 4, 50, "zero", False, (0.5, 0.25)), (16, 4, 3, "tight", False, (0.5,)),
    ),
    "gk-dag": (
        (4, 5, 3, "tight", True, (0.5, 0.25)), (4, 5, 10, "tight", True, (0.5,)),
        (4, 5, 50, "slack", True, (0.5,)), (5, 5, 3, "tight", True, (0.5,)),
        (5, 5, 10, "slack", True, (0.5,)), (5, 5, 50, "zero", True, (0.5, 0.25)),
        (5, 5, 50, "tight", True, (0.5,)), (6, 5, 3, "slack", True, (0.5,)),
        (6, 5, 50, "zero", True, (0.5, 0.25)),
    ),
    # no workload runs this corpus: its instances are small enough for the
    # brute-force oracle, which cross-checks the reference build (refs.py)
    "oracle": tuple(
        (n, 3, 3, mode, acyclic, E)
        for n in (5, 6) for mode in ("tight", "zero", "slack") for acyclic in (False, True)
    ),
}

# workload -> (corpus, how the operation runs)
WORKLOADS: dict[str, tuple[str, str]] = {
    "exact": ("exact", "exact"),
    "frontier": ("exact", "frontier"),
    "gk": ("gk", "gk"),
    "gk-dag": ("gk-dag", "gk-acyclic"),
}


@dataclass(frozen=True)
class Case:
    """One ``generate_instance`` call of a corpus."""

    nodes: int
    edges: int
    max_capacity: int
    budget_mode: str
    acyclic: bool
    gen_seed: int
    epsilons: tuple[float, ...]

    def generate(self, bcmcf):
        return bcmcf.generate_instance(
            self.nodes,
            self.edges,
            max_capacity=self.max_capacity,
            budget_mode=self.budget_mode,
            acyclic=self.acyclic,
            seed=self.gen_seed,
        )


@dataclass(frozen=True)
class Op:
    """One timed operation: solve corpus instance ``case`` in relabeled ``text``."""

    case: int
    kind: str
    epsilon: float | None
    text: str

    def argv(self) -> list[str]:
        argv = ["solve", "-", "-a", self.kind]
        if self.epsilon is not None:
            argv += ["-e", repr(self.epsilon)]
        return argv


def corpus_cases(corpus: str, corpus_seed: int) -> list[Case]:
    return [
        Case(n, n * per_node, cap, mode, acyclic, corpus_seed * 1000 + i, epsilons)
        for i, (n, per_node, cap, mode, acyclic, epsilons) in enumerate(CORPORA[corpus])
    ]


def relabel(bcmcf, inst, rng: random.Random):
    """An isomorphic copy with the node ids permuted."""
    perm = list(range(1, inst.node_count + 1))
    rng.shuffle(perm)
    return bcmcf.Instance(
        node_count=inst.node_count,
        edges=tuple(
            bcmcf.EdgeData(perm[e.tail - 1], perm[e.head - 1], e.capacity, e.cost, e.fee)
            for e in inst.edges
        ),
        source=perm[inst.source - 1],
        sink=perm[inst.sink - 1],
        budget=inst.budget,
    )


def make_ops(bcmcf, workload: str, corpus_seed: int, seed: int) -> list[Op]:
    """The workload's operations for run seed ``seed``, in the order they run."""
    corpus, kind = WORKLOADS[workload]
    rng = random.Random(seed)
    ops = []
    for i, case in enumerate(corpus_cases(corpus, corpus_seed)):
        for eps in case.epsilons or (None,):
            text = bcmcf.serialize_instance(relabel(bcmcf, case.generate(bcmcf), rng))
            ops.append(Op(i, kind, eps, text))
    rng.shuffle(ops)
    return ops
