"""Budget-constrained minimum cost flow solvers.

Exact solution via lexicographic min-cost-circulation solves driven by a
chord search over multipliers, a packing-LP approximation scheme with
minimum-ratio cycle/path oracles, and a brute-force oracle for desk-scale
verification.
"""

from .exact import (
    CallbackVerdict,
    FrontierPoint,
    VerdictKind,
    Witness,
    budget_combination,
    enumerate_frontier,
    lambda_callback,
    solve_exact,
)
from .fptas import (
    CyclicGraphError,
    DualState,
    RatioResult,
    min_ratio_cycle,
    min_ratio_path_dag,
    solve_gk,
    solve_gk_acyclic,
    topological_order,
)
from .generate import generate_instance
from .mcc import (
    Basis,
    InternalSolverError,
    find_negative_cycle,
    lambda_cost,
    min_cost_circulation,
)
from .model import (
    EdgeData,
    Flow,
    Instance,
    InstanceError,
    ParseError,
    Solution,
    SolutionDocument,
    Stats,
    ValidationReport,
    circulation_form,
    format_fraction,
    format_solution,
    instance_stats,
    parse_instance,
    parse_solution,
    preprocess,
    serialize_instance,
    validate_flow,
)
from .oracle import EnumerationGuardError, oracle_optimum

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CallbackVerdict",
    "CyclicGraphError",
    "DualState",
    "EdgeData",
    "EnumerationGuardError",
    "Flow",
    "FrontierPoint",
    "Instance",
    "InstanceError",
    "InternalSolverError",
    "ParseError",
    "RatioResult",
    "Solution",
    "SolutionDocument",
    "Stats",
    "ValidationReport",
    "VerdictKind",
    "Witness",
    "budget_combination",
    "circulation_form",
    "enumerate_frontier",
    "find_negative_cycle",
    "format_fraction",
    "format_solution",
    "generate_instance",
    "instance_stats",
    "lambda_callback",
    "lambda_cost",
    "min_cost_circulation",
    "min_ratio_cycle",
    "min_ratio_path_dag",
    "oracle_optimum",
    "parse_instance",
    "parse_solution",
    "preprocess",
    "serialize_instance",
    "solve_exact",
    "solve_gk",
    "solve_gk_acyclic",
    "topological_order",
    "validate_flow",
]
