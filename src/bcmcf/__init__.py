"""Budget-constrained minimum cost flow solvers.

Exact solution via lexicographic min-cost-circulation solves driven by a
chord search over multipliers, a packing-LP approximation scheme with
minimum-ratio cycle/path oracles, and a brute-force oracle for desk-scale
verification.  The package exports the solvers, the model types, the file
formats, the generator, the oracle and the error types; the solvers'
building blocks stay in their submodules.
"""

from .exact import FrontierPoint, enumerate_frontier, solve_exact
from .fptas import CyclicGraphError, solve_gk, solve_gk_acyclic
from .generate import generate_instance
from .mcc import InternalSolverError
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
    "CyclicGraphError",
    "EdgeData",
    "EnumerationGuardError",
    "Flow",
    "FrontierPoint",
    "Instance",
    "InstanceError",
    "InternalSolverError",
    "ParseError",
    "Solution",
    "SolutionDocument",
    "Stats",
    "ValidationReport",
    "enumerate_frontier",
    "format_fraction",
    "format_solution",
    "generate_instance",
    "instance_stats",
    "oracle_optimum",
    "parse_instance",
    "parse_solution",
    "preprocess",
    "serialize_instance",
    "solve_exact",
    "solve_gk",
    "solve_gk_acyclic",
    "validate_flow",
]
