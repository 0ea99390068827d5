"""Command line interface.

Commands: solve, frontier, validate, gen.  Exit codes: 0 success,
1 validate found the flow infeasible or a stated total that is not the
flow's, 2 usage or parse errors or an output file that cannot be written,
3 enumeration guard of ``solve -a oracle`` exceeded, 4 a solver stopped
on ``InternalSolverError`` (one line on stderr names it and points to
``-a exact``), 141 standard output closed by its reader before all output
was written (what a shell reports for a command killed by SIGPIPE); that
exit prints nothing.

The argument parser is built once per process, on the first call of
:func:`main`, and reused: parsing keeps no state between calls, and argparse
looks up ``sys.stdout`` and ``sys.stderr`` only when it prints.  A known
command's own parser reads its arguments; the full parser answers the rest.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import exact, fptas, oracle
from .generate import BUDGET_MODES, generate_instance
from .mcc import InternalSolverError
from .model import (
    Flow,
    Instance,
    InstanceError,
    ParseError,
    format_fraction,
    format_solution,
    parse_instance,
    parse_solution,
    preprocess,
    restore_flow,
    serialize_instance,
    validate_flow,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_SOLVER = 4
EXIT_PIPE = 141

ALGORITHMS = ("exact", "gk", "gk-acyclic", "oracle")


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_USAGE) from None


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(_read_text(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USAGE) from None


def cmd_solve(args: argparse.Namespace) -> int:
    if args.algorithm in ("gk", "gk-acyclic") and args.epsilon is None:
        raise CliError(f"--epsilon is required for --algorithm {args.algorithm}", EXIT_USAGE)
    if args.algorithm in ("exact", "oracle") and args.epsilon is not None:
        raise CliError(f"--epsilon does not apply to --algorithm {args.algorithm}", EXIT_USAGE)
    original = _load_instance(args.instance)
    inst = preprocess(original)
    try:
        if args.algorithm == "exact":
            sol = exact.solve_exact(inst)
        elif args.algorithm == "gk":
            sol = fptas.solve_gk(inst, args.epsilon)
        elif args.algorithm == "gk-acyclic":
            sol = fptas.solve_gk_acyclic(inst, args.epsilon)
        else:
            sol = oracle.oracle_optimum(inst)
    except oracle.EnumerationGuardError as exc:
        raise CliError(str(exc), EXIT_GUARD) from None
    except ValueError as exc:  # CyclicGraphError among them
        raise CliError(str(exc), EXIT_USAGE) from None
    sol = dataclasses.replace(sol, flow=restore_flow(original, inst, sol.flow))
    _write_text(args.output, format_solution(sol))
    return EXIT_OK


def cmd_frontier(args: argparse.Namespace) -> int:
    original = _load_instance(args.instance)
    inst = preprocess(original)
    points = exact.enumerate_frontier(inst)
    lines = [f"{format_fraction(p.cost)} {format_fraction(p.fee)}" for p in points]
    lines.append(f"budget {inst.budget}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    try:
        doc = parse_solution(_read_text(args.flow_file))
    except ParseError as exc:
        raise CliError(f"{args.flow_file}: {exc}", EXIT_USAGE) from None
    try:
        flow = Flow.from_values(inst, doc.values)
    except InstanceError as exc:  # a flow of the wrong arity
        raise CliError(str(exc), EXIT_USAGE) from None
    report = validate_flow(inst, flow)
    # the document's stated totals must be its own flow's
    stated = [("objective", doc.objective, "cost", report.cost)]
    if doc.budget_used is not None:
        stated.append(("budget-used", doc.budget_used, "fee", report.fee))
    lines = [
        f"{line} {format_fraction(claim)} differs from the flow's {total} {format_fraction(actual)}"
        for line, claim, total, actual in stated
        if claim != actual
    ]
    _write_text(args.output, "\n".join(lines + [report.summary()]) + "\n")
    return EXIT_OK if report.ok and not lines else EXIT_INFEASIBLE


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst = generate_instance(
            args.nodes,
            args.edges,
            max_capacity=args.u_max,
            max_cost=args.c_max,
            max_fee=args.b_max,
            budget_mode=args.budget_mode,
            acyclic=args.acyclic,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    _write_text(args.output, serialize_instance(inst))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcmcf",
        description="Budget-constrained minimum cost flow solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, read by main

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", "-o", default=None, help="output file (default stdout)")

    def add_instance_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance file ('-' for stdin)")

    p_solve = sub.add_parser("solve", help="solve an instance file")
    add_instance_arg(p_solve)
    p_solve.add_argument("--algorithm", "-a", choices=ALGORITHMS, default="exact")
    p_solve.add_argument("--epsilon", "-e", type=float, default=None,
                         help="accuracy for the gk solvers, in (0, 1); their work grows "
                              "as about 1/eps^2, and -a exact answers exactly")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_frontier = sub.add_parser("frontier", help="emit Pareto frontier plot data")
    add_instance_arg(p_frontier)
    add_common(p_frontier)
    p_frontier.set_defaults(func=cmd_frontier)

    p_validate = sub.add_parser("validate", help="check a solution document")
    p_validate.add_argument("instance")
    p_validate.add_argument("flow_file")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--nodes", "-n", type=int, required=True)
    p_gen.add_argument("--edges", "-m", type=int, required=True)
    p_gen.add_argument("--u-max", type=int, default=3, help="max capacity")
    p_gen.add_argument("--c-max", type=int, default=5, help="max |cost|")
    p_gen.add_argument("--b-max", type=int, default=5, help="max fee")
    p_gen.add_argument("--budget-mode", choices=BUDGET_MODES, default="tight")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--acyclic", action="store_true")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"bcmcf: {exc}", file=sys.stderr)
        return exc.code
    except InternalSolverError as exc:
        print(f"bcmcf: solver failed: {exc}; -a exact solves exactly", file=sys.stderr)
        return EXIT_SOLVER
    except BrokenPipeError:
        # stdout's reader exited first; pointing stdout at devnull spares the
        # interpreter's final flush the same error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
