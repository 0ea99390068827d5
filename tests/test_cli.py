"""End-to-end tests of the command line interface."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bcmcf import enumerate_frontier, generate_instance, preprocess
from bcmcf.cli import build_parser, main
from bcmcf.model import format_fraction, parse_instance, parse_solution, serialize_instance
from bcmcf.oracle import DEFAULT_GUARD

I1_TEXT = "p bcmcf 2 2 2\nn 1 s\nn 2 t\na 1 2 2 -4 2\na 1 2 2 -1 0\n"
I0_TEXT = "p bcmcf 2 1 0\nn 1 s\nn 2 t\na 1 2 1 1 0\n"


@pytest.fixture
def i1_path(tmp_path):
    path = tmp_path / "i1.bcmcf"
    path.write_text(I1_TEXT)
    return str(path)


@pytest.fixture
def i0_path(tmp_path):
    path = tmp_path / "i0.bcmcf"
    path.write_text(I0_TEXT)
    return str(path)


class TestSolve:
    def test_exact_document(self, i1_path, capsys):
        assert main(["solve", "--algorithm", "exact", i1_path]) == 0
        doc = parse_solution(capsys.readouterr().out)
        assert doc.objective == -6
        assert doc.lam == 2
        assert doc.values == (1, 2)
        assert doc.budget_used == 2

    def test_gk_with_epsilon(self, i1_path, capsys):
        assert main(["solve", "--algorithm", "gk", "--epsilon", "0.25", i1_path]) == 0
        doc = parse_solution(capsys.readouterr().out)
        assert doc.objective <= Fraction(-45, 10)

    def test_gk_without_epsilon_is_usage_error(self, i1_path, capsys):
        assert main(["solve", "--algorithm", "gk", i1_path]) == 2
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["exact", "oracle"])
    def test_epsilon_without_gk_is_usage_error(self, i1_path, capsys, algorithm):
        # only the gk solvers read epsilon; elsewhere it would be ignored
        assert main(["solve", "-a", algorithm, "-e", "0.25", i1_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--epsilon" in captured.err

    def test_oracle_algorithm(self, i1_path, capsys):
        assert main(["solve", "--algorithm", "oracle", i1_path]) == 0
        assert parse_solution(capsys.readouterr().out).objective == -6

    def test_input_flag(self, i1_path, capsys):
        # the instance is positional only; a second spelling was dropped
        # silently whenever both were given
        with pytest.raises(SystemExit) as exc:
            main(["solve", i1_path, "--input", "/nonexistent"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--input" in captured.err

    def test_missing_instance(self, capsys):
        assert main(["solve"]) == 2

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.bcmcf"
        bad.write_text("p bcmcf 2 1 0\nn 1 s\nn 2 t\na 1 2 -1 0 0\n")
        assert main(["solve", str(bad)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_text_format(self, i1_path, capsys):
        assert main(["solve", i1_path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "objective: -6" in out

    def test_preprocessed_flow_maps_back(self, tmp_path, capsys):
        # node 3 has no outgoing edge, so it and its incoming edge are
        # dropped; the emitted flow still has 3 values, padded with zero
        text = "p bcmcf 3 3 2\nn 1 s\nn 2 t\na 1 2 2 -4 2\na 1 2 2 -1 0\na 1 3 1 -9 0\n"
        path = tmp_path / "padded.bcmcf"
        path.write_text(text)
        assert main(["solve", str(path)]) == 0
        doc = parse_solution(capsys.readouterr().out)
        assert doc.values == (1, 2, 0)
        assert doc.objective == -6

    def test_unwritable_output_is_usage_error(self, i1_path, tmp_path, capsys):
        missing = tmp_path / "missing" / "sol.txt"
        assert main(["solve", i1_path, "-o", str(missing)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestFrontier:
    def test_two_points_and_budget_line(self, i1_path, capsys):
        assert main(["frontier", i1_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["-2 0", "-10 4", "budget 2"]

    def test_single_point(self, i0_path, capsys):
        assert main(["frontier", i0_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0 0", "budget 0"]

    def test_beyond_enumeration_guard(self, tmp_path, capsys):
        # the frontier solver never enumerates, so an instance whose
        # assignment space is far past the oracle's guard is still answered
        inst = generate_instance(nodes=8, edges=32, max_capacity=3, seed=7)
        size = 1
        for e in preprocess(inst).edges:
            size *= e.capacity + 1
        assert size > DEFAULT_GUARD
        path = tmp_path / "big.bcmcf"
        path.write_text(serialize_instance(inst))
        assert main(["frontier", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        points = enumerate_frontier(preprocess(inst))
        expected = [f"{format_fraction(p.cost)} {format_fraction(p.fee)}" for p in points]
        assert lines == expected + [f"budget {inst.budget}"]


class TestOracleCommand:
    def test_optimum(self, i1_path, capsys):
        assert main(["oracle", i1_path]) == 0
        assert parse_solution(capsys.readouterr().out).objective == -6

    def test_guard_exit(self, i1_path, capsys):
        assert main(["oracle", i1_path, "--guard", "2"]) == 3

    @pytest.mark.parametrize("command", [["oracle"], ["solve", "-a", "oracle"]])
    @pytest.mark.parametrize("guard", ["0", "-1"])
    def test_guard_below_one_is_usage_error(self, i1_path, capsys, command, guard):
        # the assignment space is at least 1, so such a guard is a usage
        # error, not a guard that every instance exceeds
        with pytest.raises(SystemExit) as exc:
            main(command + [i1_path, "--guard", guard])
        assert exc.value.code == 2
        assert "--guard" in capsys.readouterr().err

    def test_same_output_as_solve_algorithm_oracle(self, i1_path, capsys):
        for fmt in ("structured", "text"):
            assert main(["oracle", i1_path, "--format", fmt]) == 0
            short = capsys.readouterr().out
            assert main(["solve", "-a", "oracle", i1_path, "--format", fmt]) == 0
            assert capsys.readouterr().out == short


class TestValidate:
    # on I1 the edges cost -4 and -1 per unit and charge fees 2 and 0
    def write_solution(self, tmp_path, values, objective, budget_used=None):
        lines = ["bcmcf-solution 1", "algorithm manual", f"objective {objective}"]
        if budget_used is not None:
            lines.append(f"budget-used {budget_used}")
        lines.append(f"flows {len(values)}")
        lines += [f"f {i} {v}" for i, v in enumerate(values)]
        lines.append("end")
        path = tmp_path / "flow.sol"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_feasible(self, i1_path, tmp_path, capsys):
        flow = self.write_solution(tmp_path, ["1", "2"], "-6/1 -6.0")
        assert main(["validate", i1_path, flow]) == 0
        out = capsys.readouterr().out
        assert "feasible c=-6 b=2" in out

    def test_budget_violation(self, i1_path, tmp_path, capsys):
        flow = self.write_solution(tmp_path, ["2", "2"], "-10")
        assert main(["validate", i1_path, flow]) == 1
        assert "budget exceeded by 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "objective, budget_used, wrong",
        [
            ("-100", None, "objective -100 differs from the flow's cost -6"),
            ("-6", "0", "budget-used 0 differs from the flow's fee 2"),
            ("-100", "0", "objective -100 differs from the flow's cost -6"),
        ],
        ids=["objective", "budget-used", "both"],
    )
    def test_stated_totals_must_be_the_flows(
        self, i1_path, tmp_path, capsys, objective, budget_used, wrong
    ):
        flow = self.write_solution(tmp_path, ["1", "2"], objective, budget_used)
        assert main(["validate", i1_path, flow]) == 1
        assert wrong in capsys.readouterr().out

    def test_stated_budget_used_that_matches(self, i1_path, tmp_path, capsys):
        flow = self.write_solution(tmp_path, ["1", "2"], "-6", "2")
        assert main(["validate", i1_path, flow]) == 0
        assert "differs" not in capsys.readouterr().out

    def test_arity_mismatch(self, i1_path, tmp_path, capsys):
        flow = self.write_solution(tmp_path, ["1", "2", "0"], "-6")
        assert main(["validate", i1_path, flow]) == 2

    def test_repeated_header_line_is_parse_error(self, i1_path, tmp_path, capsys):
        path = tmp_path / "twice.sol"
        path.write_text(
            "bcmcf-solution 1\nalgorithm manual\nobjective -6\nobjective 0\n"
            "flows 2\nf 0 1\nf 1 2\nend\n"
        )
        assert main(["validate", i1_path, str(path)]) == 2
        assert "line 4: duplicate objective line" in capsys.readouterr().err

    def test_solver_output_revalidates(self, i1_path, tmp_path, capsys):
        out_path = tmp_path / "sol.txt"
        for algo, extra in (
            ("exact", []),
            ("gk", ["--epsilon", "0.5"]),
            ("gk-acyclic", ["--epsilon", "0.5"]),
            ("oracle", []),
        ):
            assert main(["solve", "-a", algo, i1_path, "-o", str(out_path)] + extra) == 0
            assert main(["validate", i1_path, str(out_path)]) == 0
            capsys.readouterr()

    def test_unwritable_output_is_usage_error(self, i1_path, tmp_path, capsys):
        # exit 1 would read as "infeasible": a write failure is a usage error
        flow = self.write_solution(tmp_path, ["1", "2"], "-6")
        missing = tmp_path / "missing" / "report.txt"
        assert main(["validate", i1_path, flow, "-o", str(missing)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestGen:
    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.bcmcf", tmp_path / "b.bcmcf"
        for out in (a, b):
            assert main(["gen", "-n", "5", "-m", "8", "--seed", "7", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_acyclic_edges_ascend(self, tmp_path, capsys):
        assert main(["gen", "-n", "6", "-m", "10", "--seed", "3", "--acyclic"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert all(e.tail < e.head for e in inst.edges)

    def test_zero_fee_ceiling_forces_zero_budget(self, capsys):
        assert main(["gen", "-n", "4", "-m", "6", "--b-max", "0",
                     "--budget-mode", "tight", "--seed", "11"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.budget == 0

    def test_generated_instance_parses(self, capsys):
        assert main(["gen", "-n", "4", "-m", "5", "--seed", "2"]) == 0
        parse_instance(capsys.readouterr().out)

    def test_bad_sizes(self, capsys):
        assert main(["gen", "-n", "1", "-m", "3", "--seed", "0"]) == 2


class TestGkAcyclic:
    def test_acyclic_solver_via_cli(self, i1_path, capsys):
        assert main(["solve", "-a", "gk-acyclic", "-e", "0.25", i1_path]) == 0
        doc = parse_solution(capsys.readouterr().out)
        assert doc.objective <= Fraction(-45, 10)
        assert doc.algorithm == "gk-acyclic"

    def test_cyclic_instance_rejected(self, tmp_path, capsys):
        text = "p bcmcf 3 3 0\nn 1 s\nn 3 t\na 1 2 1 -1 0\na 2 1 1 -1 0\na 1 3 1 0 0\n"
        path = tmp_path / "cyc.bcmcf"
        path.write_text(text)
        assert main(["solve", "-a", "gk-acyclic", "-e", "0.5", str(path)]) == 2
        assert "solve_gk" in capsys.readouterr().err


class TestParserReuse:
    def run(self, argv, capsys):
        """Exit code, stdout and stderr of one ``main`` call."""
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on --help and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_calls_in_one_process_match_calls_on_their_own(self, i1_path, capsys):
        sequence = [
            ["oracle", i1_path],
            ["solve", "-a", "gk", "-e", "0.5", i1_path],
            ["solve", "-a", "nonesuch", i1_path],
            ["--help"],
            ["solve", i1_path],
            ["solve", i1_path, "--format", "text"],
        ]
        build_parser.cache_clear()
        shared = [self.run(argv, capsys) for argv in sequence]
        assert build_parser.cache_info().misses == 1
        alone = []
        for argv in sequence:
            build_parser.cache_clear()
            alone.append(self.run(argv, capsys))
        assert shared == alone
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 2, 0, 0, 0]
        assert "invalid choice: 'nonesuch'" in shared[2][2]
        assert shared[3][1].startswith("usage: bcmcf")
        default = parse_solution(shared[4][1])
        assert default.algorithm == "exact"
        assert default.lam == 2
        assert "algorithm: exact" in shared[5][1]
        args = build_parser().parse_args(["solve", i1_path])
        assert (args.algorithm, args.epsilon) == ("exact", None)
