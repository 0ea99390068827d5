"""Tests of the benchmark itself: span arithmetic, patching, output checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_children_once():
    tree = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 7.0, 0, 1),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    tree = [
        Span("root", 0.0, 10.0, None, 1),
        Span("x", 1.0, 4.0, 0, 1),
        Span("y", 3.0, 6.0, 0, 1),  # overlaps x by one unit
        Span("z", 9.0, 12.0, 0, 1),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_links_parents_ops_and_notes():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None, note=lambda r: 0.0 if r is None else 1.0)
    outer = rec.wrap("outer", lambda: inner() or 7, note=float)
    rec.op = 3
    assert outer() == 7
    names = [(s.name, s.parent, s.op, s.note) for s in rec.spans]
    assert names == [("outer", None, 3, 7.0), ("inner", 0, 3, 0.0)]
    assert [s.duration for s in rec.spans] == [3.0, 1.0]


def test_timings_scale_by_the_reference_loop_around_them():
    ref = run.CAL_REF_S
    assert run.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert run.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)  # a host at half speed
    assert run.scale(3.0, ref, 2 * ref) == pytest.approx(2.0)  # slowed down during the operation
    p = run.Pass(0.0, 0.0, times=[1.0, 4.0], cals=[ref, 2 * ref, 2 * ref])
    assert p.scaled() == pytest.approx([2 / 3, 2.0])


def test_installed_wrappers_restore_originals_on_exit():
    modules = run.fresh_import()
    spans.assert_unpatched(modules)
    before = {(t.module, t.attr): getattr(modules[t.module], t.attr) for t in spans.TARGETS}
    with pytest.raises(KeyError):
        with spans.installed(spans.Recorder(), modules):
            with pytest.raises(RuntimeError):
                spans.assert_unpatched(modules)
            raise KeyError("leave the block by an exception")
    spans.assert_unpatched(modules)
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def _tiny_setup(workload: str) -> run.Setup:
    setup = run.set_up(workload, corpus_seed=0, seed=5)
    setup.ops = [op for op in setup.ops if not setup.entries[op.case]["binds"]][:4]
    assert setup.ops
    return setup


def _failed(setup: run.Setup) -> int:
    tally = run.Tally()
    run.run_passes(setup, budget_s=0.0, min_passes=1, tally=tally)
    return tally.failed


@pytest.mark.parametrize("workload", ["exact", "gk"])
def test_wrong_reference_optimum_counts_as_failed(workload):
    setup = _tiny_setup(workload)
    assert _failed(setup) == 0
    case = setup.ops[0].case
    # far below the true optimum, so even a (1 - eps) guarantee cannot hold
    wrong = 2 * setup.entries[case]["optimum"] - 1000
    setup.entries[case] = dict(setup.entries[case], optimum=wrong)
    assert _failed(setup) >= 1


def test_wrong_reference_frontier_counts_as_failed():
    setup = _tiny_setup("frontier")
    assert _failed(setup) == 0
    case = setup.ops[0].case
    points = list(setup.entries[case]["frontier"])
    points[-1] = (points[-1][0] - 1, points[-1][1])
    setup.entries[case] = dict(setup.entries[case], frontier=points)
    assert _failed(setup) >= 1


def test_raising_operation_counts_as_failed():
    setup = _tiny_setup("exact")
    setup.ops[0] = type(setup.ops[0])(setup.ops[0].case, "exact", None, "not an instance\n")
    assert _failed(setup) == 1


def test_frontier_value_interpolates_between_extreme_points():
    from refs import frontier_value

    points = [(Fraction(0), Fraction(0)), (Fraction(-6), Fraction(2)), (Fraction(-7), Fraction(4))]
    assert frontier_value(points, 1) == -3
    assert frontier_value(points, 3) == Fraction(-13, 2)
    assert frontier_value(points, 9) == -7


def test_reference_build_fails_when_the_oracle_disagrees(monkeypatch):
    import refs
    import workloads

    bcmcf = refs.import_bcmcf()
    table = json.loads(refs.table_path(0).read_text())
    i = next(i for i, e in enumerate(table["corpora"]["oracle"]) if e["oracle_checked"] and e["binds"])
    case = workloads.corpus_cases("oracle", 0)[i]
    assert refs.reference_entry(bcmcf, case)["oracle_checked"]
    true_optimum = bcmcf.oracle_optimum

    def off_by_one(inst, guard):
        sol = true_optimum(inst, guard=guard)
        return dataclasses.replace(sol, objective=sol.objective - 1)

    monkeypatch.setattr(bcmcf, "oracle_optimum", off_by_one)
    with pytest.raises(RuntimeError, match="oracle"):
        refs.reference_entry(bcmcf, case)


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="min_ratio_cycle divides by zero; once fixed, return this rung to the gk corpus")
def test_gk_rung_left_out_of_the_corpus():
    import refs

    bcmcf = refs.import_bcmcf()
    inst = bcmcf.generate_instance(12, 48, max_capacity=3, budget_mode="tight", seed=7)
    bcmcf.solve_gk(bcmcf.preprocess(inst), 0.25)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    setup = _tiny_setup("gk")
    tally = run.Tally()
    untraced = run.run_passes(setup, budget_s=0.0, min_passes=1, tally=tally)
    recorder = spans.Recorder()
    with spans.installed(recorder, setup.modules):
        traced = run.run_passes(setup, budget_s=0.0, min_passes=1, tally=tally, recorder=recorder)
    e2e = run.end_to_end_metrics([0.1], untraced, 50, 20.0)
    layers = run.layer_metrics(recorder, traced, untraced, [], run.input_properties(setup))
    for metrics, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {name: unit for name, (_, unit) in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
    assert layers["fptas.oracle_calls"][0] > 0 and layers["mcc.solves"][0] == 0
