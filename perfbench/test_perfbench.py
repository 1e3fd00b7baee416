"""Tests of the benchmark's own inputs, references, classification and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from bergman.forms import (CuspFormBasis, QExpansionForm, QuadratureDomain,  # noqa: E402
                           evaluate_q_expansion, load_forms, modularity_defect,
                           orthonormal_basis, petersson_gram, ramanujan_tau)
from bergman.symprod import fs_form_direct_oracle  # noqa: E402
from bergman.uhp import MoebiusTransform, UhpPoint  # noqa: E402

S = MoebiusTransform(0.0, -1.0, 1.0, 0.0)
ST = MoebiusTransform(1.0, 1.0, 1.0, 2.0)


def test_delta_series_matches_program_tau():
    assert inputs.delta_series(60)[1:] == list(ramanujan_tau(60))


def test_s36_generator_yields_cusp_forms():
    series = inputs.s36_series()
    assert [s[0] for _, s in series] == [0, 0, 0]  # a_0 = 0: cusp forms
    forms = inputs.s36_forms()
    assert len(forms) == 3
    for label, coeffs in forms:
        assert len(coeffs) == inputs.S36_TERMS and coeffs[0] == 1
        form = QExpansionForm(label, 36, tuple(float(c) for c in coeffs))
        for gamma, z in ((S, UhpPoint(0.1, 1.1)), (ST, UhpPoint(-0.2, 1.3))):
            jac = abs(gamma.c * z.z + gamma.d) ** 36
            scale = jac * abs(evaluate_q_expansion(form, z))
            assert modularity_defect(form, gamma, z) <= 1e-10 * scale


def test_build_is_seeded_and_writes_loadable_forms(tmp_path):
    a = inputs.build("sym-scan", 7, tmp_path / "a")
    b = inputs.build("sym-scan", 7, tmp_path / "b")
    c = inputs.build("sym-scan", 8, tmp_path / "c")
    assert [x.expected for x in a.calls] == [x.expected for x in b.calls]
    assert [x.expected for x in a.calls] != [x.expected for x in c.calls]
    assert [len(x.expected) for x in a.calls] == list(inputs.SYM_TUPLES.values())
    (path,) = a.forms
    assert [f.weight for f in load_forms(path)] == [36] * 3


def _s36_bases():
    forms = inputs.s36_forms()
    coeffs = oracle.coefficient_matrix(forms)
    raw = CuspFormBasis(forms=[QExpansionForm(label, 36, tuple(map(float, c)))
                               for label, c in forms])
    program = petersson_gram(raw, QuadratureDomain())
    return coeffs, raw, program


def test_reference_gram_matches_program_gram():
    coeffs, _, program = _s36_bases()
    ours = oracle.petersson_gram(coeffs, 36)
    assert np.max(np.abs(ours - program)) <= 1e-8 * np.max(np.abs(program))
    delta = oracle.coefficient_matrix([("delta", inputs.delta_series(200)[1:])])
    norm = oracle.petersson_gram(delta, 12)[0, 0].real
    assert norm == pytest.approx(oracle.DELTA_NORM, rel=1e-10)


def test_closed_form_fs_volume_matches_projector_oracle():
    coeffs, raw, program = _s36_bases()
    raw.gram = program
    basis = orthonormal_basis(raw)
    ours = oracle.orthonormalize(coeffs, oracle.petersson_gram(coeffs, 36))
    for zs in ([(0.1, 0.9), (-0.2, 1.3)], [(0.3, 0.7), (0.0, 1.5)]):
        ref = oracle.fs_volume_ratio(ours, zs, 18)
        other = fs_form_direct_oracle(basis, [UhpPoint(*p) for p in zs], 18)
        assert ref == pytest.approx(other.fs_volume_ratio, rel=1e-5)
    exact = (18 / (2 * math.pi)) ** 3
    zs = [(0.1, 0.9), (-0.2, 1.3), (0.3, 0.7)]
    assert oracle.fs_volume_ratio(ours, zs, 18) == pytest.approx(exact, rel=1e-7)


def _ratio_call(tmp_path, rows):
    call = inputs.Call("ratio", ["ratio-scan", "--group", "modular"], "ratio",
                       expected=[(6, 0.1, 1.0), (6, 0.1, 2.0), (6, 0.1, 3.0)])
    call.references = [6 / (2 * math.pi)] * 3
    out = tmp_path / "ratio.csv"
    out.write_text("k,x,y,region,route,ratio,ratio_over_k2,bound,bound_ok,"
                   "error\n" + "".join(r + "\n" for r in rows)
                   + "# k=6 sup_ratio_over_k2=0.02 limit=8.27 within=True\n")
    return call, {"exit": 0, "error": None, "out": str(out)}


def test_planted_wrong_and_flagged_rows_are_classified(tmp_path):
    exact = "%.12g" % (6 / (2 * math.pi))
    call, outcome = _ratio_call(tmp_path, [
        f"6,0.1,1,CompactPart,poincare,{exact},0.02,1e15,1,",
        "6,0.1,2,CompactPart,poincare,1.5629,0.04,1e15,1,",
        "6,0.1,3,CompactPart,poincare,nan,nan,nan,0,BudgetExceeded: y=3",
    ])
    tally = oracle.classify(call, outcome)
    assert (tally.attempted, tally.flagged, tally.wrong) == (3, 1, 1)
    assert tally.checkable and tally.failed == 2


def test_failed_call_flags_every_row_and_mismatch_is_uncheckable(tmp_path):
    exact = "%.12g" % (6 / (2 * math.pi))
    call, outcome = _ratio_call(tmp_path, [
        f"6,0.1,1,CompactPart,poincare,{exact},0.02,1e15,1,"])
    raised = dict(outcome, exit=None, error="Traceback ...")
    assert oracle.classify(call, raised).flagged == 3
    config_error = dict(outcome, exit=2)
    assert oracle.classify(call, config_error).flagged == 3
    short = oracle.classify(call, outcome)
    assert not short.checkable and short.wrong == 3
    assert oracle.classify(call, dict(outcome, exit=1)).flagged == 3


def test_exit_1_with_complete_output_classifies_each_row(tmp_path):
    # exit 1 only reports a summary outside its limit; a wrong row that
    # becomes a flagged row must leave the failed count unchanged
    exact = "%.12g" % (6 / (2 * math.pi))
    call, outcome = _ratio_call(tmp_path, [
        f"6,0.1,1,CompactPart,poincare,{exact},0.02,1e15,1,",
        f"6,0.1,2,CompactPart,poincare,{exact},0.02,1e15,1,",
        "6,0.1,3,CompactPart,poincare,nan,nan,nan,0,BudgetExceeded: y=3",
    ])
    tally = oracle.classify(call, dict(outcome, exit=1))
    assert (tally.attempted, tally.flagged, tally.wrong) == (3, 1, 0)
    assert tally.checkable


def test_passes_over_the_same_rows_count_each_row_once(tmp_path):
    exact = "%.12g" % (6 / (2 * math.pi))
    ok = f"6,0.1,1,CompactPart,poincare,{exact},0.02,1e15,1,"
    call, first = _ratio_call(tmp_path, [
        ok, ok.replace(",1,Compact", ",2,Compact"),
        "6,0.1,3,CompactPart,poincare,1.5629,0.04,1e15,1,"])
    again = oracle.classify(call, first)
    flagged = oracle.classify(call, dict(first, exit=None, error="boom"))
    total = oracle.Tally(attempted=3)
    for tally in (oracle.classify(call, first), again, flagged):
        total.merge(tally)
    assert (total.attempted, total.failed) == (3, 3)
    assert (total.flagged, total.wrong) == (3, 0)
    total = oracle.Tally(attempted=3)
    total.merge(again)
    total.merge(again)
    assert (total.failed, total.wrong) == (1, 1)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],     # overlaps a: union of children is 1..6
        ["leaf", 1.5, 2.0, 1, 0],
        ["c", 9.0, 12.0, 0, 0],    # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_tracer_wraps_every_import_site_and_restores():
    import bergman.cli  # noqa: F401  (loads every module)
    import bergman.groups
    import bergman.metric
    orig = bergman.groups.enumerate_group_elements
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bergman.metric.enumerate_group_elements is \
            bergman.groups.enumerate_group_elements is not orig
        from bergman.groups import modular_group
        tracer.run = 3
        bergman.metric.enumerate_group_elements(
            modular_group(), UhpPoint(0.0, 1.0), 4.0)
    finally:
        tracer.uninstall()
    assert bergman.metric.enumerate_group_elements is orig
    assert [span[4] for span in tracer.spans] == [3]
    m = tracing.add_ratios(tracing.layer_totals(tracer.spans, tracer.counts))
    assert m["groups.enumerate.calls"] == 1
    assert m["uhp.apply_moebius.calls"] > 0
    assert 0.0 < m["groups.enumerate.yield"] <= 1.0


def test_benchmark_json_lists_the_metrics_run_reports():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(inputs.WORKLOADS)
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in config["end_to_end"]} == {
        "cpu_s", "setup_s", "peak_rss_mb"}


def test_each_call_runs_in_a_fresh_process(tmp_path):
    import types

    import worker
    state = {"calls": 0}

    def main(argv):
        state["calls"] += 1
        return state["calls"]  # the exit code shows any earlier call's state

    cli = types.SimpleNamespace(main=main)
    records = [worker.call_in_child(cli, None, [], str(tmp_path / f"{i}.json"))
               for i in range(2)]
    assert [r["exit"] for r in records] == [1, 1]
    assert state["calls"] == 0 and all(r["rss_mb"] > 0 for r in records)
