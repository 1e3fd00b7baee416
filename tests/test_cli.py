import csv
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import mpmath
import pytest

from bergman.cli import FMT, RunConfig, _load_tuples, main
from bergman.forms import level_one_series, ramanujan_tau
from bergman.groups import modular_group
from bergman.metric import BasisSource, PoincareSource, ratio_scan
from bergman.uhp import UhpPoint
from test_symprod import per_tuple_formula

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "delta_weight12.jsonl"
README = ROOT / "README.md"


def run_cli(args, capsys=None):
    code = main(args)
    return code


@pytest.mark.parametrize("command, flags, message", [
    ("ratio-scan", ["--grid=0,0,1,1,0,1"],
     "--grid '0,0,1,1,0,1': nx and ny must be at least 1"),
    ("sym-scan", ["--grid", "0,0,1,1,1,0", "--d", "2"],
     "--grid '0,0,1,1,1,0': nx and ny must be at least 1"),
    # once truncated to a 2-column scan that exited 0
    ("ratio-scan", ["--grid=0,0.2,1,1,2.9,1"],
     "--grid '0,0.2,1,1,2.9,1': nx and ny must be whole numbers"),
    ("ratio-scan", ["--grid=0,0,1,1,nan,1"], "bad grid '0,0,1,1,nan,1'"),
    ("ratio-scan", ["--grid=0,0,1,1,1,inf"], "bad grid '0,0,1,1,1,inf'"),
    ("ratio-scan", ["--budget", "0"], "--budget must be at least 1, got 0"),
    ("kernel", ["--budget", "-5"], "--budget must be at least 1, got -5"),
    ("ratio-scan", ["--tol", "-1"],
     "--tol must be positive and finite, got -1.0"),
    ("ratio-scan", ["--tol", "0"], "--tol must be positive and finite, got 0.0"),
    ("ratio-scan", ["--tol", "inf"],
     "--tol must be positive and finite, got inf"),
    ("verify", ["--tol", "nan"], "--tol must be positive and finite, got nan"),
    ("ratio-scan", ["--k="], "--k '' lists no weight"),
    ("ratio-scan", ["--c-x", "-1"],
     "--c-x must be at least 0 and finite, got -1.0"),
    ("verify", ["--c-x", "nan"], "--c-x must be at least 0 and finite, got nan"),
    ("sym-scan", ["--k", "8,6,8"], "--k '8,6,8' repeats weight 8"),
], ids=["grid-nx-0", "config-grid-ny-0", "grid-fractional-count",
        "grid-nan-count", "grid-inf-count", "budget-0",
        "config-budget-negative", "tol-negative", "config-tol-0", "tol-inf",
        "tol-nan", "config-k-empty", "config-c-x-negative", "c-x-nan",
        "config-k-repeated"])
def test_bad_config_value_exits_2(tmp_path, capsys, command, flags, message):
    # "config" is the run's configuration, which flags alone set
    out = tmp_path / "scan.csv"
    code = main([command, "--forms", str(DATA), "--out", str(out)] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, points", [("0,1,1,1,2.0,1", 2),
                                          ("0,1,1,1,1e3,1", 1000)])
def test_grid_counts_may_be_written_as_floats(grid, points):
    _, cfg = RunConfig.from_argv(["ratio-scan", f"--grid={grid}"])
    assert len(cfg.grid_spec()) == points


@pytest.mark.parametrize("flag", [["--budget", "0"], ["--tol", "-1"]],
                         ids=["budget", "tol"])
def test_poincare_scan_refuses_bad_budget_or_tol_before_any_row(capsys, flag):
    # both once printed a flagged row and exited 1
    code = main(["ratio-scan", "--group", "modular", "--k", "6",
                 "--grid=0,0,1,1,1,1"] + flag)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"error: {flag[0]} must be")


def test_flag_forms_and_values():
    # --name value and --name=value are the same; the last repeat wins;
    # a value may begin with a single minus sign
    _, spaced = RunConfig.from_argv(["kernel", "--k", "6"])
    _, joined = RunConfig.from_argv(["kernel", "--k=6"])
    assert spaced == joined and spaced.k == "6"
    _, cfg = RunConfig.from_argv(["ratio-scan", "--k", "8", "--grid",
                                  "-0.45,0.45,0.6,2,4,4", "--k=6",
                                  "--z", "-0.3,1.2", "--budget", "8"])
    assert cfg.k == "6" and cfg.grid == "-0.45,0.45,0.6,2,4,4"
    assert cfg.z == "-0.3,1.2" and cfg.budget == 8


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--separable"], "unknown flag --separable"),
    (["kernel", "--c_gamma", "1"], "unknown flag --c_gamma"),
    (["kernel", "-k", "6"], "unknown flag -k"),
    (["kernel", "--k"], "--k needs a value"),
    (["ratio-scan", "--k", "--grid=0,0,1,1,1,1"], "--k needs a value"),
    (["sym-scan", "--d", "x"], "--d must be int, got 'x'"),
    (["sym-scan", "--d=2.0"], "--d must be int, got '2.0'"),
    (["ratio-scan", "--tol", "x"], "--tol must be float, got 'x'"),
    # the Petersson Gram has one domain, the modular one
    (["gram", "--domain", "strip"], "unknown flag --domain"),
    # scans run on one thread, so there is no thread count to set
    (["ratio-scan", "--threads", "2"], "unknown flag --threads"),
    # the orbit route and its displacement bound are gone
    (["kernel", "--bound", "80"], "unknown flag --bound"),
    # flags are the only way to set a run
    (["ratio-scan", "--config", "cfg.json"], "unknown flag --config"),
    (["--k", "6"], "missing command"),
    ([], "missing command"),
    (["scan", "--k", "6"], "unknown command 'scan'"),
    (["kernel", "gram"], "unexpected argument 'gram' after command 'kernel'"),
    (["kernel", "--k", "6", "8"],
     "unexpected argument '8' after command 'kernel'"),
    (["ratio-scan", "--k=,", "--grid=0,0,1,1,1,1"], "--k ',' lists no weight"),
    # c_Gamma is the constant groups.C_GAMMA
    (["ratio-scan", "--c-gamma", "nan"], "unknown flag --c-gamma"),
    (["ratio-scan", "--c-x", "-1"], "--c-x must be at least 0 and finite, got -1.0"),
    # a repeated weight would print its rows and summary twice
    (["ratio-scan", "--group", "modular", "--k", "6,6", "--grid=0,0,1,1,1,1"],
     "--k '6,6' repeats weight 6"),
], ids=["unknown", "underscore", "single-dash", "no-value", "flag-as-value",
        "d-string", "d-float", "tol-string", "domain", "threads", "bound",
        "config", "no-command", "empty",
        "unknown-command", "two-commands", "extra-positional", "k-empty",
        "c-gamma-nan", "c-x-negative", "k-repeated"])
def test_bad_command_line_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    code = main(argv + ["--forms", str(DATA), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_flag_and_exits_0(capsys, flag):
    code = main(["kernel", "--k", "6", flag])
    out = capsys.readouterr().out
    assert code == 0
    for command in ("ingest", "kernel", "gram", "ratio-scan", "sym-scan",
                    "verify"):
        assert command in out
    for f in fields(RunConfig):
        line = next(ln for ln in out.splitlines()
                    if ln.split()[:1] == ["--" + f.name.replace("_", "-")])
        assert line.endswith(f"default {f.default!r}")
    assert "--config" not in out and "--c-gamma" not in out


def test_readme_cli_names_only_real_flags():
    text = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    flags = {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}
    named = set(re.findall(r"--[a-z][a-z0-9_-]*", text))
    assert named and named <= flags | {"--help", "--name"}


def test_cli_imports_no_argparse():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergman.cli\n"
         f"code = bergman.cli.main(['gram', '--forms', {str(DATA)!r}])\n"
         "print(code, 'argparse' in sys.modules, 'locale' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


def test_missing_forms_exits_2(capsys):
    code = main(["verify", "--suite", "lemma4", "--forms", "/no/such.jsonl"])
    assert code == 2
    assert "/no/such.jsonl" in capsys.readouterr().err


def test_ingest_without_forms_exits_2(capsys):
    assert main(["ingest"]) == 2
    assert capsys.readouterr() == ("", "error: this command needs --forms\n")


def _forms(path, weight, rows):
    """A forms file of the given weight, one form per coefficient row."""
    path.write_text("".join(
        json.dumps({"label": f"f{i}", "weight": weight, "coefficients": row})
        + "\n" for i, row in enumerate(rows)))
    return path


def test_verify_suites_refuse_weight_2(tmp_path, capsys):
    # k = 1: the suites' ratios need k >= 2, whatever --k says
    forms = _forms(tmp_path / "w2.jsonl", 2, [[1.0, 0.5]])
    for suite in ("kernel-oracle", "lemma4", "prop9", "thm10"):
        assert main(["verify", "--suite", suite, "--forms", str(forms)]) == 2
        assert capsys.readouterr() == ("", "error: k must be >= 2\n")


def test_verify_prop9_refuses_zero_first_coefficient(tmp_path, capsys):
    # Delta^2 (weight 24) starts at q^2: sum |a_(j,1)|^2 over the
    # orthonormalized forms vanishes, so Prop 9's decay has no leading term
    square = level_one_series(2, 0, 0, 41)[1:]
    forms = _forms(tmp_path / "delta2.jsonl", 24, [square])
    assert main(["verify", "--suite", "prop9", "--forms", str(forms)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {forms}: sum |a_{{j,1}}|^2 vanishes\n")
    # one form with a_1 != 0 is enough: the suite runs
    forms = _forms(tmp_path / "two.jsonl", 12, [[1.0, 2.0], [0.0, 1.0]])
    assert main(["verify", "--suite", "prop9", "--forms", str(forms)]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, args, message", [
    ("ratio-scan", [], "forms have k=6, requested 8"),
    ("sym-scan", [], "forms have k=6, requested 8"),
    ("sym-scan", ["--tuples", "short.jsonl"], "tuple has 1 points, --d is 2"),
], ids=["ratio-scan", "sym-scan", "sym-scan-tuples-first"])
def test_forms_weight_mismatch_exits_2(tmp_path, monkeypatch, capsys, command,
                                       args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.jsonl").write_text("[[0.1,0.9]]\n")
    code = main([command, "--forms", str(DATA), "--k", "6,8", "--d", "2",
                 "--grid=-0.2,0.2,1,1.5,2,2", "--out", "out.csv"] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_unknown_suite_exits_2(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


def test_kernel_command_json(capsys):
    code = main(["kernel", "--group", "modular", "--k", "6", "--z", "0.0,1.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == "poincare"
    assert doc["value_diagonal"] == pytest.approx(3.078677147, rel=1e-6)
    # the coset sum is real and refuses a cut list, so no flag says so
    assert "exhaustive" not in doc and "imag_residual" not in doc
    assert doc["value_diagonal"] == pytest.approx(
        doc["identity_part"] + doc["parabolic_part"] + doc["rest_part"],
        rel=1e-11)
    assert 0 < doc["tail_estimate"] < 1e-12


def test_kernel_within_its_tail_of_the_lipschitz_closed_form(capsys):
    # the translation group is one coset: y^2k B = (2k-1)/(4 pi) tau^2k
    # L_2k(tau), tau = 2iy, with L_s(tau) = sum_n (tau + n)^(-s) =
    # (-2 pi i)^s/(s-1)! sum_m m^(s-1) q^m; the orbit route printed
    # 2.63e-6 here, 36 times the value; the one coset is the whole list,
    # so the tail is rounding alone, below the JSON's 12 printed digits
    assert main(["kernel", "--group", "translations", "--k", "3",
                 "--z", "0.4,2.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        tau = mpmath.mpc(0, 5)
        lipschitz = ((-2j * mpmath.pi) ** 6 / mpmath.factorial(5)
                     * mpmath.nsum(lambda m: m ** 5 * mpmath.exp(
                         2j * mpmath.pi * m * tau), [1, mpmath.inf]))
        exact = 5 / (4 * mpmath.pi) * tau ** 6 * lipschitz
        assert abs(exact.imag) < 1e-40
        assert exact.real == pytest.approx(7.2396003442e-8, rel=1e-10)
        printed = 5e-12 * doc["value_diagonal"]
        assert abs(doc["value_diagonal"] - exact.real) <= (
            doc["tail_estimate"] + printed)
    assert doc["tail_estimate"] <= 1e-12 * doc["value_diagonal"]
    assert doc["terms_used"] == 1 and doc["rest_part"] == 0.0


def test_kernel_refuses_a_value_its_tail_swamps(capsys):
    # at 0.1 + 9i the cosets' terms cancel: the sum printed 2.109e-32
    # beside a tail of 1.32e-32, where the table gives 2.081e-32; a tail
    # above --tol times the value exits 2, as ratio-scan refuses a row
    code = main(["kernel", "--group", "modular", "--k", "6",
                 "--z", "0.1,9"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: k=6 at z=(0.1+9j): y^2k B 2.10938251739e-32 +- 1.32e-32 "
        "exceeds tol 1e-05\n")
    # z = i and the kernel-oracle points at k = 6, and the prop3 points
    # at k = 3, 6 and 10, stay within the default --tol
    points = [("modular", 6, 0.0, 1.0), ("modular", 6, 0.5, math.sqrt(3) / 2)]
    points += [("translations", k, x, y) for k in (3, 6, 10)
               for x in (-0.4, -0.2, 0.0, 0.2, 0.4)
               for y in (0.7, 1.3, 1.9, 2.5)]
    for group, k, x, y in points:
        assert main(["kernel", "--group", group, "--k", str(k),
                     f"--z={x},{y}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tail_estimate"] <= 1e-5 * abs(doc["value_diagonal"])


def test_kernel_budget_cut_exits_2(capsys):
    # 50 cosets do not cover the sieve at z = i: refused, not summed short
    code = main(["kernel", "--group", "modular", "--k", "6", "--budget", "50"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: coset sieve at z=1j listed more than 50 "
                            "cosets\n")


def test_kernel_out_file_gets_every_weight(tmp_path, capsys):
    args = ["kernel", "--group", "modular", "--k", "6,8", "--z", "0.1,1.2"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "kernel.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout
    assert stdout.count('"k": ') == 2


def test_ingest_reports_forms(capsys):
    code = main(["ingest", "--forms", str(DATA)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"forms": 1, "weight": 12, "labels": ["delta"],
                   "coefficients": [200]}


def test_gram_csv(capsys):
    code = main(["gram", "--forms", str(DATA)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "form_i,form_j,re,im"
    label, _, re, im = lines[1].split(",")
    assert label == "delta"
    assert float(re) == pytest.approx(1.03536205680e-06, rel=1e-9)
    # the refinement change, max |G_ij - G'_ij| / sqrt(G_ii G_jj)
    assert len(lines) == 3 and lines[2].startswith("# refinement_change=")
    assert 0.0 <= float(lines[2].split("=")[1]) <= 1e-14


def _gram_failure(tmp_path, capsys, command, rows):
    """Exit code and stderr of a command on a weight-12 forms file."""
    forms = tmp_path / "forms.jsonl"
    forms.write_text("".join(
        json.dumps({"label": f"f{i}", "weight": 12, "coefficients": row})
        + "\n" for i, row in enumerate(rows)))
    out = tmp_path / "out.txt"
    code = main([command, "--forms", str(forms), "--k", "6", "--d", "1",
                 "--grid=0,0,1,1,1,1", "--suite", "lemma4", "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return code, captured.err, forms


@pytest.mark.parametrize("command", ["ratio-scan", "sym-scan", "verify"])
def test_singular_gram_exits_2(tmp_path, capsys, command):
    # two identical forms: their Gram is singular
    code, err, forms = _gram_failure(tmp_path, capsys, command,
                                     [[1.0, 0.5, 0.25]] * 2)
    assert code == 2
    assert err == f"error: {forms}: smallest eigenvalue ratio 0.000e+00\n"


STEEP = [math.exp(5.44 * m) for m in range(1, 120)]
# Delta and the steep form scaled to 1e-9 of its norm: measured against
# the largest entry, the steep form's change would pass as 4.1e-10
SMALL_STEEP = [list(map(float, ramanujan_tau(119))),
               [1.4e-7 * a for a in STEEP]]
GRAM_COMMANDS = ["gram", "ratio-scan", "sym-scan", "verify"]


@pytest.mark.parametrize("command, rows", [
    pytest.param(c, [STEEP], id=c) for c in GRAM_COMMANDS] + [
    pytest.param(c, SMALL_STEEP, id=f"{c}-small-steep-beside-delta")
    for c in GRAM_COMMANDS])
def test_unconverged_gram_exits_2(tmp_path, capsys, command, rows):
    # a_m = e^(5.44 m): the check rule moves the steep form's entries by
    # 3.8e-6 of sqrt(G_ii G_jj)
    code, err, forms = _gram_failure(tmp_path, capsys, command, rows)
    assert code == 2
    assert err == (f"error: {forms}: refinement change 3.786e-06 exceeds "
                   f"tolerance 1.000e-08\n")


def test_verify_kernel_oracle_trivial_group(tmp_path, capsys):
    # the trivial group has no unit translation, so no cusp at i*infinity:
    # no longer a preset, and refused from a file
    path = tmp_path / "trivial.json"
    path.write_text('{"label": "trivial", "generators": []}')
    for group, err in (("trivial", "unknown group preset 'trivial'"),
                       (f"file:{path}", "group trivial lacks the unit "
                                        "translation: no cusp at i*infinity")):
        code = main(["verify", "--suite", "kernel-oracle", "--group", group])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {err}\n"


def test_verify_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "prop3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"suite", "pass", "metrics", "tolerances"}
    assert doc["suite"] == "prop3"


def test_verify_thm10_refuses_every_row_beyond_tol(tmp_path):
    # the suite once scanned at the default tolerance and passed
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "thm10", "--tol", "1e-20",
                 "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 1 and doc["pass"] is False
    assert doc["metrics"]["sup_ratio_over_k2"] == -math.inf
    assert doc["metrics"]["sup_point"] is None


def test_ratio_scan_csv_and_threads_determinism(tmp_path):
    # two runs write the same bytes
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"scan{run}.csv"
        code = main(["ratio-scan", "--forms", str(DATA), "--k", "6",
                     "--grid=-0.3,0.3,0.8,2.5,3,3", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == ("k,x,y,region,route,ratio,err,ratio_over_k2,bound,"
                      "bound_ok,error")
    assert "route" in header and ",basis," in outs[0].decode()


@pytest.mark.parametrize("args", [
    ["--group", "modular", "--k", "6,8", "--grid=-0.4,0.4,0.2,6,3,6",
     "--budget", "1000"],
    ["--forms", str(DATA), "--k", "6", "--grid=-0.4,0.4,0.4,5,3,4"]],
    ids=["modular", "delta"])
def test_ratio_scan_err_column_is_the_ratio_error_bound(tmp_path, args):
    # err is the bound ratio_scan checks against --tol, to 3 digits, and
    # nan on a refused row: on PSL(2, Z), 1,000 cosets refuse k = 6 at
    # +-0.4 + 0.2i, whose images in F stay below Y_6 (0.2i takes the
    # table at its image 5i)
    out = tmp_path / "scan.csv"
    main(["ratio-scan"] + args + ["--out", str(out)])
    _, cfg = RunConfig.from_argv(["ratio-scan"] + args)
    if cfg.forms:
        sources = [BasisSource(cfg.basis())]
    else:
        sources = [PoincareSource(modular_group(), k, cfg.budget)
                   for k in cfg.k_values()]
    tables, _ = ratio_scan(sources, cfg.grid_spec())
    header, *rows = _csv_rows(out)
    assert header[6] == "err"
    want = ["%.3g" % e for t in tables for e in t.error_bound.tolist()]
    assert [row[6] for row in rows] == want
    refused = [row for row in rows if row[10]]
    assert all(row[6] == "nan" for row in refused)
    if cfg.forms is None:
        assert refused and len(refused) < len(rows)


def test_cusp_row_within_tolerance_on_the_fourier_route(tmp_path):
    # the coset route's bound at 0.1 + 5.5i was 5.2e-5 of the ratio, so
    # --tol 1e-5 refused a row that missed k/(2 pi) by 3.4e-7; from the
    # Fourier table the row is returned, within its bound of k/(2 pi)
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", "modular", "--k", "6",
                 "--grid=0.1,0.1,5.5,5.5,1,1", "--tol", "1e-5",
                 "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[10] == "" and row[9] == "1"
    ratio, err = float(row[5]), float(row[6])
    assert err <= 1e-5 * ratio
    # the printed ratio carries 12 significant digits
    assert abs(ratio - 6 / (2 * math.pi)) <= err + 5e-13


def test_ratio_scan_flags_budget_cut_orbit(tmp_path):
    # 50 cosets do not cover the coset list at z=i: the row carries the
    # error instead of a ratio from the truncated sum
    rows = {}
    for budget in ("50", "200000"):
        out = tmp_path / f"scan{budget}.csv"
        main(["ratio-scan", "--group", "modular", "--k", "6",
              "--grid=0,0,1,1,1,1", "--budget", budget,
              "--out", str(out)])
        rows[budget] = out.read_text().splitlines()[1].split(",")
    cut = rows["50"]
    assert cut[5] == "nan" and cut[9] == "0"
    assert cut[10].startswith("BudgetExceeded: ")
    full = rows["200000"]
    assert full[10] == "" and full[9] == "1"
    assert float(full[5]) == pytest.approx(6 / (2 * math.pi), rel=1e-8)


def test_ratio_scan_all_flagged_weight_fails(tmp_path):
    # every row of the weight is flagged, so there is no sup to pass
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", "modular", "--k", "6",
                 "--grid=0,0,1,1,1,1", "--budget", "50", "--out", str(out)])
    assert code == 1
    summary = out.read_text().splitlines()[-1]
    assert "sup_ratio_over_k2=-inf" in summary
    assert summary.endswith("within=False")


def _csv_rows(path):
    """The table rows of a CSV output, parsed by the csv module."""
    lines = [ln for ln in path.read_text().splitlines(keepends=True)
             if not ln.startswith("#")]
    return list(csv.reader(lines))


def test_error_cells_with_commas_are_quoted(tmp_path):
    # s = 2k + 2 > 170 refuses the row with "... s <= 170, got 180"; the
    # kernel at y = 60 vanishes, its message naming UhpPoint(x, y)
    scans = {"k90": ["--group", "modular", "--k", "90", "--grid=0,0,1,1,1,1"],
             "vanish": ["--forms", str(DATA), "--k", "6",
                        "--grid=-0.2,0.2,1,60,2,2"]}
    for name, args in scans.items():
        out = tmp_path / f"{name}.csv"
        assert main(["ratio-scan"] + args + ["--out", str(out)]) == 1
        header, *rows = _csv_rows(out)
        assert rows and all(len(row) == len(header) == 11 for row in rows)
        assert any("," in row[10] for row in rows)
    tuples = tmp_path / "tuples.jsonl"
    tuples.write_text('[[0.1,0.9],[0.1,0.9000001]]\n[[0.0,1.2],[0.3,0.8]]\n')
    out = tmp_path / "sym.csv"
    assert main(["sym-scan", "--forms", str(DATA), "--k", "6", "--d", "2",
                 "--tuples", str(tuples), "--out", str(out)]) == 1
    header, *rows = _csv_rows(out)
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert rows[0][6].startswith("NearDiagonal: ") and rows[1][6] == ""


def test_sym_scan_with_tuple_file(tmp_path):
    tuples = tmp_path / "tuples.jsonl"
    tuples.write_text('[[0.1,0.9],[-0.2,1.4]]\n[[0.0,1.2],[0.3,0.8]]\n')
    out = tmp_path / "sym.csv"
    code = main(["sym-scan", "--forms", str(DATA), "--k", "6", "--d", "2",
                 "--tuples", str(tuples), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,tuple,route")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3
    assert any("within=True" in ln for ln in lines)


@pytest.mark.parametrize("line, message", [
    # a one-point tuple in a d = 2 scan would be normalized by k^4
    ("[[0.0,1.2]]", "tuples.jsonl:2: tuple has 1 points, --d is 2"),
    ("[[0.0,1.2],[0.3]]", "tuples.jsonl:2: bad tuple"),
    ("not json", "tuples.jsonl:2: bad tuple"),
    # each point is a list of exactly two JSON numbers
    ("[[0.1,0.9,7],[0.2,1.1]]",
     "tuples.jsonl:2: bad tuple: point [0.1, 0.9, 7] is not two numbers"),
    ('[["0.1",0.9],[0.2,1.1]]',
     'tuples.jsonl:2: bad tuple: point ["0.1", 0.9] is not two numbers'),
    ("[[0.1,0.9],[true,1.1]]",
     "tuples.jsonl:2: bad tuple: point [true, 1.1] is not two numbers"),
    # the whole-file checks hand these to the line-by-line messages
    ("[[NaN,0.9],[0.2,1.1]]",
     "tuples.jsonl:2: bad tuple: non-finite point (nan, 0.9)"),
    ("[[0.1,0.9],[0.2,-1.1]]",
     "tuples.jsonl:2: bad tuple: height must be positive, got -1.1"),
    # joined, these three lines would parse as two tuples and a third
    ("[[0.1,0.9],[0.2,1.1]],[[0.3,0.8],[0.4,1.0]]\n[[0.5,0.9]\n[0.2,1.1]]",
     "tuples.jsonl:2: bad tuple: Extra data"),
], ids=["short", "point", "json", "three-coordinates", "string", "boolean",
        "nan", "height", "split-across-lines"])
def test_sym_scan_refuses_bad_tuple_line(tmp_path, capsys, line, message):
    tuples = tmp_path / "tuples.jsonl"
    tuples.write_text('[[0.1,0.9],[-0.2,1.4]]\n' + line + '\n')
    out = tmp_path / "sym.csv"
    code = main(["sym-scan", "--forms", str(DATA), "--k", "6", "--d", "2",
                 "--tuples", str(tuples), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sym_scan_reads_integer_and_huge_coordinates(tmp_path):
    # integers are JSON numbers too; one beyond int64 is read line by line
    tuples = tmp_path / "tuples.jsonl"
    tuples.write_text("[[0,1],[1e-1,2]]\n[[0,1],[%d,2]]\n" % 10 ** 20)
    _, cfg = RunConfig.from_argv(["sym-scan", "--d", "2",
                                  "--tuples", str(tuples)])
    assert _load_tuples(cfg).tolist() == [[1j, 0.1 + 2j], [1j, 1e20 + 2j]]


def test_sym_scan_grid_tuples_are_the_distinct_cartesian_power():
    # the grid lists each point twice; a tuple repeating one is dropped
    for d in (1, 2, 3):
        _, cfg = RunConfig.from_argv(["sym-scan", "--d", str(d),
                                      "--grid=0,0,1,2,2,3"])
        base = cfg.grid_spec()
        ref = [[p.z for p in tup] for tup in itertools.product(base, repeat=d)
               if len({(p.x, p.y) for p in tup}) == d]
        assert _load_tuples(cfg).tolist() == ref


def _three_forms(path):
    """A weight-12 file of three forms, so that d = 3 takes the stacked
    closed form instead of the product fallback."""
    with open(path, "w") as fh:
        for j in range(3):
            fh.write(json.dumps({"label": f"f{j}", "weight": 12,
                                 "coefficients": [0.0] * j + [1.0, 0.5, 0.25]})
                     + "\n")


def test_sym_scan_csv_rows_equal_the_per_tuple_formula(tmp_path):
    forms, tuples = tmp_path / "three.jsonl", tmp_path / "tuples.jsonl"
    _three_forms(forms)
    z = UhpPoint(0.1, 0.9)
    good = [[UhpPoint(0.1, 0.6), UhpPoint(-0.2, 0.8), UhpPoint(0.3, 0.7)],
            [UhpPoint(0.0, 0.9), UhpPoint(0.25, 0.55), UhpPoint(-0.3, 0.65)]]
    rows = [good[0], [z, z, UhpPoint(0.3, 0.7)],
            [z, UhpPoint(z.x + 1.0, z.y), UhpPoint(-0.3, 0.65)], good[1]]
    tuples.write_text("".join(json.dumps([[p.x, p.y] for p in zs]) + "\n"
                              for zs in rows))
    out = tmp_path / "sym.csv"
    assert main(["sym-scan", "--forms", str(forms), "--k", "6", "--d", "3",
                 "--tuples", str(tuples), "--out", str(out)]) == 1
    header, *cells = _csv_rows(out)
    assert header == ["k", "tuple", "route", "ratio", "ratio_over_k2d",
                      "degenerate", "error"]
    assert len(cells) == len(rows)
    assert all(len(row) == len(header) for row in cells)
    basis = RunConfig(forms=str(forms)).basis()
    for row, zs in zip(cells, rows):
        assert row[:3] == ["6", ";".join(f"{FMT % p.x}+{FMT % p.y}i"
                                         for p in zs), "formula"]
    for row, zs in zip(cells[0::3], good):
        volume = per_tuple_formula(basis, zs, 6)[0]
        assert row[3:] == [FMT % volume, FMT % (abs(volume) / 6 ** 6), "0", ""]
    assert cells[1][3:] == ["nan", "nan", "0", "NearDiagonal: min pairwise "
                                               "distance 0.00e+00"]
    assert cells[2][3:] == ["nan", "nan", "0", "DomainError: evaluation "
                                               "covectors nearly dependent"]
    summary = out.read_text().splitlines()[-1]
    assert summary.startswith("# k=6 d=3 sup=") and "flagged=2" in summary


@pytest.mark.parametrize("args, message", [
    (["--d", "-1"], "--d must be at least 1, got -1"),
    (["--d", "0"], "--d must be at least 1, got 0"),
    (["--d", "2", "--grid=0,0,1,1,1,1"],
     "--grid '0,0,1,1,1,1' has 1 distinct points, fewer than --d 2"),
], ids=["negative", "zero", "one-point-grid"])
def test_sym_scan_refuses_bad_degree(tmp_path, capsys, args, message):
    out = tmp_path / "sym.csv"
    code = main(["sym-scan", "--forms", str(DATA), "--k", "6",
                 "--out", str(out)] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman.cli", "verify", "--suite",
         "kernel-oracle", "--group", "modular"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_poincare_scan_byte_identical_across_threads(tmp_path):
    # points 0.04 apart once shared whichever cached orbit was computed
    # first, so the output depended on the order of evaluation; two runs
    # write the same bytes
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"scan{run}.csv"
        code = main(["ratio-scan", "--group", "modular", "--k", "6",
                     "--grid=-0.06,0.06,1.0,1.12,4,4", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ratio_scan_refuses_row_beyond_tolerance(tmp_path):
    # free2 has no Fourier table: at y = 8 its coset terms cancel and the
    # sum's error bound exceeds tol |ratio|, so the row is refused
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", "free2", "--k", "6",
                 "--grid=0.314368,0.314368,8,8,1,1", "--out", str(out)])
    assert code == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] == "nan" and row[9] == "0"
    assert row[10].startswith("ErrorBoundExceeded: ")


def test_ratio_scan_partly_refused_exits_nonzero(tmp_path):
    # on free2, y = 7 and 8 are refused with ErrorBoundExceeded while the
    # sup over the other rows stays within the limit: the flagged rows
    # alone must fail the command, and the summary counts them
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", "free2", "--k", "6",
                 "--grid=0,0,1,8,1,8", "--out", str(out)])
    assert code == 1
    lines = out.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    refused = {float(r[2]) for r in rows if r[10]}
    assert refused == {7.0, 8.0}
    for r in rows:
        if float(r[2]) in refused:
            assert r[10].startswith("ErrorBoundExceeded: ")
    summary = lines[-1]
    assert " flagged=2 " in summary and summary.endswith("within=True")


@pytest.mark.parametrize("command, kind, text", [
    ("ratio-scan", "group", None),
    ("ratio-scan", "group", "[1, 2]"),
    ("ratio-scan", "group", '{"generators": [[1, 1, 0], [1, 0, 2, 1]]}'),
    ("kernel", "group", '{"generators": [[1, 1, 0, 1], [1, 0, 2, 1]'),
    ("gram", "forms", '{"weight": 12, "coefficients": [1.0]}\n'),
    ("ratio-scan", "forms", "not json\n"),
    ("sym-scan", "forms", '{"label": "f", "weight": 12, "coefficients": 1}\n'),
    ("ingest", "forms", '{"label": "f", "weight": 11, "coefficients": [1]}\n'),
], ids=["group-missing", "group-not-object", "group-row-of-3",
        "group-bad-json", "forms-no-label", "forms-not-json",
        "forms-coefficients-not-list", "forms-odd-weight"])
def test_malformed_outside_file_exits_2(tmp_path, capsys, command, kind,
                                        text):
    path = tmp_path / f"input.{kind}"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out.txt"
    source = (["--group", f"file:{path}"] if kind == "group"
              else ["--forms", str(path)])
    code = main([command, "--k", "6", "--d", "2", "--grid=0,0.1,1,1,2,1",
                 "--out", str(out)] + source)
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err
    if kind == "forms":
        assert f"{path}:1: " in err
    assert not out.exists()


@pytest.mark.parametrize("translation", [[1, 1, 0, 1], [1, -1, 0, 1]],
                         ids=["T", "T-inverse"])
def test_group_file_with_either_unit_translation_walks(tmp_path, translation):
    # Gamma_0(2) given by T^-1 once fell back to the orbit route and
    # flagged the row
    group = tmp_path / "gamma02.json"
    group.write_text(json.dumps({"generators": [translation, [1, 0, 2, 1]]}))
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", f"file:{group}", "--k", "6",
                 "--grid=0.1,0.1,1,1,1,1", "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] == "0.783344159095" and row[10] == ""


def _scan_row(tmp_path, k, x, y):
    """ratio and err of ``ratio-scan --group modular`` at the one point."""
    out = tmp_path / "row.csv"
    assert main(["ratio-scan", "--group", "modular", "--k", str(k),
                 f"--grid={x!r},{x!r},{y!r},{y!r},1,1",
                 "--out", str(out)]) == 0
    (row,) = _csv_rows(out)[1:]
    assert row[1:3] == [FMT % x, FMT % y] and row[10] == ""
    return float(row[5]), float(row[6])


@pytest.mark.parametrize("k", [6, 8, 12])
@pytest.mark.parametrize("z", [0.2 + 1.5j, 0.2 + 1.2j, -0.37 + 1.02j])
def test_ratio_scan_rows_are_invariant_under_the_group(tmp_path, k, z):
    # z, z + 3, Sz = -1/z and (2z + 1)/(7z + 4) are one point of
    # PSL(2, Z)\H: rows taken at their own point, over cosets, and at
    # their image, from the table, agree within the sum of their errs
    # (at k = 12, dim S_24 = 2, the ratio is not constant).  The far
    # image, at y of about 0.01, returns only from the table, so only
    # for z at or above every Y_k (1.5 >= Y_12 = 1.375)
    images = [z, z + 3, -1 / z]
    if z.imag >= 1.5:
        images.append((2 * z + 1) / (7 * z + 4))
    rows = [_scan_row(tmp_path, k, w.real, w.imag) for w in images]
    for (r1, e1), (r2, e2) in itertools.combinations(rows, 2):
        # plus the printing of two ratios below 10 to 12 digits
        assert abs(r1 - r2) <= e1 + e2 + 1e-11


@pytest.mark.parametrize("k", [6, 8])
def test_deep_cusp_and_far_rows_return_k_over_2pi(tmp_path, k):
    # B^2 underflows from y of about 29 up; scaled by a power of two
    # first, the rows at 0.1 + 30i, 0.1 + 40i and 5 + 0.02i (whose image
    # is 50i) return, and at dim S_2k = 1 the ratio is k/(2 pi)
    with mpmath.workdps(30):
        exact = mpmath.mpf(k) / (2 * mpmath.pi)
        for x, y in ((0.1, 30.0), (0.1, 40.0), (5.0, 0.02)):
            ratio, err = _scan_row(tmp_path, k, x, y)
            assert err < 1e-6
            # the printed ratio carries 12 significant digits
            assert abs(mpmath.mpf(ratio) - exact) <= err + 5e-12


def test_scan_far_from_the_fundamental_domain_returns_every_row(tmp_path):
    # x from 3.2 to 5.9, y from 0.02 to 0.3: the coset route refused 22
    # of these 24 rows, one with a negative kernel at 5 + 0.16i; at
    # their images every row returns, within its err of k/(2 pi)
    out = tmp_path / "far.csv"
    assert main(["ratio-scan", "--group", "modular", "--k", "6,8",
                 "--grid=3.2,5.9,0.02,0.3,4,3", "--out", str(out)]) == 0
    rows = _csv_rows(out)[1:]
    assert len(rows) == 24
    with mpmath.workdps(30):
        for row in rows:
            assert row[10] == "" and row[9] == "1"
            exact = mpmath.mpf(int(row[0])) / (2 * mpmath.pi)
            assert abs(mpmath.mpf(row[5]) - exact) <= float(row[6]) + 5e-12
