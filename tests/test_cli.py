import json
import math
import pathlib
import subprocess
import sys

import pytest

from bergman.cli import ConfigError, RunConfig, build_parser, main

DATA = pathlib.Path(__file__).resolve().parents[1] / "data" / "delta_weight12.jsonl"


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": "8", "bound": 99.0}))
    parser = build_parser()
    args = parser.parse_args(["kernel", "--config", str(cfg_path),
                              "--k", "6"])
    cfg = RunConfig.from_args(args)
    assert cfg.k_values() == [6]  # flag wins
    assert cfg.bound == 99.0      # file value kept


def test_config_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    parser = build_parser()
    args = parser.parse_args(["kernel", "--config", str(cfg_path)])
    with pytest.raises(ConfigError):
        RunConfig.from_args(args)


def test_missing_forms_exits_2(capsys):
    code = main(["verify", "--suite", "lemma4", "--forms", "/no/such.jsonl"])
    assert code == 2
    assert "/no/such.jsonl" in capsys.readouterr().err


def test_unknown_suite_exits_2(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


def test_kernel_command_json(capsys):
    code = main(["kernel", "--group", "modular", "--k", "6", "--z", "0.0,1.0",
                 "--bound", "80"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == "poincare"
    assert doc["value_diagonal"] == pytest.approx(3.078677147, rel=1e-6)
    assert doc["exhaustive"] is True


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


def test_verify_kernel_oracle_trivial_group(capsys):
    code = main(["verify", "--suite", "kernel-oracle", "--group", "trivial"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["metrics"]["deviation"] == 0.0


def test_verify_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "prop3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"suite", "pass", "metrics", "tolerances"}
    assert doc["suite"] == "prop3"


def test_ratio_scan_csv_and_threads_determinism(tmp_path):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"scan{threads}.csv"
        code = main(["ratio-scan", "--forms", str(DATA), "--k", "6",
                     "--grid=-0.3,0.3,0.8,2.5,3,3", "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == ("k,x,y,region,route,ratio,ratio_over_k2,bound,"
                      "bound_ok,error")
    assert "route" in header and ",basis," in outs[0].decode()


def test_ratio_scan_flags_budget_cut_orbit(tmp_path):
    # a budget of 50 expansions cuts the orbit at z=i short: the row
    # carries the error instead of a ratio from the truncated sum
    rows = {}
    for budget in ("50", "200000"):
        out = tmp_path / f"scan{budget}.csv"
        main(["ratio-scan", "--group", "modular", "--k", "6",
              "--grid=0,0,1,1,1,1", "--bound", "20", "--budget", budget,
              "--out", str(out)])
        rows[budget] = out.read_text().splitlines()[1].split(",")
    cut = rows["50"]
    assert cut[5] == "nan" and cut[8] == "0"
    assert cut[9].startswith("BudgetExceeded: ")
    full = rows["200000"]
    assert full[9] == "" and full[8] == "1"
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


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman.cli", "verify", "--suite",
         "kernel-oracle", "--group", "trivial"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
