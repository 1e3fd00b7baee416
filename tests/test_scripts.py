import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bergman.fourier import TABLES, load_fourier_table

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path):
    """Two checkouts holding only src/bergman/cli.py."""
    sides = {}
    for side in ("parent", "change"):
        pkg = tmp_path / side / "src" / "bergman"
        pkg.mkdir(parents=True)
        (pkg / "cli.py").write_text("")
        sides[side] = tmp_path / side
    return sides


@pytest.mark.parametrize("stale", ["parent", "change"])
def test_bench_pairs_refuses_checkout_with_bytecode(tmp_path, capsys,
                                                    monkeypatch, stale):
    # bytecode left under src/ is loaded instead of compiled from source
    # and skews setup_s; the script names it before it runs anything
    bench = _load("bench_pairs")
    runs = []
    monkeypatch.setattr(bench, "run", lambda *args: runs.append(args))
    sides = _checkouts(tmp_path)
    cache = sides[stale] / "src" / "bergman" / "__pycache__"
    cache.mkdir()
    (cache / "cli.cpython-311.pyc").write_bytes(b"")
    out = tmp_path / "bench.json"
    code = bench.main([str(sides["parent"]), str(sides["change"]),
                       "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and runs == [] and not out.exists()
    assert err.startswith(f"error: {cache}: ")
    assert err.count("error: ") == 1


def test_bench_pairs_runs_clean_checkouts(tmp_path, monkeypatch):
    bench = _load("bench_pairs")

    class Ran(Exception):
        pass

    def run(checkout, workload, seed):
        raise Ran(checkout)

    monkeypatch.setattr(bench, "run", run)
    sides = _checkouts(tmp_path)
    with pytest.raises(Ran):
        bench.main([str(sides["parent"]), str(sides["change"]),
                    "--seed", "1", "--out", str(tmp_path / "bench.json")])


def test_bench_pairs_splits_change_better_by_run_order(tmp_path, monkeypatch):
    # every run costs more CPU than the one before it, so the side that
    # runs second always loses: the change wins exactly the pairs it
    # ran first in, a split that the total alone would hide
    bench = _load("bench_pairs")
    calls = []

    def run(checkout, workload, seed):
        calls.append(checkout)
        value = float(len(calls))
        return {"metrics": {m: {"value": value} for m in bench.METRICS},
                "failed": 0, "attempted": 10}

    monkeypatch.setattr(bench, "run", run)
    sides = _checkouts(tmp_path)
    out = tmp_path / "bench.json"
    assert bench.main([str(sides["parent"]), str(sides["change"]),
                       "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    half = bench.PAIRS // 2
    for entry in report["workloads"].values():
        assert entry["first"] == ["parent", "change"] * half
        for metric in entry["metrics"].values():
            assert metric["change_better"] == half
            assert metric["change_better_first"] == half
            assert metric["change_better_second"] == 0
    assert calls[:4] == [str(sides["parent"]), str(sides["change"]),
                         str(sides["change"]), str(sides["parent"])]


def test_stored_fourier_tables_equal_the_generated_ones_bit_for_bit():
    # one line for each weight k <= 85 with a plan, and what the loader
    # returns for it is what the generator computes, to the last bit
    tables = _load("make_fourier_tables")
    weights = [json.loads(line)["k"]
               for line in TABLES.read_text().splitlines()]
    assert weights == [k for k in range(1, 86)
                       if tables.fourier_plan(k) is not None]
    assert weights == list(range(6, 86))
    for k in weights:
        height, (c, e) = load_fourier_table(k)
        want_c, want_e = tables.fourier_table(k)
        assert height == tables.fourier_plan(k)[0]
        assert (c == want_c).all() and (e == want_e).all()
        assert np.isfinite(c).all() and np.isfinite(e).all()


def test_make_fourier_tables_check_passes_on_the_stored_file(tmp_path):
    script = SCRIPTS / "make_fourier_tables.py"
    before = TABLES.read_bytes()
    proc = subprocess.run([sys.executable, str(script), "--check"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert TABLES.read_bytes() == before
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit, k", [("entry", 7), ("drop_last", 85),
                                     ("extra", 86)])
def test_make_fourier_tables_check_names_the_first_stale_weight(
        tmp_path, capsys, edit, k):
    tables = _load("make_fourier_tables")
    lines = TABLES.read_text().splitlines(keepends=True)
    if edit == "entry":
        row = json.loads(lines[k - 6])
        row["err"][5] = row["err"][5] * (1 + 2 ** -52)
        lines[k - 6] = json.dumps(row) + "\n"
    elif edit == "drop_last":
        lines.pop()
    else:
        lines.append(lines[-1].replace('{"k": 85,', '{"k": 86,'))
    path = tmp_path / "tables.jsonl"
    path.write_text("".join(lines))
    assert tables.main(["--check", "--out", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: weight k = {k} differs from the computed table\n")
    assert path.read_text() == "".join(lines)


def test_stored_delta_file_equals_make_delta_output(tmp_path):
    # data/delta_weight12.jsonl is what its generator writes, byte for byte
    out = tmp_path / "delta.jsonl"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "make_delta.py"),
                           "--out", str(out)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (SCRIPTS.parent / "data"
                                / "delta_weight12.jsonl").read_bytes()


@pytest.mark.parametrize("name, digest", [
    ("delta2.jsonl",
     "a16898b5493f05d63504f9ab2502c453c2ad7c63fda12ae6ee75dfa3797dd9bb"),
    ("weight48.jsonl",
     "4c676174d5038f680c7c52435cf01389761d39121584780a31888e2efa247403"),
], ids=["delta2", "weight48"])
def test_diff_outputs_forms_inputs_are_pinned(name, digest):
    # the exact forms files that diff_outputs.py writes for both
    # checkouts: a change to the generator that moves a byte shows here
    text = _load("diff_outputs").INPUTS[name]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
