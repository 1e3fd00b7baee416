import importlib.util
import json
import pathlib

import pytest

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
