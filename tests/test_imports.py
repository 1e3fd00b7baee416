"""What the CLI imports: scipy stays a test-only dependency, and every
module a command needs is loaded by ``import bergman.cli``, so that no
call pays an import inside its own time."""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "delta_weight12.jsonl"


def _run_script(body, tmp_path):
    """Run ``body`` in a fresh interpreter that imports bergman from src/."""
    script = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
              f"OUT = {str(tmp_path)!r}\nDATA = {str(DATA)!r}\n{body}")
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, timeout=300)


def test_commands_load_no_module_after_import(tmp_path):
    proc = _run_script("""
import json
import bergman.cli
# three forms, so that a d = 3 scan takes the stacked QR/inv/det route
# instead of the product fallback
with open(f"{OUT}/three.jsonl", "w") as fh:
    for j in range(3):
        coef = [0.0] * j + [1.0, 0.5, 0.25]
        fh.write(json.dumps({"label": f"f{j}", "weight": 12,
                             "coefficients": coef}) + "\\n")
with open(f"{OUT}/tuples3.jsonl", "w") as fh:
    fh.write("[[0.1,0.6],[-0.2,0.8],[0.3,0.7]]\\n"
             "[[0.0,0.9],[0.25,0.55],[-0.3,0.65]]\\n")
CALLS = [
    ["gram", "--forms", DATA],
    ["ratio-scan", "--forms", DATA, "--k", "6", "--grid=-0.3,0.3,0.8,2.5,3,3"],
    ["ratio-scan", "--group", "modular", "--k", "6", "--grid=0,0,1,1.5,1,2"],
    ["sym-scan", "--forms", DATA, "--k", "6", "--d", "2",
     "--grid=-0.3,0.3,0.8,2.0,2,2"],
    ["sym-scan", "--forms", f"{OUT}/three.jsonl", "--k", "6", "--d", "3",
     "--tuples", f"{OUT}/tuples3.jsonl"],
]
scipy_loaded = "scipy" in sys.modules
before = set(sys.modules)
codes = [bergman.cli.main(argv + ["--out", f"{OUT}/{i}.out"])
         for i, argv in enumerate(CALLS)]
late = sorted(m for m in set(sys.modules) - before
              if m.split(".")[0] in ("numpy", "bergman"))
print(json.dumps({"scipy": scipy_loaded, "codes": codes, "late": late}))
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["scipy"] is False
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["late"] == []


def test_cli_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every ``import scipy...`` fail
    proc = _run_script("""
sys.modules["scipy"] = None
import json
import bergman.cli
CALLS = [
    ["gram", "--forms", DATA],
    ["ratio-scan", "--forms", DATA],
    ["sym-scan", "--forms", DATA, "--k", "6", "--d", "2",
     "--grid=-0.3,0.3,0.8,2.0,2,2"],
    ["verify", "--suite", "sym"],
]
print(json.dumps([bergman.cli.main(argv + ["--out", f"{OUT}/{i}.out"])
                  for i, argv in enumerate(CALLS)]))
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0]
