#!/usr/bin/env python3
"""Compare what two checkouts print and write, byte for byte.

    python3 scripts/diff_outputs.py PARENT_DIR CHANGE_DIR

Runs a fixed list of commands in each checkout: every README command,
``scripts/run_scans.py``, all six ``verify`` suites, modular scans up
the cusp, far from the fundamental domain, at k = 12 (the Fourier
table's rows, some taken at the points' images) and at the first and
last weights with a stored table and the weights beside them,
``kernel`` on every preset, scans and kernels with flagged, budget-cut
and refused rows (a ``sym-scan`` with every tuple refused and ``verify
--suite thm10`` at a ``--tol`` that refuses every row among them) or
refused options, ``gram`` and ``ratio-scan`` on a four-form weight-48
basis, ``ratio-scan`` on the monomial basis of S_48, forms files whose
Gram is singular or does not converge, and forms files that the verify
suites or the requested weights refuse.  Each command runs in a fresh
working directory that holds a link to the checkout's ``data/``, the
fixed tuple and forms files (``INPUTS``, whose exact q-series come from
``level_one_series`` in this script's own checkout), with ``bergman``
imported from the checkout's ``src/``.  For every command
it compares stdout, stderr, the exit code and each file the command
wrote there, prints every difference, and exits 1 if there is one (0
if all are identical).
"""
from __future__ import annotations

import argparse
import difflib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bergman.forms import level_one_series

FORMS = "data/delta_weight12.jsonl"


INPUTS = {
    "tuples.jsonl": "[[0.1,0.9],[-0.2,1.4]]\n[[0.0,1.2],[0.3,0.8]]\n",
    # the first tuple's points are 1e-7 apart: refused as near-diagonal
    "tuples_refused.jsonl": "[[0.1,0.9],[0.1,0.9000001]]\n"
                            "[[0.0,1.2],[0.3,0.8]]\n",
    # three weight-12 forms, so that d = 3 takes the stacked closed form
    "three.jsonl": "".join(
        '{"label": "f%d", "weight": 12, "coefficients": [%s1.0, 0.5, 0.25]}\n'
        % (j, "0.0, " * j) for j in range(3)),
    # good tuples (one with x = -0.0), a near-diagonal one, and one whose
    # covectors are dependent (z and z + 1 share q)
    "tuples_d3.jsonl": "[[0.1,0.6],[-0.2,0.8],[0.3,0.7]]\n"
                       "[[0.1,0.9],[0.1,0.9],[0.3,0.7]]\n"
                       "[[-0.0,1.1],[0.2,0.7],[-0.25,0.9]]\n"
                       "[[0.1,0.9],[1.1,0.9],[-0.3,0.65]]\n"
                       "[[0.0,0.9],[0.25,0.55],[-0.3,0.65]]\n",
    # every tuple near-diagonal: a scan with no row to take a sup over
    "tuples_all_refused.jsonl": "[[0.1,0.9],[0.1,0.9000001]]\n"
                                "[[0.0,1.2],[0.0,1.2000001]]\n",
    "tuples_three_coordinates.jsonl": "[[0.1,0.9],[-0.2,1.4]]\n"
                                      "[[0.1,0.9,7],[0.2,1.1]]\n",
    # two identical forms: a singular Gram
    "twins.jsonl": '{"label": "f0", "weight": 12, "coefficients": [1.0]}\n'
                   '{"label": "f1", "weight": 12, "coefficients": [1.0]}\n',
    # a_m = e^(5.44 m): a Gram quadrature that does not converge
    "steep.jsonl": '{"label": "steep", "weight": 12, "coefficients": [%s]}\n'
                   % ", ".join(repr(math.exp(5.44 * m)) for m in range(1, 120)),
    # Delta^2, weight 24: its first coefficient is 0
    "delta2.jsonl": '{"label": "delta2", "weight": 24, "coefficients": [%s]}\n'
                    % ", ".join(map(str, level_one_series(2, 0, 0, 31)[1:])),
    # four weight-48 forms Delta E4^a E6^b, 4a + 6b = 36 (Gram condition
    # about 1e11): a Gram at dim 4 whose sliver sums about 20 terms,
    # beside Delta's 10
    "weight48.jsonl": "".join(
        '{"label": "de4^%d_e6^%d", "weight": 48, "coefficients": [%s]}\n'
        % ((36 - 6 * b) // 4, b, ", ".join(map(str, level_one_series(
            1, (36 - 6 * b) // 4, b, 61)[1:]))) for b in (0, 2, 4, 6)),
    # the monomial basis Delta^a E4^(12-3a), a = 1..4, of S_48 with 200
    # coefficients: its Gram's smallest eigenvalue is 2e-29 of its
    # largest, the diagonal-scaled Gram's 0.47
    "monomial48.jsonl": "".join(
        '{"label": "d^%de4^%d", "weight": 48, "coefficients": [%s]}\n'
        % (a, 12 - 3 * a, ", ".join(map(str, level_one_series(
            a, 12 - 3 * a, 0, 200)[1:]))) for a in range(1, 5)),
    # a config file, which only a checkout that still reads --config
    # opens (and refuses for its tol)
    "cfg.json": '{"tol": 0}\n',
    # weight 2, k = 1: below what the verify suites accept
    "weight2.jsonl": '{"label": "w2", "weight": 2, "coefficients": [1.0, 0.5]}\n',
}
# (name, argv): argv after ``bergman``, or "run_scans" for the script
COMMANDS = [
    ("readme-ingest", ["ingest", "--forms", FORMS]),
    ("readme-kernel", ["kernel", "--group", "modular", "--k", "6",
                       "--z", "0.0,1.0"]),
    ("readme-gram", ["gram", "--forms", FORMS]),
    ("readme-ratio-scan", ["ratio-scan", "--forms", FORMS, "--k", "6",
                           "--grid=-0.45,0.45,0.4,5.0,20,20",
                           "--out", "ratio.csv"]),
    ("readme-sym-scan", ["sym-scan", "--forms", FORMS, "--k", "6", "--d", "2",
                         "--tuples", "tuples.jsonl", "--out", "sym.csv"]),
    ("readme-verify-thm10", ["verify", "--suite", "thm10", "--forms", FORMS]),
    ("help", ["--help"]),
    ("run-scans", "run_scans"),
] + [(f"verify-{suite}", ["verify", "--suite", suite])
     for suite in ("kernel-oracle", "lemma4", "prop3", "prop9", "thm10",
                   "sym")] + [
    ("kernel-two-weights", ["kernel", "--k", "6,8", "--out", "kernel.json"]),
    ("kernel-free2", ["kernel", "--group", "free2", "--k", "6",
                      "--z", "0.1,0.9"]),
    # one coset, whose value is the Lipschitz closed form
    ("kernel-translations-k3", ["kernel", "--group", "translations", "--k",
                                "3", "--z", "0.4,2.5"]),
    # far up the cusp the coset terms cancel: a tail of 63% of the value
    ("kernel-tail-swamps", ["kernel", "--group", "modular", "--k", "6",
                            "--z", "0.1,9"]),
    ("kernel-budget-cut", ["kernel", "--group", "modular", "--k", "6",
                           "--budget", "50"]),
    ("kernel-bound-refused", ["kernel", "--bound", "80"]),
    ("gram-domain-refused", ["gram", "--forms", FORMS, "--domain", "strip"]),
    ("gram-unconverged", ["gram", "--forms", "steep.jsonl"]),
    ("gram-weight48", ["gram", "--forms", "weight48.jsonl"]),
    ("ratio-scan-weight48", ["ratio-scan", "--forms", "weight48.jsonl",
                             "--k", "24", "--grid=-0.45,0.45,0.8,2.4,4,4"]),
    ("ratio-scan-monomial48", ["ratio-scan", "--forms", "monomial48.jsonl",
                               "--k", "24", "--grid=-0.45,0.45,0.8,2.4,4,4"]),
    ("scan-singular-gram", ["ratio-scan", "--forms", "twins.jsonl", "--k", "6",
                            "--grid=0,0,1,1,1,1"]),
    ("scan-budget-cut", ["ratio-scan", "--group", "modular", "--k", "6",
                         "--grid=0,0,1,1,1,1", "--budget", "50"]),
    ("scan-flagged-cusp", ["ratio-scan", "--group", "modular", "--k", "6,8",
                           "--grid=0,0,1,8,1,8"]),
    # below the headline heights the coset tail, not rounding, sets the
    # error, so a change to the norm bound N shows here
    ("scan-below-headline", ["ratio-scan", "--group", "modular", "--k", "6,8",
                             "--grid=-0.45,0.45,0.3,0.55,4,3"]),
    # up the cusp, where PSL(2, Z) takes the Fourier table, and at k = 12,
    # whose table has rank dim S_24 = 2, on both sides of Y_12 = 1.375
    ("scan-cusp", ["ratio-scan", "--group", "modular", "--k", "6,8",
                   "--grid=-0.45,0.45,4,10,4,7"]),
    ("scan-k12", ["ratio-scan", "--group", "modular", "--k", "12",
                  "--grid=-0.4,0.4,0.8,3.2,3,4"]),
    # far from F, where rows take the table at their images (5 + 0.02i
    # at 50i), and up to y = 60, where B^2 and then B underflow
    ("scan-far-from-f", ["ratio-scan", "--group", "modular", "--k", "6,8",
                         "--grid=3.2,5.9,0.02,0.3,4,3"]),
    ("scan-deep-cusp", ["ratio-scan", "--group", "modular", "--k", "6,8",
                        "--grid=0.1,0.1,20,60,1,5"]),
    ("scan-large-weight", ["ratio-scan", "--group", "modular", "--k", "90",
                           "--grid=0,0,1,1,1,1"]),
    # the first and last weights with a stored Fourier table (k = 6, 85)
    # and the two beside them without one, above Y_85 = 5.25
    ("scan-table-edges", ["ratio-scan", "--group", "modular", "--k",
                          "5,6,85,86", "--grid=0.1,0.1,5.5,5.5,1,1"]),
    ("scan-kernel-vanishes", ["ratio-scan", "--forms", FORMS, "--k", "6",
                              "--grid=-0.2,0.2,1,60,2,2"]),
    ("scan-free2", ["ratio-scan", "--group", "free2", "--k", "6",
                    "--grid=-0.45,0.45,0.6,2,4,4"]),
    # a group without the unit translation: refused
    ("scan-trivial", ["ratio-scan", "--group", "trivial", "--k", "6",
                      "--grid=-0.2,0.2,0.8,1.6,2,2"]),
    ("sym-refused-tuple", ["sym-scan", "--forms", FORMS, "--k", "6",
                           "--d", "2", "--tuples", "tuples_refused.jsonl"]),
    ("sym-d3-three-forms", ["sym-scan", "--forms", "three.jsonl", "--k", "6",
                            "--d", "3", "--tuples", "tuples_d3.jsonl",
                            "--out", "sym3.csv"]),
    ("sym-grid-d2", ["sym-scan", "--forms", "three.jsonl", "--k", "6",
                     "--d", "2", "--grid=-0.2,0.2,0.9,1.5,3,2"]),
    ("sym-repeated-weight", ["sym-scan", "--forms", FORMS, "--k", "6,6",
                             "--d", "2", "--tuples", "tuples.jsonl"]),
    ("sym-three-coordinates", ["sym-scan", "--forms", FORMS, "--k", "6",
                               "--d", "2", "--tuples",
                               "tuples_three_coordinates.jsonl"]),
    ("empty-k", ["ratio-scan", "--forms", FORMS, "--k=,",
                 "--grid=0,0,1,1,1,1"]),
    ("c-gamma-nan", ["ratio-scan", "--group", "modular", "--k", "6",
                     "--grid=0,0,1,1,1,1", "--c-gamma", "nan"]),
    ("c-x-negative", ["ratio-scan", "--group", "modular", "--k", "6",
                      "--grid=0,0,1,1,1,1", "--c-x", "-1"]),
    ("ingest-no-forms", ["ingest"]),
    ("verify-prop9-zero-a1", ["verify", "--suite", "prop9", "--forms",
                              "delta2.jsonl"]),
] + [(f"verify-weight2-{suite}", ["verify", "--suite", suite, "--forms",
                                  "weight2.jsonl"])
     for suite in ("lemma4", "prop9")] + [
    ("ratio-scan-forms-two-weights", ["ratio-scan", "--forms", FORMS, "--k",
                                      "6,8", "--grid=0,0,1,1,1,1"]),
    ("sym-scan-forms-two-weights", ["sym-scan", "--forms", FORMS, "--k", "6,8",
                                    "--d", "2", "--tuples", "tuples.jsonl"]),
    ("threads-refused", ["ratio-scan", "--forms", FORMS, "--k", "6",
                         "--grid=0,0,1,1,1,1", "--threads", "2"]),
    ("sym-all-refused", ["sym-scan", "--forms", FORMS, "--k", "6", "--d", "2",
                         "--tuples", "tuples_all_refused.jsonl"]),
    ("config-refused", ["ratio-scan", "--forms", FORMS, "--k", "6",
                        "--grid=0,0,1,1,1,1", "--config", "cfg.json"]),
    ("thm10-tol", ["verify", "--suite", "thm10", "--tol", "1e-20"]),
    ("grid-fractional-count", ["ratio-scan", "--forms", FORMS, "--k", "6",
                               "--grid=0,0.2,1,1,2.9,1"]),
]


def run(checkout: Path, argv, workdir: Path) -> dict:
    """Run one command in ``workdir``; its stdout, stderr, code and files."""
    workdir.mkdir(parents=True)
    (workdir / "data").symlink_to(checkout / "data")
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    before = set(os.listdir(workdir))
    if argv == "run_scans":
        cmd = [sys.executable, str(checkout / "scripts" / "run_scans.py"),
               "--outdir", "scan_results"]
    else:
        cmd = [sys.executable, "-m", "bergman.cli"] + argv
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True)
    files = {}
    for root, _, names in os.walk(workdir):
        for name in names:
            path = Path(root) / name
            rel = str(path.relative_to(workdir))
            if rel.split(os.sep)[0] not in before:
                files[rel] = path.read_bytes()
    return {"exit": str(proc.returncode).encode() + b"\n",
            "stdout": proc.stdout, "stderr": proc.stderr, **files}


def differences(name, parent: dict, change: dict) -> list:
    """Unified diffs of every output that differs between the two runs."""
    out = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{name}: {key} written only by the "
                       f"{'change' if a is None else 'parent'}")
            continue
        diff = difflib.unified_diff(
            a.decode(errors="replace").splitlines(),
            b.decode(errors="replace").splitlines(),
            f"parent/{name}/{key}", f"change/{name}/{key}", lineterm="", n=0)
        out.append("\n".join(diff))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cmd) in enumerate(COMMANDS):
            outputs = [run(side, cmd, Path(tmp) / label / f"{i:02d}")
                       for label, side in (("parent", parent),
                                           ("change", change))]
            diffs = differences(name, *outputs)
            print(f"{name}: {'DIFFERENT' if diffs else 'identical'}",
                  flush=True)
            found += diffs
    for diff in found:
        print(diff)
    print(f"{len(COMMANDS)} commands, {len(found)} differing outputs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
