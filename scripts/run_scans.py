#!/usr/bin/env python3
"""Headline experiment: ratio and volume scans for the shipped presets.

Produces plot-ready CSV tables under an output directory:
  ratio_modular.csv   Poincare-route ratio scan on the modular group
  ratio_delta.csv     basis-route scan with the discriminant form
  sym_delta_d2.csv    degree-2 symmetric-product volume scan
  ledger.csv          bound-ledger entries over a (y, k) grid
"""
import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bergman.cli import main as cli_main
from bergman.metric import bound_ledger


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="scan_results")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    forms = str(pathlib.Path(__file__).resolve().parents[1]
                / "data" / "delta_weight12.jsonl")

    calls = [
        ["ratio-scan", "--group", "modular", "--k", "6,8",
         "--grid=-0.45,0.45,0.6,4.0,10,10",
         "--out", str(outdir / "ratio_modular.csv")],
        ["ratio-scan", "--forms", forms, "--k", "6",
         "--grid=-0.45,0.45,0.4,5.0,20,20",
         "--out", str(outdir / "ratio_delta.csv")],
        ["sym-scan", "--forms", forms, "--k", "6", "--d", "2",
         "--grid=-0.3,0.3,0.8,2.0,3,3",
         "--out", str(outdir / "sym_delta_d2.csv")],
    ]
    # a scan outside its limit or with a flagged row fails the experiment
    failed = [argv[0] + " " + argv[-1] for argv in calls if cli_main(argv)]

    rows = ["y,k,lemma5,lemma7,prop8"]
    for k in (3, 6, 10, 20):
        for y in (0.5, 1.0, 2.0, 4.0):
            led = bound_ledger(y, k, (2 * k - 1) / (8.0 * math.pi), 0.0)
            rows.append("%.12g,%d,%.12g,%.12g,%.12g"
                        % (y, k, led.lemma5, led.lemma7, led.prop8))
    (outdir / "ledger.csv").write_text("\n".join(rows) + "\n")
    print(f"tables written to {outdir}/")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
