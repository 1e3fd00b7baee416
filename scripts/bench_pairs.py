#!/usr/bin/env python3
"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed 9101 \
        --out BENCH.json

Each of ten pairs runs ``perfbench/run.py --seconds 16`` once in each
checkout, on the same seed, the side that goes first alternating from
pair to pair; pair i uses seed ``--seed + i`` (plus 100 per workload).
The JSON written to ``--out`` holds, per workload, the side that ran
first in each pair and each side's failed row counts, and per
end-to-end metric the median and quartiles of each side and the number
of pairs in which the change was better: in all, and apart for the
pairs in which the change ran first and those in which it ran second.
A drift over the run (a machine warming up or slowing down) favours
one place in the order, so it shows as a split between those two
counts rather than as a one-sided difference.

Both checkouts must be clean copies (``git ls-files | tar``): a
``__pycache__`` under ``src/`` would be loaded instead of compiling
its modules and skew ``setup_s``, so the script names it and exits 2
before it runs anything.  Its runs write no bytecode.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

WORKLOADS = ("poincare-scan", "delta-scan", "sym-scan")
METRICS = ("cpu_s", "setup_s", "peak_rss_mb")
PAIRS = 10
SECONDS = 16.0


def run(checkout, workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    stale = [path for side in (args.parent, args.change)
             for path in sorted(Path(side, "src").rglob("__pycache__"))]
    for path in stale:
        print(f"error: {path}: bytecode in a benchmarked checkout; "
              f"benchmark a clean copy (git ls-files | tar)", file=sys.stderr)
    if stale:
        return 2
    report = {"pairs": PAIRS, "seconds": SECONDS,
              "python": platform.python_version(),
              "numpy": version("numpy"), "workloads": {}}
    for w, workload in enumerate(WORKLOADS):
        sides = {"parent": [], "change": []}
        seeds = [args.seed + 100 * w + i for i in range(PAIRS)]
        first = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            first.append(order[0])
            for side in order:
                sides[side].append(run(getattr(args, side), workload, seed))
            cpu = {s: runs[-1]["metrics"]["cpu_s"]["value"]
                   for s, runs in sides.items()}
            print(workload, seed, cpu, file=sys.stderr)
        entry = {"seeds": seeds, "first": first, "metrics": {},
                 "failed": {s: [r["failed"] for r in runs]
                            for s, runs in sides.items()},
                 "attempted": sides["change"][0]["attempted"]}
        for metric in METRICS:
            values = {s: [r["metrics"][metric]["value"] for r in runs]
                      for s, runs in sides.items()}
            better = [c < p for p, c in zip(values["parent"],
                                            values["change"])]
            entry["metrics"][metric] = {
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_better": sum(better),
                "change_better_first": sum(
                    b for b, f in zip(better, first) if f == "change"),
                "change_better_second": sum(
                    b for b, f in zip(better, first) if f == "parent"),
            }
        report["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
