#!/usr/bin/env python3
"""Benchmark of the bergman CLI on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports bergman from ``src/``
and writes only under ``.bench_build/perfbench/``.  Workloads and the
metrics they report are listed in ``BENCHMARK.json``.

A run builds the seeded inputs and their exact references (not timed),
then a worker process repeats the workload's CLI calls for the given
seconds, each call in a fresh process.  With ``--trace 0`` it also
times several fresh interpreters importing ``bergman.cli`` and reports
the end-to-end metrics.  With ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics.  Gated
times are CPU seconds, which a busy host's steal time does not inflate;
wall-clock seconds are printed alongside and reported by traced runs.
Times are medians over passes.

Every output row of every pass is checked against its reference.  The
last line of standard output is one JSON object; ``attempted`` counts
the workload's distinct rows and ``failed`` those that failed in any
pass, a failed row being flagged (error column set, or its call failed,
see ``oracle.classify``) or wrong (value off its reference), so
``failed / attempted`` is the failed fraction whatever the number of
passes.  ``correct`` is false when an output cannot be matched to its
inputs at all.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
from tracing import add_ratios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# The CLI computes on one thread; BLAS threads would only add spin-wait
# CPU time, which varies from run to run.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import bergman.cli"


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def remaining(start):
    return DEADLINE_S - (time.monotonic() - start)


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(start):
    """Median CPU seconds of a fresh interpreter that imports bergman.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = children_cpu()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, cwd=ROOT, env=ENV,
                timeout=max(remaining(start), 1.0))
        except subprocess.TimeoutExpired:
            fail("importing bergman.cli exceeded the time limit")
        if proc.returncode != 0:
            fail(f"importing bergman.cli failed:\n{proc.stderr}")
        samples.append(children_cpu() - before)
    return statistics.median(samples)


def run_worker(workload, seconds, trace, workdir, start):
    """Run the timed worker in its own process; return its result."""
    label = "traced" if trace else "plain"
    outdir = workdir / label
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    spec = {"src": str(SRC), "seconds": seconds, "trace": trace,
            "outdir": str(outdir),
            "calls": [{"name": c.name, "argv": c.argv} for c in workload.calls]}
    spec_path, result_path = outdir / "spec.json", outdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(outdir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path),
                 str(result_path)], stdout=log, stderr=subprocess.STDOUT,
                cwd=ROOT, env=ENV, timeout=max(remaining(start), 1.0))
        except subprocess.TimeoutExpired:
            fail(f"{label} worker exceeded the time limit; see {log.name}")
    if proc.returncode != 0:
        fail(f"{label} worker exited {proc.returncode}; see {log.name}")
    return json.loads(result_path.read_text())


def check_passes(workload, result):
    """One Tally per pass, covering every call's rows; not timed."""
    tallies = []
    for outcomes in result["passes"]:
        tally = oracle.Tally()
        for call, outcome in zip(workload.calls, outcomes):
            tally.add(oracle.classify(call, outcome))
        tallies.append(tally)
    return tallies


def pass_totals(result, clock):
    """Per-pass sum of the calls' ``clock`` ("cpu" or "wall") seconds."""
    return [sum(c[clock] for c in calls) for calls in result["passes"]]


def main(argv=None):
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "bergman" / "cli.py").is_file():
        fail(f"no bergman sources under {SRC}")
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    workdir = WORK / args.workload
    workload = inputs.build(args.workload, args.seed, workdir)
    oracle.attach(workload)

    if args.trace:
        plain = run_worker(workload, args.seconds / 2, False, workdir, start)
        traced = run_worker(workload, args.seconds / 2, True, workdir, start)
        results = [plain, traced]
    else:
        setup_s = measure_setup(start)
        plain = run_worker(workload, args.seconds, False, workdir, start)
        results = [plain]

    tallies = [check_passes(workload, r) for r in results]
    rows = tallies[0][0].attempted
    total = oracle.Tally(attempted=rows)
    for t in sum(tallies, []):
        total.merge(t)
    walls = pass_totals(plain, "wall")
    measured = {
        "cpu_s": statistics.median(pass_totals(plain, "cpu")),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(rows / w for w in walls),
    }
    if args.trace:
        layers = {}
        for calls, tally in zip(traced["passes"], tallies[1]):
            m = {}
            for call in calls:
                for key, value in call.get("layers", {}).items():
                    m[key] = m.get(key, 0.0) + value
            m = add_ratios(m)
            m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
            m["cli.rows"] = tally.attempted
            m["cli.rows_flagged"] = tally.flagged
            m["cli.rows_wrong"] = tally.wrong
            m["symprod.degenerate_rows"] = tally.degenerate
            for key, value in m.items():
                layers.setdefault(key, []).append(value)
        measured.update({k: statistics.median(v) for k, v in layers.items()})
        measured["trace.overhead_s"] = (
            statistics.median(pass_totals(traced, "wall")) - measured["wall_s"])
        wanted = config["per_layer"]
    else:
        measured["setup_s"] = setup_s
        measured["peak_rss_mb"] = plain["peak_rss_mb"]
        wanted = config["end_to_end"]

    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(f"workload={args.workload} seed={args.seed} "
          f"passes={'+'.join(str(len(r['passes'])) for r in results)} "
          f"rows/pass={rows}")
    for result in results:
        for clock in ("cpu", "wall"):
            print(f"  pass {clock} s:", " ".join(
                f"{v:.3f}" for v in pass_totals(result, clock)))
    print(f"  wall_s = {measured['wall_s']:.6g} s (passes {min(walls):.6g} "
          f"to {max(walls):.6g} s), rows_per_s = "
          f"{measured['rows_per_s']:.6g} 1/s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {total.failed / total.attempted:.6g} "
          f"(flagged {total.flagged}, wrong {total.wrong}, "
          f"attempted {total.attempted})")
    seen = set()
    for failure in total.failures:
        if repr(failure) not in seen:
            seen.add(repr(failure))
            print("  failing row:", *failure)
    print(json.dumps({"correct": total.checkable,
                      "attempted": total.attempted,
                      "failed": total.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
