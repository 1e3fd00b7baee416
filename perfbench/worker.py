"""Timed worker: runs a workload's CLI calls in passes, each in a fresh process.

    python3 worker.py SPEC.json RESULT.json

SPEC names the ``src`` directory to import bergman from, the calls
(argv without ``--out``), the output directory, the time budget in
wall seconds and whether to trace.  Passes repeat the same calls until
another pass would end more than half a pass past the budget; at least
one pass always runs.

The worker imports ``bergman.cli`` once (and installs the tracer when
tracing) and then forks one child per call.  Each child starts from the
freshly imported program, exactly as a new CLI process would after its
imports, so nothing a call computes or caches reaches a later call or
pass.  The import itself is the benchmark's ``setup_s``.

RESULT records every call's time, exit code, error and output path,
the highest peak resident memory of any call's process and, when
traced, per-pass layer metrics.  Only ``bergman.cli.main`` is timed,
in wall-clock seconds and in CPU seconds (the child's own and that of
any processes it reaped).
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback


def cpu_seconds():
    """CPU time of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_call(cli, argv):
    """Invoke the CLI; return (exit code, error text).

    The error text is set only when the call raised, SystemExit included.
    """
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, f"SystemExit: {exc.code}"
    except Exception:  # recorded against the call's rows, next call runs
        return None, traceback.format_exc()


def call_in_child(cli, tracer, argv, record_path):
    """Fork, run one CLI call in the child, return the child's record.

    The record holds the exit code, error, wall and CPU seconds and,
    when traced, the call's layer metrics; ``rss_mb`` is the child's
    peak resident memory as the parent reaps it.
    """
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            t0, c0 = time.perf_counter(), cpu_seconds()
            code, err = run_call(cli, argv)
            record = {"exit": code, "error": err,
                      "cpu": cpu_seconds() - c0,
                      "wall": time.perf_counter() - t0}
            if tracer:
                from tracing import layer_totals
                record["layers"] = layer_totals(tracer.spans, tracer.counts)
                tracer.write(record_path[:-len(".json")] + ".spans.csv")
            with open(record_path, "w") as fh:
                json.dump(record, fh)
        except BaseException:
            traceback.print_exc()
            status = 3
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    _, status, usage = os.wait4(pid, 0)
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {"exit": None, "cpu": 0.0, "wall": 0.0,
                  "error": f"call process ended with wait status {status} "
                           "and no record"}
    record["rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import bergman.cli as cli
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        raise RuntimeError(f"bergman imported from {cli.__file__}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    passes, walls, peak = [], [], 0.0
    start = time.perf_counter()
    while True:
        pdir = os.path.join(spec["outdir"], f"pass{len(passes)}")
        os.makedirs(pdir, exist_ok=True)
        if tracer:
            tracer.run = len(passes)
        calls = []
        for call in spec["calls"]:
            out = os.path.join(pdir, call["name"] + ".csv")
            record = call_in_child(cli, tracer, call["argv"] + ["--out", out],
                                   os.path.join(pdir, call["name"] + ".json"))
            peak = max(peak, record.pop("rss_mb"))
            calls.append(dict(record, name=call["name"], out=out))
        walls.append(sum(c["wall"] for c in calls))
        passes.append(calls)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(walls) > spec["seconds"]:
            break

    with open(result_path, "w") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
