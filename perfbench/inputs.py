"""Seeded inputs for the bergman benchmark workloads.

Every workload is a list of CLI calls (argv for ``bergman.cli.main``)
over input files written here.  The CLI sees only these files and grid
strings, never the seed.  Forms files are built from exact integer
q-expansions computed in this module, independent of the program's own
coefficient code.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

DELTA_TERMS = 200
S36_TERMS = 120
S36_K = 18

# poincare-scan: the run_scans.py headline call cut to one seeded column
# of three heights (0.6, 2.3, 4.0); the top row hits the 200k budget.
POINCARE_KS = (6, 8)
POINCARE_Y = (0.6, 4.0, 3)
# delta-scan: the README grid, shifted in x by a seeded offset
DELTA_GRID_Y = (0.4, 5.0, 20)
DELTA_GRID_NX = 20
# sym-scan: tuple counts sized so that symprod dominates the two Grams
SYM_TUPLES = {2: 400, 3: 200}
# acceptance-09 sampling box and separation
SYM_BOX = ((-0.4, 0.4), (0.6, 1.8))
SYM_MIN_DISTANCE = 0.2

WORKLOADS = ("poincare-scan", "delta-scan", "sym-scan")


# ---------------------------------------------------------------------------
# Exact integer q-series (lists indexed by the power of q, length n + 1)

def _mul(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def _power(a, e, n):
    out = [1] + [0] * n
    base = list(a)
    while e:
        if e & 1:
            out = _mul(out, base, n)
        e >>= 1
        if e:
            base = _mul(base, base, n)
    return out


def delta_series(n):
    """q * prod_{m >= 1} (1 - q^m)^24 up to q^n."""
    euler = [1] + [0] * n
    for m in range(1, n + 1):
        for i in range(n, m - 1, -1):
            euler[i] -= euler[i - m]
    return [0] + _power(euler, 24, n)[:n]


def _divisor_sum(m, p):
    return sum(d ** p for d in range(1, m + 1) if m % d == 0)


def eisenstein_series(weight, n):
    """E4 = 1 + 240 sum sigma_3 q^m or E6 = 1 - 504 sum sigma_5 q^m."""
    scale = {4: 240, 6: -504}[weight]
    return [1] + [scale * _divisor_sum(m, weight - 1) for m in range(1, n + 1)]


def s36_series(n=S36_TERMS):
    """Delta*E4^6, Delta*E4^3*E6^2, Delta*E6^4 from q^0 up to q^n."""
    delta = delta_series(n)
    e4, e6 = eisenstein_series(4, n), eisenstein_series(6, n)
    products = {
        "delta_e4^6": _power(e4, 6, n),
        "delta_e4^3_e6^2": _mul(_power(e4, 3, n), _power(e6, 2, n), n),
        "delta_e6^4": _power(e6, 4, n),
    }
    return [(label, _mul(delta, p, n)) for label, p in products.items()]


def s36_forms(n=S36_TERMS):
    """Basis of S_36 (dimension 3) as coefficient lists a_1..a_n."""
    return [(label, series[1:]) for label, series in s36_series(n)]


def write_forms(path, weight, forms):
    with open(path, "w") as fh:
        for label, coeffs in forms:
            fh.write(json.dumps({"label": label, "weight": weight,
                                 "coefficients": [str(c) for c in coeffs]})
                     + "\n")


# ---------------------------------------------------------------------------
# Workload description

@dataclass
class Call:
    """One CLI invocation; the worker appends ``--out <csv>``."""

    name: str
    argv: list
    kind: str                       # "ratio", "gram" or "sym"
    expected: list = field(default_factory=list)  # row keys in output order
    references: list = field(default_factory=list)  # one per expected row


@dataclass
class Workload:
    calls: list
    forms: dict = field(default_factory=dict)  # path -> (weight, forms)


def grid_points(x0, x1, y0, y1, nx, ny):
    """Row order of the CLI's grid: y outer, x inner."""
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    return [(x, y) for y in ys for x in xs]


def _hyp_distance(a, b):
    t = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / (4.0 * a[1] * b[1])
    return 2.0 * math.asinh(math.sqrt(t))


def _draw_tuples(rng, d, count):
    (x0, x1), (y0, y1) = SYM_BOX
    out = []
    while len(out) < count:
        pts = [(round(rng.uniform(x0, x1), 6), round(rng.uniform(y0, y1), 6))
               for _ in range(d)]
        if all(_hyp_distance(p, q) > SYM_MIN_DISTANCE
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            out.append(pts)
    return out


def build(name, seed, workdir):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``.

    Reference values are attached to the calls by ``oracle.attach``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "poincare-scan":
        x = round(rng.uniform(-0.45, 0.45), 6)
        y0, y1, ny = POINCARE_Y
        grid = grid_points(x, x, y0, y1, 1, ny)
        ks = ",".join(map(str, POINCARE_KS))
        call = Call("ratio", ["ratio-scan", "--group", "modular", "--k", ks,
                              f"--grid={x},{x},{y0},{y1},1,{ny}"], "ratio",
                    expected=[(k,) + p for k in POINCARE_KS for p in grid])
        return Workload([call])
    if name == "delta-scan":
        path = os.path.join(workdir, "delta_weight12.jsonl")
        forms = [("delta", delta_series(DELTA_TERMS)[1:])]
        write_forms(path, 12, forms)
        shift = round(rng.uniform(-0.05, 0.05), 6)
        x0, x1 = round(-0.45 + shift, 6), round(0.45 + shift, 6)
        y0, y1, ny = DELTA_GRID_Y
        grid = grid_points(x0, x1, y0, y1, DELTA_GRID_NX, ny)
        gram = Call("gram", ["gram", "--forms", path], "gram",
                    expected=[("delta", "delta")])
        scan = Call("ratio", ["ratio-scan", "--forms", path, "--k", "6",
                              f"--grid={x0},{x1},{y0},{y1},{DELTA_GRID_NX},{ny}"],
                    "ratio", expected=[(6,) + p for p in grid])
        return Workload([gram, scan], {path: (12, forms)})
    path = os.path.join(workdir, "s36.jsonl")
    forms = s36_forms()
    write_forms(path, 2 * S36_K, forms)
    calls = []
    for d, count in SYM_TUPLES.items():
        tuples = _draw_tuples(rng, d, count)
        tpath = os.path.join(workdir, f"tuples_d{d}.jsonl")
        with open(tpath, "w") as fh:
            for t in tuples:
                fh.write(json.dumps(t) + "\n")
        calls.append(Call(f"sym_d{d}", ["sym-scan", "--forms", path, "--k",
                                        str(S36_K), "--d", str(d),
                                        "--tuples", tpath], "sym",
                          expected=[(S36_K, tuple(t)) for t in tuples]))
    return Workload(calls, {path: (2 * S36_K, forms)})
