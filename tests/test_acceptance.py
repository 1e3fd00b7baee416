"""Acceptance suite: one printed pass/fail line per criterion.

Each test asserts the quantitative criterion at its stated tolerance
and prints a single summary line (run pytest with -s or rely on the
captured output of failures).
"""
import json
import math
import time

import numpy as np
import pytest

from bergman.cli import main as cli_main
from bergman.forms import (CuspFormBasis, QuadratureDomain,
                           basis_weight0_bundle, delta_form, model_basis,
                           orthonormal_basis, petersson_gram)
from bergman.groups import (enumerate_group_elements, modular_group,
                            translation_group)
from bergman.kernel import identity_term, parabolic_term_bound
from bergman.metric import (BasisSource, PoincareSource, RATIO_LIMIT,
                            fd_log_ratio, grid_points, kernel_derivatives,
                            ratio_parts, ratio_scan)
from bergman.symprod import (dimensions, fs_form_direct_oracle,
                             fs_form_formula, volume_ratio_scan)
from bergman.uhp import UhpPoint, apply_moebius, hyp_distance
from orbit_oracle import orbit_kernel_diagonal
from test_kernel import term_value


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def delta_basis():
    raw = CuspFormBasis(forms=[delta_form(200)])
    raw.gram = petersson_gram(raw, QuadratureDomain())
    return orthonormal_basis(raw)


def test_01_kernel_oracle(delta_basis):
    start = time.monotonic()
    group = modular_group()
    worst_rel, worst_tail = 0.0, 0.0
    for z in (UhpPoint(0.0, 1.0), UhpPoint(0.5, math.sqrt(3) / 2)):
        ev = orbit_kernel_diagonal(group, z, 6, displacement_bound=300.0)
        ref = basis_weight0_bundle(delta_basis, z)[0] * z.y ** 12
        worst_rel = max(worst_rel, abs(ev.value_diagonal - ref) / ref)
        worst_tail = max(worst_tail, ev.tail_estimate)
    elapsed = time.monotonic() - start
    report(1, "kernel oracle",
           worst_rel <= 1e-5 and worst_tail <= 1e-5 and elapsed <= 60.0,
           f"max rel {worst_rel:.3e}, tail {worst_tail:.3e}, {elapsed:.1f}s")


def test_02_term_magnitude_identity():
    rng = np.random.default_rng(101)
    group = modular_group()
    transforms = enumerate_group_elements(
        group, UhpPoint(0.0, 1.0), 60.0).transforms()
    worst = 0.0
    for _ in range(1000):
        g = transforms[rng.integers(0, len(transforms))]
        z = UhpPoint(float(rng.uniform(-2.0, 2.0)),
                     float(rng.uniform(0.2, 4.0)))
        k = int(rng.integers(2, 11))
        lhs = abs(term_value(g, z, k)) * 4 * math.pi / (2 * k - 1)
        rhs = math.cosh(hyp_distance(z, apply_moebius(g, z)) / 2) ** (-2 * k)
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(2, "term magnitude identity", worst <= 1e-10,
           f"max rel {worst:.3e} over 1000 pairs")


def test_03_lemma4_two_routes(delta_basis):
    start = time.monotonic()
    grid = grid_points(-0.4, 0.4, 0.8, 2.6, 10, 10)
    worst_basis = 0.0
    bsrc = BasisSource(delta_basis)
    for z in grid:
        r1 = ratio_parts(kernel_derivatives(bsrc, z), 6)[0]
        r2 = fd_log_ratio(bsrc, z)
        worst_basis = max(worst_basis, abs(r1 - r2) / abs(r1))
    worst_poincare = 0.0
    psrc = PoincareSource(modular_group(), 6)
    for z in grid[::10]:  # one column: each stencil lists cosets 9 times
        r1 = ratio_parts(kernel_derivatives(psrc, z), 6)[0]
        r2 = fd_log_ratio(psrc, z)
        worst_poincare = max(worst_poincare, abs(r1 - r2) / abs(r1))
    elapsed = time.monotonic() - start
    passed = worst_basis <= 1e-5 and worst_poincare <= 1e-5 and elapsed <= 120
    report(3, "Lemma 4 two-route equality", passed,
           f"basis {worst_basis:.3e}, poincare {worst_poincare:.3e}, "
           f"{elapsed:.1f}s")


def test_04_one_dimensional_collapse(delta_basis):
    src = BasisSource(delta_basis)
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        z = UhpPoint(float(rng.uniform(-0.5, 0.5)),
                     float(rng.uniform(0.4, 4.0)))
        ratio = ratio_parts(kernel_derivatives(src, z), 6)[0]
        worst = max(worst, abs(ratio - 6 / (2 * math.pi)))
    report(4, "one-dimensional collapse", worst <= 1e-10,
           f"max |ratio - k/2pi| {worst:.3e} over 100 points")


def test_05_prop3_ledger():
    group = translation_group()
    rng = np.random.default_rng(105)
    ok, worst_margin = True, -math.inf
    for k in (3, 6, 10):
        for _ in range(50):
            z = UhpPoint(float(rng.uniform(-0.5, 0.5)),
                         float(rng.uniform(0.5, 3.0)))
            ev = orbit_kernel_diagonal(group, z, k, displacement_bound=500.0)
            # r_hat = infinity for the translation-only group: no
            # non-parabolic elements, so the C_X term is zero
            bound = parabolic_term_bound(z.y, k)
            alpha = ev.value_diagonal - ev.identity_part
            ok = ok and ev.exhaustive and abs(alpha) <= bound
            worst_margin = max(worst_margin, abs(alpha) - bound)
    report(5, "Prop 3 ledger", ok,
           f"max |alpha| - bound = {worst_margin:.3e} over 150 evaluations")


def test_06_prop9_decay(delta_basis):
    # the shipped space is one-dimensional, so beta vanishes
    # identically (degenerate case of the decay bound); the synthetic
    # multi-form model exercises the genuine decay path
    def betas_at(basis, heights):
        grid = [UhpPoint(0.1, y) for y in heights]
        corr = ratio_parts(BasisSource(basis).bundles(grid), 6)[1]
        return [abs(c) for c in corr.tolist()]

    betas = betas_at(delta_basis, (4.0, 6.0, 8.0))
    degenerate_ok = max(betas) < 1e-12
    synth = model_basis(12, [[1.0, 0.4, 0.1], [0.0, 1.0, -0.2]])
    sb = betas_at(synth, (1.2, 1.6, 2.0))
    envs = [y * y * math.exp(-2 * math.pi * y) for y in (1.2, 1.6, 2.0)]
    quot = [b / e for b, e in zip(sb, envs)]
    synth_ok = sb[0] > sb[1] > sb[2] and max(quot) / quot[0] <= 2.0
    report(6, "Prop 9 decay", degenerate_ok and synth_ok,
           f"delta betas max {max(betas):.2e} (identically 0 in dim 1); "
           f"synthetic K quotients {quot[0]:.2e} >= {quot[1]:.2e} >= "
           f"{quot[2]:.2e}")


def test_07_thm10_scan(delta_basis):
    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    _, summaries = ratio_scan([BasisSource(delta_basis)], grid)
    delta_ok = summaries[0].within_limit
    sup_delta = summaries[0].sup

    rng = np.random.default_rng(107)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    small = grid_points(-0.4, 0.4, 0.7, 3.0, 6, 6)
    ks = list(range(2, 51))
    _, synth_sum = ratio_scan(
        [BasisSource(model_basis(2 * k, coef.tolist())) for k in ks], small)
    synth_ok = all(s.within_limit for s in synth_sum)
    worst_synth = max(s.sup for s in synth_sum)
    report(7, "Theorem 10 scan", delta_ok and synth_ok,
           f"delta sup/k^2 {sup_delta:.4f}, synthetic max sup/k^2 "
           f"{worst_synth:.4f}, limit {RATIO_LIMIT:.4f}")


def test_08_dimensions():
    rng = np.random.default_rng(108)
    count, ok = 0, True
    while count < 100:
        g = int(rng.integers(2, 40))
        k = int(rng.integers(2, 40))
        d = int(rng.integers(1, 60))
        if (k - 1) * (2 * g - 1) <= d:
            continue
        n, r = dimensions(g, k, d)
        ok = ok and n == (2 * k - 1) * (g - 1) + k - 1 and r == n - d
        count += 1
    report(8, "dimension formulas", ok, "100 random triples, exact equality")


def test_09_fs_two_routes():
    start = time.monotonic()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 8))
        coef = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
        basis = model_basis(2 * k, coef.tolist())
        while True:
            zs = [UhpPoint(float(rng.uniform(-0.4, 0.4)),
                           float(rng.uniform(0.6, 1.8))) for _ in range(d)]
            if d == 1 or hyp_distance(zs[0], zs[1]) > 0.2:
                break
        a = fs_form_formula(basis, zs, k).fs_volume_ratio
        b = fs_form_direct_oracle(basis, zs, k).fs_volume_ratio
        worst = max(worst, abs(a - b) / abs(a))
    elapsed = time.monotonic() - start
    report(9, "FS two-route equality",
           worst <= 1e-6 and elapsed <= 300.0,
           f"max rel {worst:.3e} over 20 instances, {elapsed:.1f}s")


def test_10_thm11_scan(delta_basis):
    # synthetic product model: the sup over a Cartesian grid of the
    # per-slot product of one-point ratios factors
    rng = np.random.default_rng(110)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    basis = model_basis(8, coef.tolist())
    pts = [UhpPoint(x, y) for x in (-0.25, 0.0, 0.25) for y in (0.7, 1.1, 1.6)]
    singles, _ = volume_ratio_scan(basis, np.array([[p.z] for p in pts]))
    one = dict(zip(pts, singles.ratio.tolist()))
    sup_sep = max(abs(one[p] * one[q]) / 4 ** 4 for p in pts for q in pts)
    sup1 = max(singles.ratio_over_k2d.tolist())
    sep_rel = abs(sup_sep - sup1 ** 2) / sup1 ** 2
    # Delta-based d = 2 scan on a 5x5 grid of tuple slots (n_k = 1 < d:
    # the degenerate product fallback, flagged in the rows)
    grid5 = grid_points(-0.4, 0.4, 0.7, 3.0, 5, 5)
    tuples2 = [(p, q) for p in grid5 for q in grid5
               if hyp_distance(p, q) > 1e-2]
    cols, dsum = volume_ratio_scan(
        delta_basis, np.array([[p.z, q.z] for p, q in tuples2]))
    delta_ok = dsum.within_limit and all(
        degenerate for degenerate, error in zip(cols.degenerate.tolist(),
                                                cols.errors)
        if error is None)
    report(10, "Theorem 11 scan", sep_rel <= 1e-8 and delta_ok,
           f"separable factorization rel {sep_rel:.2e}; delta d=2 sup/k^4 "
           f"{dsum.sup:.3e} <= {dsum.limit:.3f}")


def test_11_determinism(tmp_path):
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"t{run}.json"
        code = cli_main(["verify", "--suite", "thm10", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
        scan = tmp_path / f"s{run}.csv"
        code = cli_main(["ratio-scan", "--group", "modular", "--k", "6",
                         "--grid=-0.3,0.3,0.8,2.0,3,3", "--out", str(scan)])
        assert code == 0
        outputs.append(scan.read_bytes())
    passed = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    report(11, "rerun determinism", passed,
           "verify report and scan CSV byte-identical over two runs")
