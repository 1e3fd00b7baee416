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
from bergman.forms import (CuspFormBasis, QuadratureDomain, delta_form,
                           model_basis, orthonormal_basis, petersson_gram)
from bergman.groups import (enumerate_group_elements, modular_group,
                            translation_group)
from bergman.kernel import (alpha_decomposition, bergman_kernel_diagonal,
                            identity_term, parabolic_term_bound, term_value)
from bergman.metric import (BasisSource, PoincareSource, RATIO_LIMIT,
                            bergman_metric_ratio, cusp_ratio_expansion,
                            fd_log_ratio, grid_points, kernel_derivatives,
                            ratio_scan)
from bergman.symprod import (dimensions, fs_form_direct_oracle,
                             fs_form_formula, volume_ratio_scan)
from bergman.uhp import UhpPoint, apply_moebius, hyp_distance


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
    src = BasisSource(delta_basis)
    worst_rel, worst_tail = 0.0, 0.0
    for z in (UhpPoint(0.0, 1.0), UhpPoint(0.5, math.sqrt(3) / 2)):
        ev = bergman_kernel_diagonal(group, z, 6, displacement_bound=300.0)
        ref = src.weight0_value(z) * z.y ** 12
        worst_rel = max(worst_rel, abs(ev.value_diagonal - ref) / ref)
        worst_tail = max(worst_tail, ev.truncation.tail_estimate)
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
        r1 = bergman_metric_ratio(kernel_derivatives(bsrc, z, 6), z, 6).ratio
        r2 = fd_log_ratio(bsrc, z, 6)
        worst_basis = max(worst_basis, abs(r1 - r2) / abs(r1))
    worst_poincare = 0.0
    psrc = PoincareSource(modular_group(), 6, displacement_bound=60.0)
    for z in grid[::10]:  # one column; each point shares one truncation
        r1 = bergman_metric_ratio(kernel_derivatives(psrc, z, 6), z, 6).ratio
        r2 = fd_log_ratio(psrc, z, 6)
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
        sample = bergman_metric_ratio(kernel_derivatives(src, z, 6), z, 6)
        worst = max(worst, abs(sample.ratio - 6 / (2 * math.pi)))
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
            ev = bergman_kernel_diagonal(group, z, k,
                                         displacement_bound=500.0)
            # r_hat = infinity for the translation-only group: no
            # non-parabolic elements, so the C_X term is zero
            bound = parabolic_term_bound(z.y, k)
            alpha = alpha_decomposition(ev, k)
            ok = ok and ev.truncation.exhaustive and abs(alpha) <= bound
            worst_margin = max(worst_margin, abs(alpha) - bound)
    report(5, "Prop 3 ledger", ok,
           f"max |alpha| - bound = {worst_margin:.3e} over 150 evaluations")


def test_06_prop9_decay(delta_basis):
    # the shipped space is one-dimensional, so beta vanishes
    # identically (degenerate case of the decay bound); the synthetic
    # multi-form model exercises the genuine decay path
    betas = [abs(cusp_ratio_expansion(delta_basis, UhpPoint(0.1, y), 6)
                 .correction) for y in (4.0, 6.0, 8.0)]
    degenerate_ok = max(betas) < 1e-12
    synth = model_basis(12, [[1.0, 0.4, 0.1], [0.0, 1.0, -0.2]])
    sb = [abs(cusp_ratio_expansion(synth, UhpPoint(0.1, y), 6).correction)
          for y in (1.2, 1.6, 2.0)]
    envs = [y * y * math.exp(-2 * math.pi * y) for y in (1.2, 1.6, 2.0)]
    quot = [b / e for b, e in zip(sb, envs)]
    synth_ok = sb[0] > sb[1] > sb[2] and max(quot) / quot[0] <= 2.0
    report(6, "Prop 9 decay", degenerate_ok and synth_ok,
           f"delta betas max {max(betas):.2e} (identically 0 in dim 1); "
           f"synthetic K quotients {quot[0]:.2e} >= {quot[1]:.2e} >= "
           f"{quot[2]:.2e}")


def test_07_thm10_scan(delta_basis):
    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    _, summaries = ratio_scan(lambda k: BasisSource(delta_basis), [6], grid)
    delta_ok = summaries[0].within_limit
    sup_delta = summaries[0].sup_ratio_over_k2

    rng = np.random.default_rng(107)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    small = grid_points(-0.4, 0.4, 0.7, 3.0, 6, 6)
    ks = list(range(2, 51))
    _, synth_sum = ratio_scan(
        lambda k: BasisSource(model_basis(2 * k, coef.tolist())), ks, small)
    synth_ok = all(s.within_limit for s in synth_sum)
    worst_synth = max(s.sup_ratio_over_k2 for s in synth_sum)
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
    # separable synthetic model: sup over a Cartesian grid factors
    rng = np.random.default_rng(110)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    basis = model_basis(8, coef.tolist())
    pts = [UhpPoint(x, y) for x in (-0.25, 0.0, 0.25) for y in (0.7, 1.1, 1.6)]
    tuples = [(p, q) for p in pts for q in pts]
    _, sep = volume_ratio_scan(lambda k: basis, tuples, [4], separable=True)
    singles, _ = volume_ratio_scan(lambda k: basis, [(p,) for p in pts], [4])
    sup1 = max(r.ratio_over_k2d for r in singles)
    sep_rel = abs(sep[0].sup_ratio_over_k2d - sup1 ** 2) / sup1 ** 2
    # Delta-based d = 2 scan on a 5x5 grid of tuple slots (n_k = 1 < d:
    # the degenerate product fallback, flagged in the rows)
    grid5 = grid_points(-0.4, 0.4, 0.7, 3.0, 5, 5)
    tuples2 = [(p, q) for p in grid5 for q in grid5
               if hyp_distance(p, q) > 1e-2]
    rows, dsum = volume_ratio_scan(lambda k: delta_basis, tuples2, [6])
    delta_ok = dsum[0].within_limit and all(r.degenerate for r in rows
                                            if r.error is None)
    report(10, "Theorem 11 scan", sep_rel <= 1e-8 and delta_ok,
           f"separable factorization rel {sep_rel:.2e}; delta d=2 sup/k^4 "
           f"{dsum[0].sup_ratio_over_k2d:.3e} <= {dsum[0].limit:.3f}")


def test_11_determinism(tmp_path):
    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}.json"
        code = cli_main(["verify", "--suite", "thm10", "--threads", threads,
                         "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
        scan = tmp_path / f"s{threads}.csv"
        code = cli_main(["ratio-scan", "--group", "modular", "--k", "6",
                         "--grid=-0.3,0.3,0.8,2.0,3,3", "--bound", "80",
                         "--threads", threads, "--out", str(scan)])
        assert code == 0
        outputs.append(scan.read_bytes())
    passed = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    report(11, "thread-count determinism", passed,
           "verify report and scan CSV byte-identical for --threads 1 vs 8")
