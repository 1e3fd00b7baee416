import math
from dataclasses import astuple

import numpy as np
import pytest

from bergman.forms import (CuspFormBasis, QuadratureDomain,
                           basis_weight0_bundle, delta_form, model_basis,
                           orthonormal_basis, petersson_gram)
import bergman.metric
import mpmath

from bergman.groups import (BudgetExceeded, FuchsianGroup, cusp_threshold,
                            free_product_group, group_by_name, modular_cosets,
                            modular_group, walk_cosets)
from bergman.fourier import fourier_bundles, load_fourier_table
from bergman.kernel import NORM_CAP, coset_norm_bound, poincare_weight0_bundle
from bergman.cli import _basis_ratios, main
from bergman.metric import (BasisSource, ErrorBoundExceeded, KernelColumns,
                            KernelVanishes, PoincareSource, RATIO_LIMIT,
                            bound_ledger, DerivativeBundle,
                            fd_log_ratio, grid_points,
                            kernel_derivatives, kernel_lower_surrogate,
                            prop8_bound, ratio_parts, ratio_scan)
from bergman.uhp import DomainError, UhpPoint


@pytest.fixture(scope="module")
def delta_basis():
    raw = CuspFormBasis(forms=[delta_form(200)])
    raw.gram = petersson_gram(raw, QuadratureDomain())
    return orthonormal_basis(raw)


@pytest.fixture(scope="module")
def synthetic_basis():
    rng = np.random.default_rng(9)
    coef = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    return model_basis(10, coef.tolist())


def test_derivative_bundle_invariants(synthetic_basis):
    src = BasisSource(synthetic_basis)
    z, h = UhpPoint(0.2, 1.1), 1e-5
    b = kernel_derivatives(src, z)
    f = lambda w: basis_weight0_bundle(synthetic_basis, w)[0]
    # B is real, so dB/dzbar = (B_x + i B_y)/2 is the conjugate of dz
    bx = (f(UhpPoint(z.x + h, z.y)) - f(UhpPoint(z.x - h, z.y))) / (2 * h)
    by = (f(UhpPoint(z.x, z.y + h)) - f(UhpPoint(z.x, z.y - h))) / (2 * h)
    assert abs(0.5 * complex(bx, by) - b.dz.conjugate()) < 1e-6 * abs(b.dz)
    assert abs(b.dzdzbar.imag) < 1e-10 * max(abs(b.dzdzbar), 1e-30)
    assert b.value > 0


def test_model_kernel_second_derivative_single_term():
    # single-term model basis at z = i: d2B = 4 pi^2 e^{-4 pi}
    basis = model_basis(12, [[1.0]])
    src = BasisSource(basis)
    b = kernel_derivatives(src, UhpPoint(0.0, 1.0))
    assert b.dzdzbar.real == pytest.approx(
        4 * math.pi ** 2 * math.exp(-4 * math.pi), rel=1e-12)


def _stencil(f, z, h):
    """Value, dB/dz and d2B/dz dzbar from five-point stencils of step h."""
    b0 = f(z)
    fxp, fxm = f(UhpPoint(z.x + h, z.y)), f(UhpPoint(z.x - h, z.y))
    fyp, fym = f(UhpPoint(z.x, z.y + h)), f(UhpPoint(z.x, z.y - h))
    dx, dy = (fxp - fxm) / (2 * h), (fyp - fym) / (2 * h)
    dxx = (fxp - 2 * b0 + fxm) / (h * h)
    dyy = (fyp - 2 * b0 + fym) / (h * h)
    return b0, 0.5 * complex(dx, -dy), 0.25 * (dxx + dyy)


def _richardson_bundle(basis, z):
    """Finite-difference bundle, one Richardson step on the O(h^2) stencils."""
    f = lambda w: basis_weight0_bundle(basis, w)[0]
    h = max(1e-5, 1e-4 * z.y)
    b_h, b_h2 = _stencil(f, z, h), _stencil(f, z, h / 2)
    return DerivativeBundle(value=b_h2[0], dz=(4 * b_h2[1] - b_h[1]) / 3,
                            dzdzbar=complex((4 * b_h2[2] - b_h[2]) / 3),
                            height=z.y)


def test_series_vs_finite_difference(synthetic_basis):
    src = BasisSource(synthetic_basis)
    z = UhpPoint(0.15, 0.95)
    b1 = kernel_derivatives(src, z)
    b2 = _richardson_bundle(synthetic_basis, z)
    assert b2.value == pytest.approx(b1.value, rel=1e-9)
    assert abs(b2.dz - b1.dz) < 1e-6 * max(abs(b1.dz), 1e-12)
    assert abs(b2.dzdzbar - b1.dzdzbar) < 1e-5 * max(abs(b1.dzdzbar), 1e-12)


def test_constant_kernel_fiction_gives_identity_ratio():
    bundle = DerivativeBundle(value=1.0, dz=0j, dzdzbar=0j, height=1.7)
    ratio, correction, _ = ratio_parts(bundle, 7)
    assert ratio == pytest.approx(7 / (2 * math.pi), rel=1e-15)
    assert correction == 0.0


def test_vanishing_kernel_raises():
    # q^40 underflows at y = 2.4: the suites' ratios refuse the point
    basis = model_basis(12, [[0.0] * 39 + [1.0]])
    with pytest.raises(KernelVanishes, match="kernel value 0.0 at"):
        _basis_ratios(basis, [UhpPoint(0.0, 1.0), UhpPoint(0.0, 2.4)])


def test_single_form_collapse_to_k_over_2pi(delta_basis):
    src = BasisSource(delta_basis)
    rng = np.random.default_rng(13)
    for _ in range(25):
        z = UhpPoint(float(rng.uniform(-0.5, 0.5)),
                     float(rng.uniform(0.5, 3.0)))
        ratio = ratio_parts(kernel_derivatives(src, z), 6)[0]
        assert abs(ratio - 6 / (2 * math.pi)) < 1e-10


def test_two_route_equality_basis(synthetic_basis):
    src = BasisSource(synthetic_basis)
    for z in grid_points(-0.3, 0.3, 0.8, 2.0, 3, 3):
        r1 = ratio_parts(kernel_derivatives(src, z), 5)[0]
        r2 = fd_log_ratio(src, z)
        assert r2 == pytest.approx(r1, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("y", [4.0, 6.0, 7.0])
def test_finite_difference_route_takes_the_table_above_its_height(y):
    # a stencil centred at or above Y_k differentiates the table, the
    # function the scan reports; summed over cosets it missed k/(2 pi)
    # by 1.2e-6, 5.3e-4 and 0.58 at y = 4, 6 and 7
    src = PoincareSource(modular_group(), 6)
    assert fd_log_ratio(src, UhpPoint(0.1, y)) == pytest.approx(
        6 / (2 * math.pi), abs=1e-7)


def test_two_route_equality_poincare():
    src = PoincareSource(modular_group(), 6)
    z = UhpPoint(0.1, 1.3)
    r1 = ratio_parts(kernel_derivatives(src, z), 6)[0]
    r2 = fd_log_ratio(src, z)
    assert r2 == pytest.approx(r1, rel=1e-5)


@pytest.mark.parametrize("k", [6, 8, 12])
@pytest.mark.parametrize("z", [UhpPoint(0.0, 0.3), UhpPoint(5.0, 0.02),
                               UhpPoint(0.1, 0.25)],
                         ids=["0.3i", "5+0.02i", "0.1+0.25i"])
def test_finite_difference_route_matches_the_scan_off_f(k, z):
    # each stencil point is served as a scan row, at its image in F; a
    # stencil summing its centre's cosets missed the scan's row by
    # 2.7e-5 to 3.4 relative at these points
    src = PoincareSource(modular_group(), k)
    r1 = ratio_parts(kernel_derivatives(src, z), k)[0]
    assert fd_log_ratio(src, z) == pytest.approx(r1, rel=1e-5)


def test_finite_difference_route_refuses_a_vanishing_kernel():
    # E_4 vanishes at rho: B is a rounding-sized negative number there,
    # which the stencil refuses as the scan does, not by a domain error
    src, rho = PoincareSource(modular_group(), 8), UhpPoint(0.5, 0.75 ** 0.5)
    with pytest.raises(KernelVanishes, match="kernel value .* at"):
        fd_log_ratio(src, rho)
    (rows,), _ = ratio_scan([src], [rho])
    assert rows.errors[0].startswith("KernelVanishes: kernel value")


def test_basis_stencil_is_the_pointwise_richardson_formula(delta_basis):
    # the nine points of one bundles call give each point's own value bit
    # for bit, so the stencil, and verify lemma4's report, keep their bytes
    src, k = BasisSource(delta_basis), delta_basis.k

    def g(x, y):
        return 2 * k * math.log(y) + math.log(
            basis_weight0_bundle(delta_basis, UhpPoint(x, y))[0])

    for z in grid_points(-0.4, 0.4, 0.8, 2.4, 5, 5):
        def lap(h):
            return (g(z.x + h, z.y) + g(z.x - h, z.y) + g(z.x, z.y + h)
                    + g(z.x, z.y - h) - 4 * g(z.x, z.y)) / (h * h)

        h = max(1e-3, 1e-3 * z.y)
        val = (4 * lap(h / 2) - lap(h)) / 3
        assert fd_log_ratio(src, z) == -(z.y ** 2 / (4.0 * math.pi)) * val


def test_finite_difference_routes_refuse_budget_cut_orbit():
    # 50 cosets do not cover the coset list at z=i; a value from the
    # truncated sum must reach neither the stencil nor the bundle
    src = PoincareSource(modular_group(), 6, budget=50)
    z = UhpPoint(0.0, 1.0)
    with pytest.raises(BudgetExceeded):
        fd_log_ratio(src, z)
    with pytest.raises(BudgetExceeded):
        kernel_derivatives(src, z)


def test_poincare_bundles_refuse_only_the_budget_cut_point():
    # on free2, whose cosets are all walked, 2,000 cosets cover the walk
    # at y = 1 and 2 (about 1,250 and 1,520 cosets) but not at y = 4
    # (about 2,540); PSL(2, Z) takes y = 2 and 4 from its Fourier table
    grid = [UhpPoint(0.1, 1.0), UhpPoint(0.1, 4.0), UhpPoint(0.1, 2.0)]
    out = PoincareSource(free_product_group(), 6, budget=2_000).bundles(grid)
    assert isinstance(out.refusals[1], BudgetExceeded)
    full = PoincareSource(free_product_group(), 6)
    for i in (0, 2):
        assert out.refusals[i] is None
        row = (out.value[i], out.dz[i], out.dzdzbar[i], out.height[i],
               tuple(out.errors[i]))
        assert row == astuple(kernel_derivatives(full, grid[i]))


def test_poincare_source_takes_the_table_at_and_above_its_height():
    # PSL(2, Z) takes the points at or above Y_k from the Fourier table
    # and the rest from their cosets, bit for bit; other groups and
    # weights without a table never take it
    src = PoincareSource(modular_group(), 6)
    height = src.fourier_height
    assert height == 1.125
    grid = [UhpPoint(0.2, height - 0.01), UhpPoint(0.2, height),
            UhpPoint(-0.4, 3.0), UhpPoint(0.5, 1.0)]
    cols = src.bundles(grid)
    table = load_fourier_table(6)[1]
    for i, z in enumerate(grid):
        if z.y >= height:
            value, dz, d2, errors = (v[0] for v in fourier_bundles(
                6, table, np.array([z.z])))
            errors = tuple(errors.tolist())
        else:
            value, dz, d2, errors = poincare_weight0_bundle(
                modular_cosets(z, coset_norm_bound(z.y, 6)), z, 6)
        assert cols.refusals[i] is None
        assert (cols.value[i], cols.dz[i], cols.dzdzbar[i]) == (value, dz, d2)
        assert tuple(cols.errors[i].tolist()) == errors
    assert math.isinf(PoincareSource(free_product_group(), 6).fourier_height)
    assert math.isinf(PoincareSource(modular_group(), 5).fourier_height)


def test_poincare_source_reads_its_table_once(monkeypatch):
    # the table depends on k alone: a modular source reads it when it is
    # built and never again, whatever it evaluates; another group reads
    # none, and weights beyond the stored ones (k = 5, 86) have no height
    reads = []

    def counted(k):
        reads.append(k)
        return load_fourier_table(k)

    monkeypatch.setattr(bergman.metric, "load_fourier_table", counted)
    src = PoincareSource(modular_group(), 6)
    grid = [UhpPoint(0.2, 0.6), UhpPoint(0.1, 1.5), UhpPoint(-0.3, 4.0)]
    for _ in range(3):
        cols = src.bundles(grid)
        assert all(r is None for r in cols.refusals)
    assert fd_log_ratio(src, UhpPoint(0.1, 2.0)) == pytest.approx(
        6 / (2 * math.pi), rel=1e-6)
    kernel_derivatives(src, UhpPoint(0.1, 2.0))
    assert reads == [6]
    PoincareSource(free_product_group(), 6).bundles([UhpPoint(0.1, 2.0)])
    assert reads == [6]
    for k in (5, 86):
        assert math.isinf(PoincareSource(modular_group(), k).fourier_height)
        assert load_fourier_table(k) is None
    assert reads == [6, 5, 86]


@pytest.mark.parametrize("route", ["modular", "delta"])
def test_every_returned_row_is_within_its_error_bound(route, delta_basis):
    # at dim S_2k = 1 the ratio is exactly k/(2 pi): every row the scan
    # returns, on both sides of Y_k and on the basis route, is within
    # its printed error bound of it
    if route == "modular":
        sources = [PoincareSource(modular_group(), k) for k in (6, 8)]
        grid = grid_points(-0.45, 0.45, 0.3, 8.0, 6, 15)
    else:
        sources = [BasisSource(delta_basis)]
        grid = grid_points(-0.5, 0.5, 0.3, 5.0, 11, 16)
    tables, _ = ratio_scan(sources, grid)
    returned = 0
    with mpmath.workdps(30):
        for t in tables:
            exact = mpmath.mpf(t.k) / (2 * mpmath.pi)
            for ratio, err in zip(t.ratio.tolist(), t.error_bound.tolist()):
                if math.isnan(ratio):
                    continue
                returned += 1
                assert abs(mpmath.mpf(ratio) - exact) <= err
    assert returned >= 0.9 * len(grid) * len(sources)


def test_poincare_and_basis_routes_agree(delta_basis):
    psrc = PoincareSource(modular_group(), 6)
    bsrc = BasisSource(delta_basis)
    z = UhpPoint(0.22, 1.4)
    rp = ratio_parts(kernel_derivatives(psrc, z), 6)[0]
    rb = ratio_parts(kernel_derivatives(bsrc, z), 6)[0]
    assert rp == pytest.approx(rb, rel=1e-8)


def test_bound_ledger_frozen_example():
    led = bound_ledger(1.0, 3, (2 * 3 - 1) / (8 * math.pi), 0.0)
    # 6 * (5/(4 pi) + 15/8), recomputed independently
    assert led.lemma5 == pytest.approx(13.637324146378429, rel=1e-12)
    assert led.prop8 > 0


def test_bound_ledger_lemma_ratio_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = float(rng.uniform(0.3, 4.0))
        k = int(rng.integers(3, 20))
        led = bound_ledger(y, k, 1.0, float(rng.uniform(0, 30)))
        expected = (10 * k * k + k) / (2 * y * 2 * k)
        assert led.lemma7 / led.lemma5 == pytest.approx(expected, rel=1e-12)
        assert led.lemma5 > 0 and led.lemma7 > 0 and led.prop8 > 0


def test_bound_ledger_validation():
    with pytest.raises(DomainError):
        bound_ledger(1.0, 2, 1.0, 0.0)
    with pytest.raises(DomainError):
        bound_ledger(-1.0, 3, 1.0, 0.0)
    with pytest.raises(DomainError):
        bound_ledger(1.0, 3, 0.0, 0.0)


def test_kernel_lower_surrogate():
    asym = (2 * 6 - 1) / (8 * math.pi)
    assert kernel_lower_surrogate(6, 10.0) == pytest.approx(asym)
    assert kernel_lower_surrogate(6, 0.01) == pytest.approx(0.01)
    assert kernel_lower_surrogate(6, 0.0) == pytest.approx(asym)


def test_cusp_expansion_single_term_beta_zero():
    basis = model_basis(12, [[1.0]])
    z = UhpPoint(0.0, 3.0)
    correction = ratio_parts(kernel_derivatives(BasisSource(basis), z), 6)[1]
    assert abs(correction) < 1e-12


def test_cusp_expansion_first_coefficient_zero(tmp_path, capsys):
    # a basis with a_1 = 0 has no leading cusp term: prop9 refuses it
    path = tmp_path / "q2.jsonl"
    path.write_text('{"label": "f", "weight": 12, "coefficients": [0.0, 1.0]}\n')
    assert main(["verify", "--suite", "prop9", "--forms", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: sum |a_{{j,1}}|^2 vanishes\n")


def test_beta_decay_synthetic_multiform():
    basis = model_basis(16, [[1.0, 0.4, 0.1], [0.0, 1.0, -0.2]])
    heights = (1.2, 1.6, 2.0, 2.4)
    _, corr, _ = ratio_parts(
        BasisSource(basis).bundles([UhpPoint(0.07, y) for y in heights]), 8)
    betas = [abs(c) for c in corr.tolist()]
    assert betas == sorted(betas, reverse=True)
    quotients = [beta / (y * y * math.exp(-2 * math.pi * y))
                 for beta, y in zip(betas, heights)]
    assert min(quotients) > 0
    # decay at least as fast as the y^2 exp(-2 pi y) envelope: the
    # envelope quotients themselves decrease, so the largest quotient
    # is a valid single constant for every height
    assert quotients == sorted(quotients, reverse=True)
    for beta, y in zip(betas, heights):
        assert beta <= max(quotients) * y * y * math.exp(-2 * math.pi * y)


def test_ratio_scan_summary_and_rows(delta_basis):
    grid = grid_points(-0.4, 0.4, 0.7, 3.5, 4, 4)
    (rows,), summaries = ratio_scan([BasisSource(delta_basis)], grid)
    assert len(rows.errors) == len(rows.ratio) == 16
    assert all(e is None for e in rows.errors)
    assert rows.bound_ok.all()
    s = summaries[0]
    assert s.within_limit and s.sup <= RATIO_LIMIT
    assert s.sup == rows.ratio_over_k2[s.sup_index]


def test_ratio_scan_summary_counts_its_own_flagged_rows():
    # 1,000 cosets cut k = 6's coset sums short (about 3,700 of them) but
    # not k = 8's (about 360): y = 1 is refused at k = 6 but not at
    # k = 8; 0.375 + 0.15i, whose image in F stays below Y_6 and Y_8, at
    # both, by its error bound at k = 8; y = 6 takes the Fourier table
    # at both (0.3i, once refused too, takes it at its image 3.33i)
    grid = [UhpPoint(0.0, 1.0), UhpPoint(0.0, 6.0), UhpPoint(0.375, 0.15)]
    tables, summaries = ratio_scan(
        [PoincareSource(modular_group(), k, budget=1_000) for k in (6, 8)],
        grid)
    for s in summaries:
        assert s.flagged == sum(e is not None for t in tables if t.k == s.k
                                for e in t.errors)
    assert [s.flagged for s in summaries] == [2, 1]


def test_basis_scan_row_does_not_depend_on_grid(delta_basis):
    sources = [BasisSource(delta_basis)]
    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    (rows,), _ = ratio_scan(sources, grid)
    for i in range(0, len(grid), 37):
        (alone,), _ = ratio_scan(sources, [grid[i]])
        assert alone.errors[0] is None and rows.errors[i] is None
        assert alone.cusp[0] == rows.cusp[i]
        assert alone.ratio[0] == pytest.approx(rows.ratio[i], rel=1e-14)
        assert alone.ratio_over_k2[0] == pytest.approx(rows.ratio_over_k2[i],
                                                       rel=1e-14)


def _batch_of_one(source, z, k, tol=1e-5):
    """The scan's row at z from the one-point functions: the ratio and
    its error bound, or the error text of the refusal."""
    try:
        bundle = kernel_derivatives(source, z)
        if bundle.value <= 1e-300:
            raise KernelVanishes(f"kernel value {bundle.value} at {z}")
        ratio, _, bound = map(float, ratio_parts(bundle, k))
        if not bound <= tol * max(abs(ratio), k / (2 * math.pi)):
            raise ErrorBoundExceeded(
                f"ratio {ratio:.12g} +- {bound:.3g} exceeds tol {tol:g}")
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ratio, bound


def _assert_columns_equal_batch_of_one(sources, grid):
    """Every row equals the batch of one exactly; returns the refused count."""
    tables, summaries = ratio_scan(sources, grid)
    refused = 0
    for src, t, s in zip(sources, tables, summaries):
        k = src.k
        for i, z in enumerate(grid):
            one = _batch_of_one(src, z, k)
            if isinstance(one, str):
                refused += 1
                assert t.errors[i] == one
                assert math.isnan(t.ratio[i]) and math.isnan(t.bound[i])
                assert not t.bound_ok[i]
                continue
            ratio, bound = one
            assert t.errors[i] is None
            assert t.ratio[i] == ratio
            assert t.ratio_over_k2[i] == abs(ratio) / (k * k)
            bundle = kernel_derivatives(src, z)
            assert t.error_bound[i] == bound == float(ratio_parts(
                bundle, k)[2])
            assert t.cusp[i] == (z.y >= cusp_threshold(k))
        assert s.flagged == sum(e is not None for e in t.errors)
    return refused


def test_scan_columns_equal_batch_of_one_on_delta_grid(delta_basis):
    grid = grid_points(-0.45, 0.45, 0.4, 5.0, 20, 20)
    assert _assert_columns_equal_batch_of_one(
        [BasisSource(delta_basis)], grid) == 0


def test_scan_columns_equal_batch_of_one_with_refused_rows():
    # y = 2, 6 and 8 take the Fourier table, and so do 0.3i, 0.25i and
    # 0.2i at their images 3.33i, 4i and 5i (once refused by their
    # error bounds or a vanishing kernel); 0.375 + 0.15i and 0.35 + 0.1i,
    # whose images stay below Y_k, are refused by their error bounds at
    # k = 8, and at 0.1 + 60i the kernel vanishes at both weights
    grid = [UhpPoint(0.0, 1.0), UhpPoint(0.3, 2.0), UhpPoint(0.0, 6.0),
            UhpPoint(0.0, 8.0), UhpPoint(0.0, 0.3), UhpPoint(0.0, 0.25),
            UhpPoint(0.0, 0.2), UhpPoint(0.375, 0.15), UhpPoint(0.35, 0.1),
            UhpPoint(0.1, 60.0)]
    assert _assert_columns_equal_batch_of_one(
        [PoincareSource(modular_group(), k) for k in (6, 8)], grid) == 4


class _StubSource:
    """B and the error bound e0 of B chosen per height, dB = d2B = 0."""

    k = 6
    ROWS = {1.0: (0.0, 0.0, DomainError("stub refuses")),
            2.0: (0.0, 0.0, None), 3.0: (math.nan, 0.0, None),
            4.0: (1.0, 0.0, None), 5.0: (1.0, 2.0, None)}

    def bundles(self, grid):
        value, e0, refusals = zip(*(self.ROWS[z.y] for z in grid))
        errors = np.zeros((len(grid), 3))
        errors[:, 0] = e0
        return KernelColumns(np.array(value), np.zeros(len(grid), complex),
                             np.zeros(len(grid), complex), errors,
                             list(refusals), np.array([z.y for z in grid]))


def test_scan_refuses_in_order_source_vanishing_then_bound():
    # B = 0 under a source refusal shows the source's refusal; B = NaN
    # is not caught as vanishing, its NaN bound exceeds any tolerance
    grid = [UhpPoint(0.1, y) for y in (1.0, 2.0, 3.0, 4.0, 5.0)]
    (t,), (s,) = ratio_scan([_StubSource()], grid)
    assert t.errors == [
        "DomainError: stub refuses",
        "KernelVanishes: kernel value 0.0 at UhpPoint(0.1, 2.0)",
        "ErrorBoundExceeded: ratio nan +- nan exceeds tol 1e-05",
        None,
        "ErrorBoundExceeded: ratio 0.954929658551 +- inf exceeds tol 1e-05"]
    assert s.flagged == 4 and s.sup_index == 3
    assert t.ratio[3] == 6 / (2 * math.pi) and t.bound_ok[3]
    assert _assert_columns_equal_batch_of_one([_StubSource()], grid) == 4


def test_prop8_bound_is_the_ledger_value_at_every_height():
    for y in (0.5, 1.0, 4.0):
        assert prop8_bound(6, 0.3, 2.0) == bound_ledger(y, 6, 0.3, 2.0).prop8
    with pytest.raises(DomainError):
        prop8_bound(2, 1.0, 0.0)
    with pytest.raises(DomainError):
        prop8_bound(6, 1.0, -1.0)


@pytest.mark.parametrize("k", [6, 8])
def test_coset_route_error_envelope(k):
    # the weight-12 and weight-16 spaces are one-dimensional, so the
    # ratio is exactly k/(2 pi); the reported bound must cover the miss
    src = PoincareSource(modular_group(), k)
    for y in (0.6, 1.0, 2.3, 4.0, 6.0, 8.0):
        z = UhpPoint(0.314368, y)
        bundle = kernel_derivatives(src, z)
        ratio, _, bound = ratio_parts(bundle, k)
        assert abs(ratio - k / (2 * math.pi)) <= bound
        if y <= 4.0:
            assert bound < 1e-7


def test_translation_free_group_sums_single_elements(tmp_path, capsys):
    # a group without the unit translation has no cusp at i*infinity and
    # no coset series: refused before any row, where each row once summed
    # its finite orbit element by element
    path = tmp_path / "group.json"
    path.write_text('{"generators": [[1, 0, 2, 1]]}')
    for group in (group_by_name(f"file:{path}"),
                  FuchsianGroup(label="trivial", generators=())):
        with pytest.raises(DomainError, match="lacks the unit translation"):
            PoincareSource(group, 6)
    out = tmp_path / "scan.csv"
    code = main(["ratio-scan", "--group", f"file:{path}", "--k", "6",
                 "--grid=-0.2,0.2,0.8,1.6,2,2", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: group {path} lacks the unit translation: no cusp at "
        "i*infinity\n")


def test_poincare_scan_walks_cosets_not_elements(monkeypatch):
    import bergman.groups
    import bergman.metric

    def refuse(*args, **kwargs):
        raise AssertionError("element enumeration on a group with T")

    monkeypatch.setattr(bergman.groups, "enumerate_group_elements", refuse)
    monkeypatch.setattr(bergman.metric, "enumerate_group_elements", refuse)

    (rows,), summaries = ratio_scan([PoincareSource(modular_group(), 6)],
                                    [UhpPoint(0.1, 1.2)])
    assert rows.errors[0] is None and summaries[0].within_limit
    assert rows.ratio[0] == pytest.approx(6 / (2 * math.pi), rel=1e-10)


@pytest.mark.parametrize("name, sieved", [
    ("modular", True), ("file", True), ("free2", False)])
def test_poincare_source_sieves_psl2z_and_walks_other_groups(
        monkeypatch, tmp_path, name, sieved):
    # a file group generated by T^-1 and S^-1 is PSL(2, Z) too
    path = tmp_path / "group.json"
    path.write_text('{"generators": [[1, -1, 0, 1], [0, 1, -1, 0]]}')
    group = group_by_name(f"file:{path}" if name == "file" else name)

    def refuse(*args, **kwargs):
        raise AssertionError("the other coset listing ran")

    monkeypatch.setattr(bergman.metric,
                        "walk_cosets" if sieved else "modular_cosets", refuse)
    z = UhpPoint(0.1, 1.2)
    cosets = PoincareSource(group, 6).cosets(z)
    walked = modular_group() if sieved else group
    assert len(cosets) == len(walk_cosets(walked, z, cosets.norm_bound))


def test_non_integral_group_refused(tmp_path):
    # the coset tail counts integer bottom rows, which needs Gamma in SL(2, Z)
    path = tmp_path / "group.json"
    path.write_text('{"generators": [[1, 1, 0, 1], [0.5, -2, 1, -2]]}')
    group = group_by_name(f"file:{path}")
    assert group.has_cusp_translation and not group.is_integral
    assert modular_group().is_integral
    with pytest.raises(DomainError, match="integral"):
        PoincareSource(group, 6).cosets(UhpPoint(0.0, 1.0))


def test_small_weight_walk_capped_and_bounded():
    # weight 8 on free2 = Gamma_0(2): S_8 is one-dimensional, so the
    # ratio is 4/(2 pi); the uncapped norm bound would list ~1e6 cosets
    assert coset_norm_bound(1.0, 4) == NORM_CAP
    src = PoincareSource(free_product_group(), 4)
    z = UhpPoint(0.1, 1.0)
    ratio, _, bound = ratio_parts(kernel_derivatives(src, z), 4)
    assert abs(ratio - 4 / (2 * math.pi)) <= bound < 1e-7
