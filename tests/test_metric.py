import math

import numpy as np
import pytest

from bergman.forms import (CuspFormBasis, QuadratureDomain, delta_form,
                           model_basis, orthonormal_basis, petersson_gram)
from bergman.groups import BudgetExceeded, modular_group
from bergman.metric import (BasisSource, DerivativeMethod, FirstCoefficientZero,
                            KernelVanishes, PoincareSource, RATIO_LIMIT,
                            bergman_metric_ratio, bound_ledger,
                            cusp_ratio_expansion, DerivativeBundle,
                            fd_log_ratio, fit_beta_decay, grid_points,
                            kernel_derivatives, kernel_lower_surrogate,
                            ratio_scan)
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
    b = kernel_derivatives(src, UhpPoint(0.2, 1.1), 5)
    assert b.dz_conj == b.dz.conjugate()
    assert abs(b.dzdzbar.imag) < 1e-10 * max(abs(b.dzdzbar), 1e-30)
    assert b.value > 0


def test_model_kernel_second_derivative_single_term():
    # single-term model basis at z = i: d2B = 4 pi^2 e^{-4 pi}
    basis = model_basis(12, [[1.0]])
    src = BasisSource(basis)
    b = kernel_derivatives(src, UhpPoint(0.0, 1.0), 6)
    assert b.dzdzbar.real == pytest.approx(
        4 * math.pi ** 2 * math.exp(-4 * math.pi), rel=1e-12)


def test_series_vs_finite_difference(synthetic_basis):
    src = BasisSource(synthetic_basis)
    z = UhpPoint(0.15, 0.95)
    b1 = kernel_derivatives(src, z, 5, DerivativeMethod.SERIES_TERMWISE)
    b2 = kernel_derivatives(src, z, 5, DerivativeMethod.FINITE_DIFFERENCE)
    assert b2.value == pytest.approx(b1.value, rel=1e-9)
    assert abs(b2.dz - b1.dz) < 1e-6 * max(abs(b1.dz), 1e-12)
    assert abs(b2.dzdzbar - b1.dzdzbar) < 1e-5 * max(abs(b1.dzdzbar), 1e-12)


def test_constant_kernel_fiction_gives_identity_ratio():
    bundle = DerivativeBundle(value=1.0, dz=0j, dz_conj=0j, dzdzbar=0j,
                              method=DerivativeMethod.SERIES_TERMWISE)
    sample = bergman_metric_ratio(bundle, UhpPoint(0.1, 1.7), 7)
    assert sample.ratio == pytest.approx(7 / (2 * math.pi), rel=1e-15)
    assert sample.correction == 0.0


def test_vanishing_kernel_raises():
    bundle = DerivativeBundle(value=0.0, dz=0j, dz_conj=0j, dzdzbar=0j,
                              method=DerivativeMethod.SERIES_TERMWISE)
    with pytest.raises(KernelVanishes):
        bergman_metric_ratio(bundle, UhpPoint(0.0, 1.0), 5)


def test_single_form_collapse_to_k_over_2pi(delta_basis):
    src = BasisSource(delta_basis)
    rng = np.random.default_rng(13)
    for _ in range(25):
        z = UhpPoint(float(rng.uniform(-0.5, 0.5)),
                     float(rng.uniform(0.5, 3.0)))
        sample = bergman_metric_ratio(kernel_derivatives(src, z, 6), z, 6)
        assert abs(sample.ratio - 6 / (2 * math.pi)) < 1e-10


def test_two_route_equality_basis(synthetic_basis):
    src = BasisSource(synthetic_basis)
    for z in grid_points(-0.3, 0.3, 0.8, 2.0, 3, 3):
        r1 = bergman_metric_ratio(kernel_derivatives(src, z, 5), z, 5).ratio
        r2 = fd_log_ratio(src, z, 5)
        assert r2 == pytest.approx(r1, rel=1e-5, abs=1e-8)


def test_two_route_equality_poincare():
    src = PoincareSource(modular_group(), 6, displacement_bound=200.0)
    z = UhpPoint(0.1, 1.3)
    r1 = bergman_metric_ratio(kernel_derivatives(src, z, 6), z, 6).ratio
    r2 = fd_log_ratio(src, z, 6)
    assert r2 == pytest.approx(r1, rel=1e-5)


def test_finite_difference_routes_refuse_budget_cut_orbit():
    # 50 expansions cut the orbit at z=i short; a value from the
    # truncated sum (6e-5 off) must not reach the stencils
    src = PoincareSource(modular_group(), 6, budget=50)
    z = UhpPoint(0.0, 1.0)
    with pytest.raises(BudgetExceeded):
        fd_log_ratio(src, z, 6)
    with pytest.raises(BudgetExceeded):
        kernel_derivatives(src, z, 6, DerivativeMethod.FINITE_DIFFERENCE)


def test_poincare_and_basis_routes_agree(delta_basis):
    psrc = PoincareSource(modular_group(), 6, displacement_bound=250.0)
    bsrc = BasisSource(delta_basis)
    z = UhpPoint(0.22, 1.4)
    rp = bergman_metric_ratio(kernel_derivatives(psrc, z, 6), z, 6).ratio
    rb = bergman_metric_ratio(kernel_derivatives(bsrc, z, 6), z, 6).ratio
    assert rp == pytest.approx(rb, rel=1e-8)


def test_bound_ledger_frozen_example():
    led = bound_ledger(1.0, 3, (2 * 3 - 1) / (8 * math.pi), 0.0)
    # 6 * (5/(4 pi) + 15/8), recomputed independently
    assert led.lemma5 == pytest.approx(13.637324146378429, rel=1e-12)
    assert led.lemma6 == led.lemma5
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
    s = cusp_ratio_expansion(basis, UhpPoint(0.0, 3.0), 6)
    assert abs(s.correction) < 1e-12


def test_cusp_expansion_first_coefficient_zero():
    basis = model_basis(12, [[0.0, 1.0]])
    with pytest.raises(FirstCoefficientZero):
        cusp_ratio_expansion(basis, UhpPoint(0.0, 3.0), 6)


def test_beta_decay_synthetic_multiform():
    basis = model_basis(16, [[1.0, 0.4, 0.1], [0.0, 1.0, -0.2]])
    heights = (1.2, 1.6, 2.0, 2.4)
    samples = [cusp_ratio_expansion(basis, UhpPoint(0.07, y), 8)
               for y in heights]
    betas = [abs(s.correction) for s in samples]
    assert betas == sorted(betas, reverse=True)
    K, quotients = fit_beta_decay(samples)
    assert K > 0
    # decay at least as fast as the y^2 exp(-2 pi y) envelope: the
    # envelope quotients themselves decrease, so the largest quotient
    # is a valid single constant for every height
    assert quotients == sorted(quotients, reverse=True)
    for beta, y in zip(betas, heights):
        assert beta <= max(quotients) * y * y * math.exp(-2 * math.pi * y)


def test_ratio_scan_summary_and_rows(delta_basis):
    def factory(k):
        return BasisSource(delta_basis)

    grid = grid_points(-0.4, 0.4, 0.7, 3.5, 4, 4)
    rows, summaries = ratio_scan(factory, [6], grid)
    assert len(rows) == 16
    assert all(r.error is None for r in rows)
    assert all(r.bound_satisfied for r in rows)
    s = summaries[0]
    assert s.within_limit and s.sup_ratio_over_k2 <= RATIO_LIMIT
    assert s.sup_point is not None


def test_ratio_scan_thread_count_invariance(delta_basis):
    def factory(k):
        return BasisSource(delta_basis)

    grid = grid_points(-0.3, 0.3, 0.8, 2.5, 3, 3)
    rows1, _ = ratio_scan(factory, [6], grid, threads=1)
    rows4, _ = ratio_scan(factory, [6], grid, threads=4)
    assert [r.ratio for r in rows1] == [r.ratio for r in rows4]
