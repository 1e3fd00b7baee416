import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergman.forms import bergman_from_basis, model_basis
from bergman.metric import BasisSource, bergman_metric_ratio, kernel_derivatives
from scipy.linalg import null_space

from bergman.symprod import (DegenerateDivisor, Divisor, HypothesisViolated,
                             NearDiagonal, RATIO_LIMIT, SubspaceFrame,
                             _covector_qr, dimensions, evaluation_matrix,
                             fs_form_direct_oracle, fs_form_formula,
                             full_frame, ma_asymptotic_check,
                             nested_log_potential, subspace_kernel_diagonal,
                             two_point_gram, vanishing_subspace,
                             volume_ratio_scan, weight0_subspace_kernel)
from bergman.uhp import DomainError, UhpPoint


def random_basis(seed, n=4, k=4, m=6):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return model_basis(2 * k, coef.tolist())


def test_dimensions_paper_examples():
    assert dimensions(2, 2, 1) == (4, 3)
    assert dimensions(3, 5, 4) == (22, 18)
    with pytest.raises(HypothesisViolated):
        dimensions(2, 2, 3)
    with pytest.raises(DomainError):
        dimensions(1, 2, 1)


@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 200))
@settings(max_examples=100)
def test_dimensions_formula_exact(g, k, d):
    if (k - 1) * (2 * g - 1) <= d:
        with pytest.raises(HypothesisViolated):
            dimensions(g, k, d)
    else:
        n, r = dimensions(g, k, d)
        assert n == (2 * k - 1) * (g - 1) + k - 1
        assert r == n - d


def test_divisor_validation():
    z = UhpPoint(0.0, 1.0)
    with pytest.raises(DomainError):
        Divisor(points=())
    with pytest.raises(DomainError):
        Divisor(points=((z, 0),))
    with pytest.raises(DomainError):
        Divisor.simple([z, z])
    assert Divisor(points=((z, 2),)).degree == 2


def test_vanishing_subspace_monomial_oracle():
    # basis q, q^2, q^3: kernel of (t, t^2, t^3) has dimension 2
    basis = model_basis(8, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z0 = UhpPoint(0.1, 0.8)
    frame = vanishing_subspace(basis, Divisor.simple([z0]))
    assert frame.rank == 2
    t = np.exp(2j * math.pi * complex(z0.x, z0.y))
    row = np.array([t, t ** 2, t ** 3])
    assert np.max(np.abs(row @ frame.coefficients)) < 1e-10


def test_single_form_generic_point_empty_kernel():
    basis = model_basis(8, [[1.0, 0.5]])
    frame = vanishing_subspace(basis, Divisor.simple([UhpPoint(0.1, 0.9)]))
    assert frame.rank == 0


def test_multiplicity_two_drops_two_dimensions():
    basis = random_basis(1, n=4)
    frame = vanishing_subspace(
        basis, Divisor(points=((UhpPoint(0.1, 0.9), 2),)))
    assert frame.rank == 2


def test_rank_dimension_against_null_space():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, min(n, 5)))
        basis = random_basis(int(rng.integers(0, 1 << 30)), n=n, m=8)
        zs = [UhpPoint(float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(0.6, 1.5))) for _ in range(d)]
        ev = evaluation_matrix(basis, Divisor.simple(zs))
        sv = np.linalg.svd(ev / np.max(np.abs(ev)), compute_uv=False)
        # skip instances where a singular value sits near the rank
        # cutoff; both routes would depend on tie-breaking there
        if np.any((sv > 1e-12) & (sv < 1e-8)):
            continue
        frame = vanishing_subspace(basis, Divisor.simple(zs))
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert frame.rank == n - rank
        # columns orthonormal
        gram = frame.coefficients.conj().T @ frame.coefficients
        assert np.max(np.abs(gram - np.eye(frame.rank))) < 1e-10


@pytest.mark.filterwarnings("ignore::bergman.symprod.DegenerateDivisor")
def test_vanishing_frame_matches_null_space():
    # high q-powers make some draws numerically rank-deficient, so the
    # comparison covers kernels larger than n - d as well
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        basis = random_basis(int(rng.integers(0, 1 << 30)), n=n, m=8)
        zs = [UhpPoint(float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(0.6, 1.5))) for _ in range(d)]
        divisor = Divisor.simple(zs)
        ev = evaluation_matrix(basis, divisor)
        ref = null_space(ev / np.max(np.abs(ev)), rcond=1e-10)
        frame = vanishing_subspace(basis, divisor).coefficients
        assert frame.shape == ref.shape
        assert np.max(np.abs(frame - ref), initial=0.0) < 1e-14


def test_degenerate_divisor_warns():
    # two forms proportional on evaluation: duplicate column pattern
    basis = model_basis(8, [[1, 0], [0, 1], [0, 0]])
    # third basis form is zero only with zero coefficients -> instead
    # use two conditions at points giving dependent rows
    z = UhpPoint(0.1, 0.9)
    w = UhpPoint(z.x + 1.0, z.y)  # q(z) = q(w): identical evaluation rows
    with pytest.warns(DegenerateDivisor):
        frame = vanishing_subspace(basis, Divisor.simple([z, w]))
    assert frame.rank == 2  # kernel larger than n - d = 1


def test_subspace_kernel_contraction_and_vanishing():
    basis = random_basis(2)
    z0, z1 = UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.3)
    zq = UhpPoint(0.3, 1.1)
    f1 = vanishing_subspace(basis, Divisor.simple([z0]))
    f2 = vanishing_subspace(basis, Divisor.simple([z0, z1]))
    full = bergman_from_basis(basis, zq)
    v1 = subspace_kernel_diagonal(f1, basis, zq, 4)
    v2 = subspace_kernel_diagonal(f2, basis, zq, 4)
    assert full >= v1 >= v2 >= 0
    # vanishing at the divisor point itself
    at_d = subspace_kernel_diagonal(f1, basis, z0, 4)
    assert at_d < 1e-20 * max(full, 1e-30)
    # empty divisor (full frame) reproduces the basis kernel
    assert subspace_kernel_diagonal(full_frame(basis), basis, zq, 4) == \
        pytest.approx(full, rel=1e-12)


def test_schur_telescoping_identity():
    basis = random_basis(3)
    zs = [UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4), UhpPoint(0.3, 1.1)]
    phi = nested_log_potential(basis, zs)
    logdet = math.log(abs(np.linalg.det(two_point_gram(basis, zs))))
    # the Gram determinant is ~e^-73; agreement of the logs to 1e-3 is
    # the numerically meaningful form of the telescoping identity
    assert phi == pytest.approx(logdet, abs=1e-3)
    # the closed-form route's factor: M = R_1^H R_1
    _, r1 = _covector_qr(basis, zs)
    assert phi == pytest.approx(2 * np.sum(np.log(np.abs(np.diag(r1)))),
                                abs=1e-3)


def test_fs_d1_matches_metric_ratio():
    basis = random_basis(4)
    z = UhpPoint(0.12, 0.95)
    sample = fs_form_formula(basis, [z], 4)
    src = BasisSource(basis)
    ratio = bergman_metric_ratio(kernel_derivatives(src, z, 4), z, 4).ratio
    assert sample.fs_volume_ratio == pytest.approx(ratio, rel=1e-4)
    assert sample.per_factor_ratios[0] == pytest.approx(ratio, rel=1e-4)


def test_fs_two_route_equality_d1_and_d2():
    basis = random_basis(5)
    z1, z2 = UhpPoint(0.1, 0.9), UhpPoint(-0.25, 1.35)
    a1 = fs_form_formula(basis, [z1], 4)
    b1 = fs_form_direct_oracle(basis, [z1], 4)
    assert b1.fs_volume_ratio == pytest.approx(a1.fs_volume_ratio, rel=1e-8)
    a2 = fs_form_formula(basis, [z1, z2], 4)
    b2 = fs_form_direct_oracle(basis, [z1, z2], 4)
    assert b2.fs_volume_ratio == pytest.approx(a2.fs_volume_ratio, rel=1e-8)
    assert np.max(np.abs(a2.hermitian_form - b2.hermitian_form)) < 1e-9


def test_fs_permutation_invariance():
    basis = random_basis(6)
    zs = [UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4)]
    a = fs_form_formula(basis, zs, 4).fs_volume_ratio
    b = fs_form_formula(basis, zs[::-1], 4).fs_volume_ratio
    assert b == pytest.approx(a, rel=1e-12)


def test_fs_full_rank_tuple_is_flat():
    # n = d: det V is holomorphic, so log det M = log |det V|^2 is
    # pluriharmonic and only the k-term remains, (k/2pi)^d exactly;
    # heights from a benchmark tuple on which the stencil route failed
    zs = [UhpPoint(0.229523, 1.57301), UhpPoint(0.317285, 0.977214),
          UhpPoint(-0.093446, 0.623858)]
    k = 18
    for seed in range(20):
        basis = random_basis(seed, n=3, k=k)
        ratio = fs_form_formula(basis, zs, k).fs_volume_ratio
        assert ratio == pytest.approx((k / (2 * math.pi)) ** 3, rel=1e-12)


def test_fs_near_diagonal_guard():
    basis = random_basis(7)
    z = UhpPoint(0.1, 0.9)
    with pytest.raises(NearDiagonal):
        fs_form_formula(basis, [z, UhpPoint(z.x + 1e-5, z.y)], 4)


def test_fs_degenerate_fallback_flagged():
    basis = model_basis(8, [[1.0, 0.3]])  # n = 1 < d = 2
    zs = [UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4)]
    s = fs_form_formula(basis, zs, 4)
    assert s.degenerate
    assert s.fs_volume_ratio == pytest.approx(
        math.prod(s.per_factor_ratios), rel=1e-12)


def test_ma_asymptotic_check():
    rng = np.random.default_rng(23)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))

    def basis_by_k(k):
        return model_basis(2 * k, coef.tolist())

    divisor = Divisor.simple([UhpPoint(0.1, 0.9)])
    rows, slope, bounded = ma_asymptotic_check(
        basis_by_k, divisor, UhpPoint(0.3, 1.1), [6, 8, 10, 12])
    assert len(rows) == 4
    assert bounded
    with pytest.raises(DomainError):
        ma_asymptotic_check(basis_by_k, divisor, UhpPoint(0.3, 1.1), [6, 8])


def test_ma_closed_form_projection_oracle():
    # one condition at z0: the deficit is the squared projection of the
    # evaluation covector, |B(z, z0bar)|^2 / B(z0, z0bar)
    basis = random_basis(8)
    z0, z = UhpPoint(0.15, 1.0), UhpPoint(-0.3, 1.2)
    k = 4
    frame = vanishing_subspace(basis, Divisor.simple([z0]))
    sub = subspace_kernel_diagonal(frame, basis, z, k)
    full = bergman_from_basis(basis, z)
    v0 = basis.values(z0)
    vz = basis.values(z)
    cross = complex(np.sum(vz * v0.conj()))
    deficit = z.y ** (2 * k) * abs(cross) ** 2 / float(
        np.real(np.vdot(v0, v0)))
    assert full - sub == pytest.approx(deficit, rel=1e-10)


def test_volume_scan_separable_factorizes():
    basis = random_basis(9)

    def basis_by_k(k):
        return basis

    pts = [UhpPoint(x, y) for x in (-0.2, 0.15) for y in (0.8, 1.3)]
    tuples = [(p, q) for p in pts for q in pts]
    _, summ = volume_ratio_scan(basis_by_k, tuples, [4], separable=True)
    singles, _ = volume_ratio_scan(basis_by_k, [(p,) for p in pts], [4])
    sup1 = max(r.ratio_over_k2d for r in singles)
    assert summ[0].sup_ratio_over_k2d == pytest.approx(sup1 ** 2, rel=1e-8)
    assert summ[0].limit == pytest.approx(RATIO_LIMIT ** 2)


def test_volume_scan_reports_errors_inline():
    basis = random_basis(10)

    def basis_by_k(k):
        return basis

    z = UhpPoint(0.1, 0.9)
    rows, summ = volume_ratio_scan(basis_by_k, [(z, z), (z, UhpPoint(0.3, 1.2))],
                                   [4])
    assert rows[0].error is not None and "NearDiagonal" in rows[0].error
    assert rows[1].error is None
    assert summ[0].within_limit


def test_volume_scan_refuses_dependent_covectors():
    # two proportional forms: M is singular at every tuple
    basis = model_basis(8, [[1.0, 0.5], [2.0, 1.0]])

    def basis_by_k(k):
        return basis

    rows, summ = volume_ratio_scan(
        basis_by_k, [(UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4))], [4])
    assert math.isnan(rows[0].ratio)
    assert rows[0].error == \
        "DomainError: evaluation covectors nearly dependent"
    assert not summ[0].within_limit
