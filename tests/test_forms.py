import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc, gammaln, roots_legendre

from bergman.forms import (CuspFormBasis, GramSingular, QExpansionForm,
                           QuadratureDomain, _tail_gram,
                           GRAM_CHUNK,
                           basis_weight0_bundle, basis_weight0_grid,
                           clenshaw_curtis, delta_form, evaluate_q_expansion,
                           level_one_series, load_forms, model_basis,
                           modularity_defect, orthonormal_basis,
                           petersson_gram, q_powers, ramanujan_tau,
                           save_forms, scaled_upper_gamma, sliver_rule,
                           x_integrals)
from bergman.groups import modular_group
from bergman.uhp import DomainError, MoebiusTransform, UhpPoint
from gram_oracle import monomial_rows, tall_gram
from orbit_oracle import orbit_kernel_diagonal


def bergman_from_basis(basis, z):
    """Diagonal Petersson norm y^(2k) sum |f_j(z)|^2 of the basis kernel."""
    if not basis.forms:
        return 0.0
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    v = basis.values(z)
    return z.y ** basis.weight * float(np.sum(np.abs(v) ** 2))


def test_form_validation():
    with pytest.raises(DomainError, match="even integer >= 2"):
        QExpansionForm("f", 11, (1.0,))
    assert QExpansionForm("f", 2, (1.0,)).k == 1
    with pytest.raises(DomainError):
        QExpansionForm("f", 12, ())
    with pytest.raises(DomainError):
        QExpansionForm("f", 12, (math.nan,))


def test_ramanujan_tau_frozen():
    # classical table values, exact integers
    assert ramanujan_tau(6) == (1, -24, 252, -1472, 4830, -6048)
    assert ramanujan_tau(10)[9] == -115920


@pytest.mark.parametrize("weight", [12, 16, 18, 20, 22, 26],
                         ids=lambda w: f"weight{w}")
def test_tau_multiplicativity(weight):
    # S_weight is spanned by one monomial Delta E4^b E6^c, a normalized
    # Hecke eigenform: a(mn) = a(m) a(n) for coprime m, n and
    # a(p^2) = a(p)^2 - p^(weight-1)
    (row,) = monomial_rows(weight, 101)
    a = [0] + row
    assert a[1] == 1
    for m in range(2, 101):
        for n in range(m + 1, 100 // m + 1):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n]
    for p in (2, 3, 5, 7):
        assert a[p * p] == a[p] ** 2 - p ** (weight - 1)


def test_eisenstein_cube_minus_square_is_1728_delta():
    e4_cubed, e6_squared = (level_one_series(0, 3, 0, 200),
                            level_one_series(0, 0, 2, 200))
    delta = level_one_series(1, 0, 0, 200)
    assert [x - y for x, y in zip(e4_cubed, e6_squared)] == [
        1728 * t for t in delta]
    assert delta == [0] + list(ramanujan_tau(199))


def test_evaluation_against_direct_sum():
    form = QExpansionForm("f", 8, (1.0, -2.0, 0.5))
    z = UhpPoint(0.2, 0.9)
    q = cmath.exp(2j * math.pi * z.z)
    expected = q - 2 * q ** 2 + 0.5 * q ** 3
    assert cmath.isclose(evaluate_q_expansion(form, z), expected,
                         rel_tol=1e-14)
    d1 = (2j * math.pi) * (q - 4 * q ** 2 + 1.5 * q ** 3)
    assert cmath.isclose(evaluate_q_expansion(form, z, 1), d1, rel_tol=1e-13)


def evaluation_truncation_bound(form, z):
    """Geometric-tail bound on the omitted coefficients beyond M."""
    absq = math.exp(-2 * math.pi * z.y)
    a_last = abs(complex(form.coefficients[-1]))
    growth = 1.0 + (form.growth_exponent or 0.0)
    return a_last * absq ** (form.truncation_length + 1) / (1.0 - absq) * growth


@given(st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
@settings(max_examples=30)
def test_truncation_bound_dominates_refinement(x, y):
    # value from 150 coefficients vs 200: difference within the declared
    # geometric tail bound of the shorter truncation
    short = delta_form(150)
    long = delta_form(200)
    z = UhpPoint(x, y)
    diff = abs(evaluate_q_expansion(short, z) - evaluate_q_expansion(long, z))
    assert diff <= evaluation_truncation_bound(short, z) + 1e-300


def test_delta_modularity_defect_small():
    form = delta_form(200)
    z = UhpPoint(0.13, 1.02)
    for gamma in (MoebiusTransform.translation(1),
                  MoebiusTransform(0.0, -1.0, 1.0, 0.0)):
        scale = abs(evaluate_q_expansion(form, z))
        assert modularity_defect(form, gamma, z) < 1e-8 * max(scale, 1e-30)


def _three_form_basis():
    rng = np.random.default_rng(11)
    coef = rng.normal(size=(3, 60)) + 1j * rng.normal(size=(3, 60))
    return model_basis(12, coef.tolist(), orthonormal=False)


def _power_formula(basis, z, deriv_order=0):
    """Per-point reference: the coefficient matrix times q**m."""
    mat = np.zeros((basis.size, max(f.truncation_length for f in basis.forms)),
                   dtype=complex)
    for i, f in enumerate(basis.forms):
        mat[i, : f.truncation_length] = np.asarray(f.coefficients, dtype=complex)
    m = np.arange(1, mat.shape[1] + 1)
    powers = cmath.exp(2j * math.pi * z.z) ** m
    if deriv_order:
        powers = powers * (2j * math.pi * m) ** deriv_order
    return mat @ powers


@pytest.mark.parametrize("y", [0.4, 5.0])
@pytest.mark.parametrize("make", [lambda: CuspFormBasis(forms=[delta_form(200)]),
                                  _three_form_basis], ids=["delta", "three"])
def test_batched_evaluator_matches_power_formula(make, y):
    basis = make()
    zs = [UhpPoint(x, y) for x in np.linspace(-0.5, 0.5, 9)]
    for r in (0, 1):
        batch = basis.values(zs, deriv_order=r)
        assert batch.shape == (len(zs), basis.size)
        for z, row in zip(zs, batch):
            ref = _power_formula(basis, z, r)
            for got in (row, basis.values(z, deriv_order=r)):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_values_refuse_higher_derivatives():
    # values and first derivatives are all the evaluator sums
    basis = _three_form_basis()
    z = UhpPoint(0.1, 1.2)
    for order in (2, -1):
        with pytest.raises(DomainError, match="deriv_order"):
            basis.values(z, deriv_order=order)
        with pytest.raises(DomainError, match="deriv_order"):
            basis.values([z], deriv_order=order)


def _per_point_bundle(basis, z):
    """The per-point bundle the grid evaluation replaced: two
    evaluations at z, then B, dB/dz and d2B/dz dzbar."""
    v = basis.values(z)
    dv = basis.values(z, deriv_order=1)
    return (float(np.sum(np.abs(v) ** 2)), complex(np.sum(dv * v.conj())),
            float(np.sum(np.abs(dv) ** 2)))


@pytest.mark.parametrize("y", [0.4, 5.0])
@pytest.mark.parametrize("make", [lambda: CuspFormBasis(forms=[delta_form(200)]),
                                  _three_form_basis], ids=["delta", "three"])
def test_grid_bundle_matches_per_point_bundle(make, y):
    basis = make()
    # more points than one evaluation block
    zs = [UhpPoint(x, y) for x in np.linspace(-0.5, 0.5, GRAM_CHUNK + 44)]
    grid = basis_weight0_grid(basis, np.array([z.z for z in zs]))
    for i in range(0, len(zs), 17):
        ref = _per_point_bundle(basis, zs[i])
        for got, want in zip((g[i] for g in grid), ref):
            assert abs(got - want) <= 1e-13 * abs(want)
        assert basis_weight0_bundle(basis, zs[i]) == pytest.approx(
            ref, rel=1e-13)


EPS = np.finfo(float).eps


def _slow_basis():
    # coefficients growing like m^8: many terms matter at every height
    rng = np.random.default_rng(12)
    m = np.arange(1, 151)
    coef = (rng.normal(size=(2, 150)) + 1j * rng.normal(size=(2, 150)))
    coef *= m ** 8
    return model_basis(12, coef.tolist(), orthonormal=False)


CUT_BASES = [lambda: CuspFormBasis(forms=[delta_form(200)]),
             _three_form_basis, _slow_basis]


@pytest.mark.parametrize("make", CUT_BASES, ids=["delta", "three", "slow"])
def test_term_cut_within_rounding_of_the_full_sum(make):
    # the cut sum against every coefficient over the same q-powers:
    # within 2 EPS of sum_m |a_m| (2 pi m)^r |q|^m, for r = 0 and 1
    basis = make()
    mat = basis.coefficients
    m = np.arange(1, mat.shape[1] + 1)
    for y in np.geomspace(0.05, 6.0, 40):
        z = np.array([-0.37 + 1j * y, 0.21 + 1j * y])
        powers = q_powers(z, mat.shape[1])
        for r in (0, 1):
            coef = mat * basis.derivative_factors ** r
            full = powers @ coef.T
            scale = np.abs(mat) * (2 * math.pi * m) ** r @ np.exp(
                -2 * math.pi * y * m)
            cut = basis.jets(z[None])[r][0]
            assert np.all(np.abs(cut - full) <= 2 * EPS * scale)


@pytest.mark.parametrize("make", CUT_BASES, ids=["delta", "three", "slow"])
def test_term_count_full_near_the_real_line_and_nonincreasing(make):
    basis = make()
    m = basis.coefficients.shape[1]
    assert basis.term_counts([0.01]).tolist() == [m]
    counts = basis.term_counts(np.linspace(0.01, 8.0, 400))
    assert np.all(np.diff(counts) <= 0)
    assert counts[-1] < 5 and counts[0] == m


@pytest.mark.parametrize("make", CUT_BASES, ids=["delta", "three", "slow"])
def test_row_values_do_not_depend_on_batch_mates(make):
    # rows at heights 0.2..4 span many term counts and more than one
    # evaluation block; each row alone gives the same bits
    basis = make()
    rng = np.random.default_rng(8)
    pts = (rng.uniform(-0.5, 0.5, (300, 2))
           + 1j * rng.uniform(0.2, 4.0, (300, 2)))
    assert len(set(basis.term_counts(pts.imag.min(axis=1)).tolist())) >= 5
    v, dv = basis.jets(pts)
    grid = basis_weight0_grid(basis, pts[:, 0])
    for t in range(0, 300, 13):
        alone, dalone = basis.jets(pts[t:t + 1])
        assert np.array_equal(alone[0], v[t])
        assert np.array_equal(dalone[0], dv[t])
        row = [UhpPoint(p.real, p.imag) for p in pts[t]]
        assert np.array_equal(basis.values(row), v[t])
        assert np.array_equal(basis.values(row, 1), dv[t])
        one = basis_weight0_grid(basis, pts[t:t + 1, 0])
        assert all(np.array_equal(a[0], g[t]) for a, g in zip(one, grid))


def _node_accumulation(basis, cutoff, x_panels, y_panels, nodes):
    """Per-node reference Gram: one outer product per quadrature node."""
    k = basis.k
    xn, xw = roots_legendre(nodes)
    gram = np.zeros((basis.size, basis.size), dtype=complex)
    for px in range(x_panels):
        a = -0.5 + px / x_panels
        b = -0.5 + (px + 1) / x_panels
        xs = 0.5 * (b - a) * xn + 0.5 * (a + b)
        for x, wx in zip(xs, xw * 0.5 * (b - a)):
            ylo = math.sqrt(max(1.0 - x * x, 0.0))
            if ylo >= cutoff:
                continue
            for py in range(y_panels):
                ya = ylo + (cutoff - ylo) * py / y_panels
                yb = ylo + (cutoff - ylo) * (py + 1) / y_panels
                ys = 0.5 * (yb - ya) * xn + 0.5 * (ya + yb)
                for y, wy in zip(ys, xw * 0.5 * (yb - ya)):
                    v = _power_formula(basis, UhpPoint(x, y))
                    gram += np.outer(v, v.conj()) * (wx * wy * y ** (2 * k - 2))
    for m, col in enumerate(basis.coefficients.T, start=1):
        a = 4.0 * math.pi * m
        tail = (math.exp(gammaln(2 * k - 1) - (2 * k - 1) * math.log(a))
                * gammaincc(2 * k - 1, a * cutoff))
        gram += np.outer(col, col.conj()) * tail
    return gram


@pytest.mark.parametrize("rule", [dict(cutoff=1.0, x_panels=2, y_panels=3,
                                       nodes=6)], ids=["modular"])
@pytest.mark.parametrize("make", [lambda: CuspFormBasis(forms=[delta_form(200)]),
                                  _three_form_basis], ids=["delta", "three"])
def test_gram_contraction_matches_node_accumulation(make, rule):
    # the oracle's blocked contraction (tall_gram) against one outer
    # product per node, on a small rule
    basis = make()
    got = tall_gram(basis, **rule)
    ref = _node_accumulation(basis, **rule)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 16, 32])
def test_clenshaw_curtis_rule_is_exact_to_degree_n(n):
    x, w = clenshaw_curtis(n)
    assert np.array_equal(x, np.cos(np.pi * np.arange(n + 1) / n))
    assert np.all(w > 0)
    for p in range(n + 1):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(w @ x ** p - exact) <= 4 * EPS


def test_sliver_rule_nests_and_integrates_theta_powers():
    # the check rule is the rule on n/2 intervals at the even-indexed
    # nodes, bit for bit; both integrate theta^p over [0, pi/6] exactly
    # up to their degree
    domain = QuadratureDomain()
    n = domain.intervals
    theta, (fine, coarse) = sliver_rule(domain)
    x, w = clenshaw_curtis(n // 2)
    half = math.pi / 12.0
    assert np.array_equal(theta[::2], half * (1.0 + x))
    assert np.array_equal(coarse[::2], half * w) and not coarse[1::2].any()
    assert theta[-1] == 0.0 and theta[0] == math.pi / 6.0
    for rule, degree in ((fine, n), (coarse, n // 2)):
        for p in range(degree + 1):
            exact = (math.pi / 6.0) ** (p + 1) / (p + 1)
            assert abs(rule @ theta ** p - exact) <= 1e-14 * exact


def test_x_integrals_match_direct_integration():
    # c_j(s), the integral of e^(2 pi i j x) over s <= |x| <= 1/2,
    # against 30-digit quadrature of 2 cos(2 pi j x) over [s, 1/2]
    s = np.array([0.0, 0.1, 0.37, 0.5])
    got = x_integrals(s, 12)
    with mpmath.workdps(30):
        for si, row in zip(s.tolist(), got):
            for j, c in enumerate(row.tolist()):
                ref = 2 * mpmath.quad(lambda x: mpmath.cos(2 * mpmath.pi * j * x),
                                      [si, 0.5])
                assert abs(c - ref) <= 2 * EPS


@pytest.mark.parametrize("k", [2, 6, 18, 30])
def test_closed_form_tail_matches_mpmath(k):
    # Gamma(s, x) / x^s, s = 2k - 1, against 40-digit incomplete gammas:
    # 1e-13 relative in the normal range, exactly 0 where it underflows
    s = 2 * k - 1
    xs = np.geomspace(1e-3, 3000.0, 121)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scaled_upper_gamma(s, xs)
    assert not np.any(np.isnan(got))
    normal = underflow = 0
    with mpmath.workdps(40):
        for x, g in zip(xs, got):
            ref = mpmath.gammainc(s, mpmath.mpf(x)) / mpmath.mpf(x) ** s
            if ref >= 2.0 ** -1022:
                normal += 1
                assert abs(g - ref) <= 1e-13 * ref
            elif ref < mpmath.mpf(2) ** -1075:  # rounds to 0.0
                underflow += 1
                assert g == 0.0
            else:
                assert abs(g - ref) <= 2.0 ** -1070
    assert normal > 80 and underflow > 10


def test_tail_gram_is_the_integral_above_the_cutoff():
    # entry (i, j): sum_m a_im conj(a_jm) Gamma(s, 4 pi m cutoff)
    # / (4 pi m)^s, summed in 40 digits
    basis = _three_form_basis()
    for cutoff in (1.0, 4.0):
        got = _tail_gram(basis, cutoff)
        s = 2 * basis.k - 1
        with mpmath.workdps(40):
            w = [mpmath.gammainc(s, 4 * mpmath.pi * m * cutoff)
                 / (4 * mpmath.pi * m) ** s
                 for m in range(1, basis.coefficients.shape[1] + 1)]
            ref = np.array([[complex(mpmath.fsum(
                mpmath.mpc(a) * mpmath.mpc(b).conjugate() * wm
                for a, b, wm in zip(row_i, row_j, w)))
                for row_j in basis.coefficients]
                for row_i in basis.coefficients])
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _monomial_basis(weight):
    return model_basis(weight, monomial_rows(weight), orthonormal=False)


@pytest.mark.parametrize("make", [
    lambda: CuspFormBasis(forms=[delta_form(200)]), _three_form_basis,
    lambda: _monomial_basis(24), lambda: _monomial_basis(48),
    lambda: _monomial_basis(96)],
    ids=["delta", "three", "weight24", "weight48", "weight96"])
def test_arc_gram_matches_tall_domain(make):
    # the sliver rule and the exact tail above y = 1 against the 2-D
    # Gauss-Legendre rule up to y = 4 on 4 x 8 panels of 16 nodes, each
    # entry relative to sqrt(G_ii G_jj)
    basis = make()
    gram = petersson_gram(basis, QuadratureDomain())
    ref = tall_gram(basis)
    d = np.sqrt(np.diag(ref).real)
    assert np.max(np.abs(gram - ref) / np.outer(d, d)) <= 1e-14
    assert basis.gram is gram and 0.0 <= basis.gram_change <= 1e-10


def test_empty_basis_evaluates():
    basis = CuspFormBasis(forms=[])
    z = UhpPoint(0.1, 1.2)
    assert basis.values(z).shape == (0,)
    assert basis.values([z, z], deriv_order=1).shape == (2, 0)
    assert bergman_from_basis(basis, z) == 0.0
    assert basis_weight0_bundle(basis, z) == (0.0, 0j, 0.0)


def test_mixed_weight_basis_rejected():
    f1 = QExpansionForm("a", 12, (1.0,))
    f2 = QExpansionForm("b", 16, (1.0,))
    with pytest.raises(DomainError):
        CuspFormBasis(forms=[f1, f2])


def test_petersson_norm_of_delta_frozen():
    raw = CuspFormBasis(forms=[delta_form(200)])
    gram = petersson_gram(raw, QuadratureDomain())
    # frozen quadrature oracle for <Delta, Delta> over the modular domain
    assert gram[0, 0].real == pytest.approx(1.0353620568043e-6, rel=1e-12)
    assert abs(gram[0, 0].imag) < 1e-18


def test_gram_hermitian_and_positive():
    rng = np.random.default_rng(5)
    coef = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    raw = CuspFormBasis(forms=model_basis(12, coef.tolist(),
                                          orthonormal=False).forms)
    gram = petersson_gram(raw, QuadratureDomain())
    assert np.allclose(gram, gram.conj().T)
    assert np.all(np.linalg.eigvalsh(gram) > 0)


def _random_basis():
    rng = np.random.default_rng(6)
    coef = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    return model_basis(12, coef.tolist(), orthonormal=False)


@pytest.mark.parametrize("make, tol", [
    (_random_basis, 1e-4), (lambda: _monomial_basis(48), 1e-14),
    (lambda: _monomial_basis(96), 1e-14),
    (lambda: _monomial_basis(172), 1e-14)],
    ids=["random", "weight48", "weight96", "weight172"])
def test_orthonormalization_round_trip(make, tol):
    # the exact monomial bases' Grams have eigenvalue ratios of 2e-29,
    # 9e-87 and 4e-197, but those of their diagonal-scaled Grams are
    # above 0.01: the scaled gate accepts them and their Cholesky
    # factors are accurate
    raw = make()
    domain = QuadratureDomain()
    raw.gram = petersson_gram(raw, domain)
    onb = orthonormal_basis(raw)
    regram = petersson_gram(onb, domain)
    # quadrature error is amplified by the Gram condition number
    assert np.max(np.abs(regram - np.eye(raw.size))) < tol


def test_first_coefficient_mass():
    # sum |a_(j,1)|^2 over an orthonormalized basis, the leading term that
    # verify --suite prop9 checks before it runs
    basis = model_basis(12, [[1.0, 2.0], [0.0, 1.0]])
    assert basis.orthonormal_flag
    mass = float(np.sum(np.abs(basis.coefficients[:, 0]) ** 2))
    assert mass == pytest.approx(1.0)
    assert not model_basis(12, [[0.0, 1.0]]).coefficients[:, 0].any()


def test_orthonormalization_rejects_singular_gram():
    basis = model_basis(12, [[1.0, 0.0], [1.0, 0.0]], orthonormal=False)
    basis.gram = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(GramSingular):
        orthonormal_basis(basis)


def test_kernel_routes_agree_for_modular_group():
    # basis route vs Poincare route at weight 12 (one-dimensional space)
    raw = CuspFormBasis(forms=[delta_form(200)])
    raw.gram = petersson_gram(raw, QuadratureDomain())
    onb = orthonormal_basis(raw)
    group = modular_group()
    for z in (UhpPoint(0.0, 1.0), UhpPoint(0.31, 0.97)):
        direct = bergman_from_basis(onb, z)
        series = orbit_kernel_diagonal(group, z, 6, displacement_bound=300.0)
        assert series.value_diagonal == pytest.approx(direct, rel=1e-6)


def test_forms_io_round_trip(tmp_path):
    forms = [delta_form(50),
             QExpansionForm("c", 12, (1.0 + 2.0j, -0.5), growth_exponent=2.0)]
    path = tmp_path / "forms.jsonl"
    save_forms(forms, str(path))
    back = load_forms(str(path))
    assert len(back) == 2
    assert back[0].weight == 12
    assert back[1].coefficients == forms[1].coefficients
    assert back[1].growth_exponent == 2.0


def test_load_forms_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DomainError):
        load_forms(str(path))
