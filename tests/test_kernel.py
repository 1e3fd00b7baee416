import cmath
import importlib.util
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest

from bergman.forms import (CuspFormBasis, QuadratureDomain,
                           basis_weight0_bundle, delta_form, model_basis,
                           orthonormal_basis, petersson_gram, ramanujan_tau)
from bergman.groups import (CosetList, FuchsianGroup,
                            enumerate_group_elements, free_product_group,
                            modular_cosets, modular_group, translation_group,
                            walk_cosets)
from bergman.fourier import (TABLE_SIZE, _pair_tails, _table_scale,
                             fourier_bundles, load_fourier_table)
from bergman.kernel import (EPS, NORM_CAP, TWO_PI, _lipschitz_majorant,
                            _log_weights, _series_length, _series_tail,
                            accurate_sum, bergman_kernel_diagonal,
                            coset_norm_bound, coset_tail_sum,
                            cx_constant, gamma_ratio, identity_term,
                            parabolic_term_bound, poincare_weight0_bundle)
from bergman.metric import PoincareSource
from bergman.uhp import (DomainError, MoebiusTransform, UhpPoint,
                         apply_moebius, hyp_distance)
from gram_oracle import monomial_rows
from orbit_oracle import orbit_kernel_diagonal, orbit_rows, term_log_phase

# the generator of the stored Fourier tables, which computes them
_spec = importlib.util.spec_from_file_location(
    "make_fourier_tables", pathlib.Path(__file__).resolve().parents[1]
    / "scripts" / "make_fourier_tables.py")
tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tables)


def term_value(gamma, z, k):
    """Full series term (2k-1)/(4 pi) * u^(2k) for one group element."""
    lg, ph = term_log_phase(gamma, z, k)
    return identity_term(k) * cmath.exp(complex(lg, ph))


def test_identity_term_values():
    assert identity_term(6) == pytest.approx(11 / (4 * math.pi), rel=1e-15)
    with pytest.raises(DomainError):
        identity_term(1)


def test_gamma_ratio_frozen_oracles():
    # closed forms: Gamma(3/2)/Gamma(2) = sqrt(pi)/2,
    # Gamma(5/2)/Gamma(3) = 3 sqrt(pi)/8; large-k value recomputed
    # independently from the log-gamma series
    assert gamma_ratio(2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert gamma_ratio(3) == pytest.approx(3 * math.sqrt(math.pi) / 8,
                                           rel=1e-13)
    assert gamma_ratio(100) == pytest.approx(0.10037696342976983, rel=1e-12)


def test_gamma_functions_match_mpmath():
    # the exact binomial quotient and the per-element log-gamma against
    # 40-digit log-gammas
    with mpmath.workdps(40):
        for k in (2, 3, 6, 18, 30, 61, 100, 500):
            ref = mpmath.exp(mpmath.loggamma(k - mpmath.mpf(1) / 2)
                             - mpmath.loggamma(k))
            assert abs(gamma_ratio(k) - ref) <= 1e-14 * ref
        s = np.array([2, 3, 12, 13, 14, 36, 37, 38, 60, 61, 62])
        m = np.array([1.0, 2.0, 7.0, 40.0])
        got = _log_weights(s[None, :], m[:, None])
        assert got.shape == (len(m), len(s))
        for i, mi in enumerate(m):
            for j, sj in enumerate(s):
                ref = (sj * mpmath.log(2 * mpmath.pi)
                       + (sj - 1) * mpmath.log(mi) - mpmath.loggamma(sj))
                assert abs(got[i, j] - ref) <= 1e-14 * abs(ref)
        assert _log_weights(12, 1.0) == got[0, 2]


def test_gamma_ratio_scaling():
    # ~ 1/sqrt(k): ratio * sqrt(k) approaches 1
    assert gamma_ratio(10_000) * math.sqrt(10_000) == pytest.approx(1.0,
                                                                    abs=1e-4)


def test_parabolic_term_bound_frozen():
    # y = 1, k = 3: 5/sqrt(pi) * 3 sqrt(pi)/8 = 15/8
    assert parabolic_term_bound(1.0, 3) == pytest.approx(15 / 8, rel=1e-13)
    with pytest.raises(DomainError):
        parabolic_term_bound(-1.0, 3)
    with pytest.raises(DomainError):
        parabolic_term_bound(1.0, 2)


def test_cx_constant_frozen_and_monotone():
    assert cx_constant(1.0, 3) == pytest.approx(26.70899296756098, rel=1e-12)
    # decreasing in k at fixed radius, zero at infinite radius
    assert cx_constant(1.0, 20) < cx_constant(1.0, 10)
    assert cx_constant(math.inf, 5) == 0.0
    with pytest.raises(DomainError):
        cx_constant(0.0, 3)


def test_term_magnitude_identity():
    # |term| * 4 pi / (2k-1) = cosh^{-2k}(d(z, gamma z)/2)
    rng = np.random.default_rng(11)
    group = modular_group()
    enum = enumerate_group_elements(group, UhpPoint(0.1, 1.0), 40.0)
    transforms = enum.transforms()
    for _ in range(200):
        g = transforms[rng.integers(0, len(transforms))]
        z = UhpPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 3.0)))
        k = int(rng.integers(2, 9))
        lhs = abs(term_value(g, z, k)) * 4 * math.pi / (2 * k - 1)
        d = hyp_distance(z, apply_moebius(g, z))
        rhs = math.cosh(d / 2) ** (-2 * k)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_identity_element_term_is_identity_coefficient():
    t = term_value(MoebiusTransform.identity(), UhpPoint(0.3, 0.7), 5)
    assert t == pytest.approx(identity_term(5), rel=1e-14)


def test_trivial_group_kernel_is_identity_term():
    ev = orbit_kernel_diagonal(FuchsianGroup("trivial", ()),
                               UhpPoint(0.2, 1.5), 4)
    assert ev.value_diagonal == ev.identity_part
    assert ev.value_diagonal - ev.identity_part == 0.0


def test_translation_group_alpha_within_parabolic_bound():
    group = translation_group()
    for k in (3, 6, 10):
        for y in (0.7, 1.0, 1.8, 2.5):
            ev = orbit_kernel_diagonal(group, UhpPoint(0.2, y), k,
                                       displacement_bound=400.0)
            assert ev.exhaustive
            alpha = ev.value_diagonal - ev.identity_part
            assert abs(alpha) <= parabolic_term_bound(y, k)
            assert abs(ev.rest_part) == 0.0


def test_modular_kernel_positive_and_real():
    for z in (UhpPoint(0.0, 1.0), UhpPoint(0.37, 0.81), UhpPoint(-0.2, 2.2)):
        ev = orbit_kernel_diagonal(modular_group(), z, 6,
                                   displacement_bound=200.0)
        assert ev.value_diagonal > 0
        assert ev.imag_residual < 1e-10 * ev.value_diagonal
        assert ev.tail_estimate < 1e-3


def test_kernel_invariance_under_group_action():
    # y^{2k} B is Gamma-invariant: compare z and gamma z
    group = modular_group()
    z = UhpPoint(0.21, 1.13)
    g = MoebiusTransform(0.0, -1.0, 1.0, 0.0) @ MoebiusTransform.translation(1)
    gz = apply_moebius(g, z)
    e1 = orbit_kernel_diagonal(group, z, 6, displacement_bound=300.0)
    e2 = orbit_kernel_diagonal(group, gz, 6, displacement_bound=300.0)
    assert e1.value_diagonal == pytest.approx(e2.value_diagonal, rel=1e-6)


def test_truncation_tail_decreases_with_bound():
    group = modular_group()
    z = UhpPoint(0.1, 1.0)
    tails = [orbit_kernel_diagonal(group, z, 6, displacement_bound=b)
             .tail_estimate for b in (30.0, 100.0, 300.0)]
    assert tails[0] > tails[1] > tails[2]


def test_value_converged_in_truncation_bound():
    group = modular_group()
    z = UhpPoint(0.1, 1.0)
    v1 = orbit_kernel_diagonal(group, z, 6, displacement_bound=100.0)
    v2 = orbit_kernel_diagonal(group, z, 6, displacement_bound=300.0)
    assert v1.value_diagonal == pytest.approx(v2.value_diagonal, rel=1e-6)


def bergman_kernel_offdiag(group, z, w, k, displacement_bound=100.0,
                           budget=200_000):
    """Two-point weight-0 kernel B_k(z, w), for symmetry checks.

    Truncation is driven by the orbit of w; the bound on d(w, gamma w)
    is inflated by d(z, w) so that all terms down to the requested
    displacement of gamma w from z are present.
    """
    d_target = 2.0 * math.acosh(math.sqrt(displacement_bound))
    d_infl = d_target + hyp_distance(z, w)
    bound = math.cosh(d_infl / 2.0) ** 2
    a, b, c, d = orbit_rows(enumerate_group_elements(group, w, bound,
                                                     budget=budget)).T
    coeff = (2 * k - 1) * (2j) ** (2 * k) / (4.0 * math.pi)
    den = c * w.z + d
    s = z.z - np.conj((a * w.z + b) / den)
    terms = 1.0 / (s ** (2 * k) * np.conj(den) ** (2 * k))
    return coeff * complex(math.fsum(terms.real), math.fsum(terms.imag))


def test_offdiag_hermitian_symmetry():
    group = modular_group()
    z, w = UhpPoint(0.1, 1.1), UhpPoint(-0.2, 0.9)
    bzw = bergman_kernel_offdiag(group, z, w, 6, displacement_bound=150.0)
    bwz = bergman_kernel_offdiag(group, w, z, 6, displacement_bound=150.0)
    assert cmath.isclose(bzw, bwz.conjugate(), rel_tol=1e-5)


def test_offdiag_reduces_to_diagonal():
    group = modular_group()
    z = UhpPoint(0.1, 1.1)
    diag = orbit_kernel_diagonal(group, z, 6, displacement_bound=200.0)
    off = bergman_kernel_offdiag(group, z, z, 6, displacement_bound=200.0)
    assert off.real * z.y ** 12 == pytest.approx(diag.value_diagonal,
                                                 rel=1e-6)


def _offdiag_loop(group, z, w, k, displacement_bound):
    # the per-element loop the vectorized evaluator replaced
    d_infl = (2.0 * math.acosh(math.sqrt(displacement_bound))
              + hyp_distance(z, w))
    enum = enumerate_group_elements(group, w, math.cosh(d_infl / 2.0) ** 2)
    total = 0j
    for gamma in enum.transforms():
        gw = apply_moebius(gamma, w)
        s = z.z - complex(gw.x, -gw.y)
        mu = (gamma.c * w.z + gamma.d).conjugate()
        total += 1.0 / (s ** (2 * k) * mu ** (2 * k))
    return (2 * k - 1) * (2j) ** (2 * k) / (4.0 * math.pi) * total


@pytest.mark.parametrize("z, w", [
    (UhpPoint(0.1, 1.1), UhpPoint(-0.2, 0.9)),
    (UhpPoint(0.45, 0.8), UhpPoint(0.3, 1.6)),
])
def test_offdiag_matches_element_loop(z, w):
    group = modular_group()
    got = bergman_kernel_offdiag(group, z, w, 6, displacement_bound=100.0)
    want = _offdiag_loop(group, z, w, 6, 100.0)
    assert cmath.isclose(got, want, rel_tol=1e-13)


def test_log_phase_representation_consistency():
    g = MoebiusTransform(1.0, 0.0, 2.0, 1.0)
    z = UhpPoint(0.4, 0.9)
    lg, ph = term_log_phase(g, z, 5)
    direct = term_value(g, z, 5)
    assert abs(direct) == pytest.approx(identity_term(5) * math.exp(lg),
                                        rel=1e-12)
    assert cmath.phase(direct) == pytest.approx(
        math.atan2(math.sin(ph), math.cos(ph)), abs=1e-10)


@pytest.fixture(scope="module")
def delta_basis():
    raw = CuspFormBasis(forms=[delta_form(200)])
    raw.gram = petersson_gram(raw, QuadratureDomain())
    return orthonormal_basis(raw)


def test_coset_route_matches_orbit_oracle_and_basis(delta_basis):
    group = modular_group()
    for z in (UhpPoint(0.0, 1.0), UhpPoint(0.5, math.sqrt(3) / 2),
              UhpPoint(0.31, 0.97), UhpPoint(-0.3, 2.0)):
        cosets = walk_cosets(group, z, coset_norm_bound(z.y, 6))
        value, d1, d2, errors = poincare_weight0_bundle(cosets, z, 6)
        orbit = orbit_kernel_diagonal(group, z, 6, displacement_bound=300.0)
        assert value * z.y ** 12 == pytest.approx(orbit.value_diagonal,
                                                  rel=1e-10)
        ref = basis_weight0_bundle(delta_basis, z)
        for got, want, err in zip((value, d1, d2), ref, errors):
            assert abs(got - want) <= 1e-10 * abs(want)
            assert err < 1e-10 * abs(want)


@pytest.mark.parametrize("group, z", [
    (modular_group(), UhpPoint(0.0, 1.0)),
    (free_product_group(), UhpPoint(0.1, 0.9)),
    (translation_group(), UhpPoint(0.2, 0.8)),
], ids=["modular", "free2", "translations"])
def test_kernel_split_matches_orbit_oracle(group, z):
    # the value and the Prop 3 split that ``kernel`` prints, against the
    # orbit's buckets, within the orbit's tail plus the coset bound
    cosets = PoincareSource(group, 6).cosets(z)
    ev = bergman_kernel_diagonal(cosets, z, 6)
    orbit = orbit_kernel_diagonal(group, z, 6)
    assert orbit.exhaustive and ev.terms_used == len(cosets)
    assert ev.tail_estimate < 1e-12 * ev.value_diagonal
    tol = orbit.tail_estimate + ev.tail_estimate
    assert ev.identity_part == orbit.identity_part
    assert abs(ev.value_diagonal - orbit.value_diagonal) <= tol
    assert abs(ev.parabolic_part - orbit.parabolic_part.real) <= tol
    assert abs(ev.rest_part - orbit.rest_part.real) <= tol


def test_lipschitz_sum_matches_translates():
    # the translation group is one coset; its closed-form sum equals
    # (2k-1)/(4 pi) sum_n (2iy / (2iy - n))^(2k), summed term by term in
    # 30-digit arithmetic (the terms cancel from 1 down to ~1e-4)
    for k in (4, 6, 10):
        for z in (UhpPoint(0.2, 0.7), UhpPoint(-0.4, 1.8)):
            cosets = walk_cosets(translation_group(), z,
                                 coset_norm_bound(z.y, k))
            assert len(cosets) == 1
            value, _, _, errors = poincare_weight0_bundle(cosets, z, k)
            with mpmath.workdps(30):
                iy2 = mpmath.mpc(0, 2 * z.y)
                direct = float(identity_term(k) * mpmath.fsum(
                    (iy2 / (iy2 - n)) ** (2 * k)
                    for n in range(-2000, 2001)).real)
            scale = z.y ** (2 * k)
            assert value * scale == pytest.approx(direct, rel=1e-13)
            assert abs(value * scale - direct) <= \
                errors[0] * scale + 1e-14 * direct


def test_coset_bundle_ignores_row_order_and_sign():
    # the walk lists cosets level by level with free signs; the sums
    # must not depend on either
    z, k = UhpPoint(0.314368, 2.3), 6
    cosets = walk_cosets(modular_group(), z, coset_norm_bound(z.y, k))
    rng = np.random.default_rng(7)
    rows = cosets.rows[rng.permutation(len(cosets))]
    rows *= rng.choice([-1.0, 1.0], size=len(rows))[:, None]
    shuffled = CosetList(base_point=z, norm_bound=cosets.norm_bound,
                         rows=rows)
    assert (poincare_weight0_bundle(shuffled, z, k)
            == poincare_weight0_bundle(cosets, z, k))


@pytest.mark.parametrize("k", [6, 8, 12])
def test_sieve_and_walk_give_equal_bundles(k):
    # the same coset set gives bit-identical sums whatever the listing's
    # order, signs and path: at the poincare-scan heights, on x = +-1/2,
    # at i and at rho, where Re(gamma z) sits on the strip's boundary
    rho = math.sqrt(3) / 2
    points = [UhpPoint(0.314368, y) for y in (0.6, 2.3, 4.0)] + [
        UhpPoint(0.5, 0.9), UhpPoint(-0.5, 0.9), UhpPoint(0.5, 2.3),
        UhpPoint(-0.5, 1.2), UhpPoint(0.0, 1.0), UhpPoint(-0.5, rho),
        UhpPoint(0.5, rho)]
    for z in points:
        bound = coset_norm_bound(z.y, k)
        sieve = modular_cosets(z, bound)
        walk = walk_cosets(modular_group(), z, bound)
        assert len(sieve) == len(walk)
        assert (poincare_weight0_bundle(sieve, z, k)
                == poincare_weight0_bundle(walk, z, k))


def test_lipschitz_majorant_closed_form_bounds_mpmath():
    # (2 pi)^s/(s-1)! Li_(1-s)(r), r = e^(-2 pi y), in 40 digits: the
    # closed form never falls below it and is raised by at most its
    # rounding bound; s = 122 runs without a RuntimeWarning
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {(s, y): _lipschitz_majorant(y, s)
                  for s in list(range(12, 123, 5)) + [13, 14, 122, 170]
                  for y in (0.3, 0.5, 0.6, math.sqrt(3) / 2, 1.0, 2.3, 4.0,
                            8.0)}
    with mpmath.workdps(40):
        for (s, y), got in values.items():
            r = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(y))
            ref = ((2 * mpmath.pi) ** s / mpmath.factorial(s - 1)
                   * mpmath.polylog(1 - s, r))
            assert got >= ref
            worst = max(worst, float(got / ref - 1))
    assert worst <= 1e-12
    # beyond s = 170, 1/(s-1)! leaves the normal doubles: refused
    assert _lipschitz_majorant(8.0, 170) > 0.0
    with pytest.raises(DomainError, match="s <= 170"):
        _lipschitz_majorant(8.0, 171)


def test_series_length_matches_term_by_term_search():
    # the blocked search returns the first term count the one-at-a-time
    # loop stops at, also past the first block of 64
    def loop(r, s):
        terms = 1
        while _series_tail(r, s, terms) > EPS * r:
            terms += 1
        return terms

    lengths = []
    for s in range(12, 35):
        for y in np.geomspace(0.03, 12.0, 9):
            r = math.exp(-2 * math.pi * y)
            lengths.append(_series_length(r, s))
            assert lengths[-1] == loop(r, s)
    assert min(lengths) == 1 and max(lengths) > 128


def _random_terms(rng, n):
    return rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))


def test_accurate_sum_ignores_order_and_is_odd():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 64, 1000, 4097):
        x = _random_terms(rng, n)
        total, bound = accurate_sum(x)
        for _ in range(5):
            assert accurate_sum(x[rng.permutation(n)]) == (total, bound)
        assert accurate_sum(-x) == (-total, bound)
    rows = np.stack([_random_terms(rng, 300) for _ in range(4)])
    totals, bounds = accurate_sum(rows)
    for row, total, bound in zip(rows, totals, bounds):
        assert accurate_sum(row) == (total, bound)
    assert np.all(np.array(accurate_sum(np.zeros((2, 0)))) == 0.0)


@pytest.mark.parametrize("case", ["cancel", "tiny", "mixed"])
def test_accurate_sum_within_bound_of_exact_sum(case):
    rng = np.random.default_rng({"cancel": 5, "tiny": 6, "mixed": 7}[case])
    if case == "tiny":
        x = np.array([1e16, 1.0, -1e16])
    else:
        x = (rng.standard_normal(10_000) if case == "cancel"
             else _random_terms(rng, 10_000))
        # shift one term so the sum is about 1e-12 of sum |x|
        with mpmath.workdps(60):
            excess = mpmath.fsum(map(mpmath.mpf, x))
        target = 1e-12 * float(np.sum(np.abs(x)))
        x[np.argmax(np.abs(x))] -= float(excess) - target
    with mpmath.workdps(60):
        exact = mpmath.fsum(map(mpmath.mpf, x))
        total, bound = accurate_sum(x)
        error = abs(mpmath.mpf(total) - exact)
    assert error <= bound
    if case == "tiny":
        assert total == 1.0
    else:
        assert float(abs(exact)) < 1e-11 * float(np.sum(np.abs(x)))
        # about one rounding of the sum, 1e12 times below sum |x|
        assert bound < 2 * EPS * abs(total)


@pytest.mark.parametrize("x, y, k, pinned", [
    (0.314368, 5.0, 6, (1.3197620332205077e-30, 8.292309421195704e-30,
                        2.0725300619710478e-29)),
    (0.1, 2.3, 8, (7.442938718449653e-21, 4.678306845479473e-20,
                   3.0723729279799655e-19)),
])
def test_coset_bundle_errors_match_pinned(x, y, k, pinned):
    # error bounds pinned from the bundle that summed by math.fsum; the
    # bound of the summation itself moves them by about 0.2% at most
    z = UhpPoint(x, y)
    cosets = walk_cosets(modular_group(), z, coset_norm_bound(y, k))
    errors = poincare_weight0_bundle(cosets, z, k)[3]
    for got, want in zip(errors, pinned):
        assert got == pytest.approx(want, rel=1e-2)


def dyadic_tail_sum(n, y, p):
    """The dyadic-shell bound on sum R^(-p) over the pairs with R > n.

    At most 2X/y + (1 + 1/y) sqrt(X) pairs (c >= 0, d) have
    R = |cz+d|^2 <= X; summed over the shells (2^j n, 2^(j+1) n].  Looser
    than ``coset_tail_sum`` and derived apart from it: the oracle for
    the part of a sum beyond what is counted.
    """
    return (4.0 / y * n ** (1 - p) / (1.0 - 2.0 ** (1 - p))
            + math.sqrt(2.0) * (1.0 + 1.0 / y) * n ** (0.5 - p)
            / (1.0 - 2.0 ** (0.5 - p)))


def pair_norms(z, m):
    """R = |cz+d|^2 of every integer pair c >= 1, d with R <= m."""
    c = np.arange(1.0, math.floor(math.sqrt(m) / z.y) + 1.0)
    # d in [-cx - r, -cx + r], r^2 = m - c^2 y^2, widened by one each
    # side for rounding; the norm test below decides
    half = np.sqrt(np.fmax(m - (c * z.y) ** 2, 0.0))
    lo = np.ceil(-c * z.x - half) - 1.0
    count = (np.floor(-c * z.x + half) + 2.0 - lo).astype(int)
    c = np.repeat(c, count)
    d = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(c))
    r = (c * z.x + d) ** 2 + (c * z.y) ** 2
    return r[r <= m]


@pytest.mark.parametrize("x", [0.0, 0.13, 0.5])
@pytest.mark.parametrize("y", [0.3, 0.6, 1.0, 2.3, 4.0, 7.0])
def test_coset_tail_sum_bounds_the_pair_sum(x, y):
    # the pairs with n < R <= 256 n summed one by one, the rest bounded
    # by the dyadic shells: together at least the whole sum beyond n
    z = UhpPoint(x, y)
    for n in (2.0, 10.0, 50.0, 300.0, 2000.0):
        m = 256.0 * n
        r = pair_norms(z, m)
        r = r[r > n]
        for p in (2, 3, 6, 8, 13):
            bound = coset_tail_sum(n, y, p)
            assert np.sum(r ** -p) + dyadic_tail_sum(m, y, p) <= bound
            assert bound <= dyadic_tail_sum(n, y, p)


@pytest.mark.parametrize("y", [0.3, 0.6, 1.0, 2.3, 4.0, 9.0, 20.0])
@pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 12, 24, 48])
def test_coset_norm_bound_is_the_smallest_that_meets_the_target(y, k):
    # the target of the docstring: EPS times the largest coset term,
    # over Lambda_2k(y); R^(-k) e^(-2 pi y/R) peaks at R = 2 pi y/k
    r_top = max(y * y, TWO_PI * y / k)
    target = EPS * max(
        _lipschitz_majorant(2.0 * y, 2 * k) / _lipschitz_majorant(y, 2 * k),
        r_top ** -k * math.exp(-TWO_PI * y / r_top))
    n = coset_norm_bound(y, k)
    assert 1.0 <= n <= NORM_CAP * y
    if n < NORM_CAP * y:
        assert coset_tail_sum(n, y, k) <= target
    if 1.0 < n < NORM_CAP * y:
        assert coset_tail_sum(n / 1.01, y, k) > target


@pytest.mark.parametrize("y, most", [(1.0, 3_800), (2.0, 4_650),
                                     (4.0, 7_800)])
def test_modular_coset_count_stays_small(y, most):
    # the smallest N list 3,738, 4,569 and 7,645 cosets; a looser tail
    # bound or N solve lists more
    z = UhpPoint(0.1, y)
    assert len(modular_cosets(z, coset_norm_bound(y, 6))) <= most


# ---------------------------------------------------------------------------
# The Fourier table of Petersson's formula


@pytest.mark.parametrize("nu", [3, 11, 15, 23, 47, 169])
def test_bessel_j_within_its_bound_of_mpmath(nu):
    # both branches: the series up to x^2 = 2(nu + 1) and the trapezoid
    # rule beyond, out to x = 4 pi 8 (c = 1, m = n = TABLE_SIZE) >> nu
    edge = math.sqrt(2.0 * (nu + 1))
    x = np.array([1e-3, 0.05, 0.3, 1.0, 2.5, edge * (1 - 1e-12),
                  edge * (1 + 1e-12), 0.9 * nu, nu, 1.1 * nu + 1.0, 4 * math.pi,
                  6 * math.pi * math.sqrt(2.0), 50.0, 4 * math.pi * TABLE_SIZE])
    got, err = tables.bessel_j(nu, x)
    assert got.shape == err.shape == x.shape
    with mpmath.workdps(40):
        for xi, gi, ei in zip(x.tolist(), got.tolist(), err.tolist()):
            exact = mpmath.besselj(nu, xi)
            assert abs(gi - exact) <= ei
            # the bound is a few hundred EPS at most, and relative
            # where the series applies
            assert ei <= 400 * EPS * max(1.0, xi / 4) * (
                abs(exact) if xi < edge else 1.0) + 1e-300


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12, 24, 85, 86])
def test_fourier_plan_height_is_the_least_step_meeting_its_target(k):
    # the target of the docstring, checked at Y_k and one step below
    plan = tables.fourier_plan(k)
    if k < 6 or k > 85:
        assert plan is None
        return
    height, moduli = plan
    assert 1 <= moduli <= 64
    lead, scale = _table_scale(k)

    def meets(y):
        top = EPS * lead * math.exp(-2 * TWO_PI * y)
        b, d1, d2 = (float(t) for t in _pair_tails(scale, k, TABLE_SIZE, y))
        return b <= top and d1 <= TWO_PI * top and d2 <= TWO_PI ** 2 * top

    assert height % tables.TABLE_HEIGHT_STEP == 0
    assert meets(height) and not meets(height - tables.TABLE_HEIGHT_STEP)
    assert all(meets(height + t) for t in (0.3, 1.0, 4.0, 20.0))


def test_plan_heights_of_the_scanned_weights():
    # k = 6 and 8 serve the benchmark's rows at y = 2.3 and 4 from the
    # table and keep z = i on the coset route
    assert tables.fourier_plan(6) == (1.125, 47)
    assert tables.fourier_plan(8) == (1.25, 13)
    assert tables.fourier_plan(12) == (1.375, 4)


def test_fourier_table_at_k6_is_tau_m_tau_n_over_delta_norm():
    # <Delta, Delta> from the code's own Gram, which matches the
    # literature value 1.03536205680432092e-6 to 1e-15
    raw = CuspFormBasis(forms=[delta_form(200)])
    norm = petersson_gram(raw, QuadratureDomain())[0, 0].real
    tau = np.array(ramanujan_tau(TABLE_SIZE), dtype=float)
    exact = np.outer(tau, tau) / norm
    c, e = tables.fourier_table(6)
    assert (np.abs(c - exact) <= e + 1e-13 * np.abs(exact)).all()
    assert c[0, 0] == pytest.approx(1 / norm, rel=1e-12)
    assert e[0, 0] <= 1e-13 * c[0, 0]


def test_fourier_table_at_k8_is_delta_e4_times_itself():
    # S_16 is spanned by Delta E_4, so c_mn = a(m) a(n) c_11 exactly
    (a,) = np.array(monomial_rows(16, TABLE_SIZE + 1), dtype=float)
    c, e = tables.fourier_table(8)
    outer = np.outer(a, a)
    assert (np.abs(c - c[0, 0] * outer) <= e + np.abs(outer) * e[0, 0]).all()
    raw = CuspFormBasis(forms=model_basis(16, [a.tolist()],
                                          orthonormal=False).forms)
    norm = petersson_gram(raw, QuadratureDomain())[0, 0].real
    assert c[0, 0] == pytest.approx(1 / norm, rel=1e-12)


def test_fourier_table_at_k12_is_the_orthonormal_basis_gram():
    # S_24 = <Delta E_4^3, Delta^2>: orthonormalized by the code's Gram,
    # c = A A^H over the orthonormal coefficient rows A
    raw = CuspFormBasis(forms=model_basis(24, monomial_rows(24, 40),
                                          orthonormal=False).forms)
    raw.gram = petersson_gram(raw, QuadratureDomain())
    rows = orthonormal_basis(raw).coefficients[:, :TABLE_SIZE]
    ref = (rows.T @ rows.conj()).real
    c, e = tables.fourier_table(12)
    assert (np.abs(c - ref) <= e + 1e-12 * np.abs(ref)).all()


@pytest.mark.parametrize("k, dim", [(6, 1), (8, 1), (12, 2), (14, 2)])
def test_fourier_table_rank_is_the_cusp_form_dimension(k, dim):
    # normalized to unit diagonal, the leading 4 x 4 block has dim S_2k
    # eigenvalues of order one and the rest within its error (Weyl)
    c, e = (v[:4, :4] for v in tables.fourier_table(k))
    d = np.sqrt(np.diag(c))
    rel = np.diag(e) / (d * d)
    noise = np.linalg.norm(e / np.outer(d, d)
                           + np.abs(c / np.outer(d, d))
                           * 0.5 * np.add.outer(rel, rel))
    eig = np.sort(np.abs(np.linalg.eigvalsh(c / np.outer(d, d))))[::-1]
    assert noise < 1e-2
    assert eig[dim - 1] > 0.5 and (eig[dim:] <= noise).all()


@pytest.mark.parametrize("k", [6, 8, 12])
def test_diagonal_bound_holds_for_the_table_and_for_delta(k):
    # c_mm <= K^2 m^(2k): on the table, and for Delta, c_mm =
    # tau(m)^2/<Delta, Delta>, far beyond it
    c, e = tables.fourier_table(k)
    _, scale = _table_scale(k)
    m = np.arange(1, TABLE_SIZE + 1)
    assert (np.diag(c) - np.diag(e) <= scale * m ** (2.0 * k)).all()
    if k == 6:
        tau = np.array(ramanujan_tau(200), dtype=float)
        m = np.arange(1, 201)
        assert (tau ** 2 / 1.0353620568043209e-6
                <= scale * m ** 12.0).all()


@pytest.mark.parametrize("y", [0.6, 1.125, 2.0, 4.0])
def test_pair_tails_bound_the_pairs_off_the_table_for_delta(y):
    # Delta's exact c_mn for m, n <= 60, against the tails beyond 8 x 8
    tau = np.array(ramanujan_tau(60), dtype=float)
    c = np.abs(np.outer(tau, tau)) / 1.0353620568043209e-6
    m = np.arange(1, 61, dtype=float)
    w = np.exp(-TWO_PI * y * np.add.outer(m, m))
    off = np.ones_like(c, dtype=bool)
    off[:TABLE_SIZE, :TABLE_SIZE] = False
    b, d1, d2 = _pair_tails(_table_scale(6)[1], 6, TABLE_SIZE, y)
    assert (c * w)[off].sum() <= b
    assert (TWO_PI * m[:, None] * c * w)[off].sum() <= d1
    assert (TWO_PI ** 2 * np.outer(m, m) * c * w)[off].sum() <= d2


@pytest.mark.parametrize("k", [6, 8, 12])
@pytest.mark.parametrize("y", [1.2, 2.3, 4.0])
def test_fourier_route_matches_coset_route_within_both_bounds(k, y):
    height, table = load_fourier_table(k)
    for x in (0.0, 0.314368, 0.5, -0.5):
        z = UhpPoint(x, y)
        value, dz, dzdzbar, errors = fourier_bundles(k, table,
                                                     np.array([z.z]))
        coset = poincare_weight0_bundle(
            modular_cosets(z, coset_norm_bound(y, k)), z, k)
        for got, want, e_got, e_want in zip(
                (value[0], dz[0], dzdzbar[0].real), coset[:3],
                errors[0].tolist(), coset[3]):
            assert abs(got - want) <= e_got + e_want
        # the bounds are tight where the table serves
        if y >= height:
            assert errors[0, 0] <= 1e-12 * value[0]


def test_fourier_row_depends_on_its_point_alone():
    table = load_fourier_table(6)[1]
    z = np.array([0.1 + 2.0j, -0.3 + 1.4j, 0.5 + 5.5j, 1.7 + 3.0j])
    together = fourier_bundles(6, table, z)
    for i in range(len(z)):
        alone = fourier_bundles(6, table, z[i:i + 1])
        for col, one in zip(together, alone):
            assert (col[i] == one[0]).all()
    # x reduced mod 1 exactly: 1.7 + 3i is 0.7 - 1 = -0.3 ... + 3i
    shifted = fourier_bundles(6, table, np.array([-0.3 + 3.0j]))
    assert shifted[0][0] == together[0][3]


@pytest.mark.parametrize("k", [6, 8, 12])
def test_fourier_move_term_covers_a_planted_move(k):
    # the bounds with delta cover B, dB and d2B at every point within
    # delta: moved by delta = 1e-6, far above rounding, the change in
    # each of the three stays within the move term plus both points'
    # own bounds, and the move term is not larger than 10 times it
    height, table = load_fourier_table(k)
    for z in (0.3 + 1j * height, -0.45 + 2.0j, 0.1 + 30.0j):
        delta = np.array([1e-6])
        base = fourier_bundles(k, table, np.array([z]))
        moved_bounds = fourier_bundles(k, table, np.array([z]), delta)[3][0]
        assert (moved_bounds >= base[3][0]).all()
        move = moved_bounds - base[3][0]
        worst = np.zeros(3)
        for angle in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            w = z + 1e-6 * cmath.exp(1j * angle)
            there = fourier_bundles(k, table, np.array([w]))
            change = np.abs([there[j][0] - base[j][0] for j in range(3)])
            assert (change <= move + base[3][0] + there[3][0]).all()
            worst = np.maximum(worst, change)
        assert (worst > 100 * base[3][0]).all()
        assert (move <= 10 * worst).all()
    # delta = 0 leaves the bounds as they are, bit for bit
    zero = fourier_bundles(k, table, np.array([0.2 + 2j]), np.zeros(1))[3]
    assert (zero == fourier_bundles(k, table, np.array([0.2 + 2j]))[3]).all()
