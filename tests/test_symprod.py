import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergman.forms import CuspFormBasis, model_basis
from bergman.metric import BasisSource, kernel_derivatives, ratio_parts
from scipy.linalg import null_space

from bergman.symprod import (DegenerateDivisor, HypothesisViolated,
                             NearDiagonal, RATIO_LIMIT,
                             _stacked_qr, dimensions,
                             fs_form_batch, fs_form_direct_oracle,
                             fs_form_formula,
                             nested_log_potential,
                             vanishing_subspace,
                             volume_ratio_scan)
from bergman.uhp import DomainError, UhpPoint, hyp_distance
from test_forms import bergman_from_basis


def full_frame(basis):
    """Identity frame (no vanishing conditions)."""
    return np.eye(basis.size, dtype=complex)


def subspace_kernel_diagonal(frame, basis, z, k):
    """Diagonal reproducing kernel y^(2k) ||.||^2 of the vanishing subspace."""
    vec = basis.values(z) @ frame
    return z.y ** (2 * k) * float(np.real(np.vdot(vec, vec)))


def stack(tuples):
    """The T x d complex array of a list of UhpPoint tuples."""
    return np.array([[z.z for z in zs] for zs in tuples], dtype=complex)


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
    # the points must be distinct and at least one
    basis = random_basis(1, n=4)
    z = UhpPoint(0.0, 1.0)
    with pytest.raises(DomainError, match="at least one point"):
        vanishing_subspace(basis, [])
    with pytest.raises(DomainError, match="distinct"):
        vanishing_subspace(basis, [z, z])
    assert vanishing_subspace(basis, [z]).shape == (4, 3)


def test_vanishing_subspace_monomial_oracle():
    # basis q, q^2, q^3: kernel of (t, t^2, t^3) has dimension 2
    basis = model_basis(8, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z0 = UhpPoint(0.1, 0.8)
    frame = vanishing_subspace(basis, [z0])
    assert frame.shape == (3, 2)
    t = np.exp(2j * math.pi * complex(z0.x, z0.y))
    row = np.array([t, t ** 2, t ** 3])
    assert np.max(np.abs(row @ frame)) < 1e-10


def test_single_form_generic_point_empty_kernel():
    basis = model_basis(8, [[1.0, 0.5]])
    frame = vanishing_subspace(basis, [UhpPoint(0.1, 0.9)])
    assert frame.shape == (1, 0)


def test_rank_dimension_against_null_space():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, min(n, 5)))
        basis = random_basis(int(rng.integers(0, 1 << 30)), n=n, m=8)
        zs = [UhpPoint(float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(0.6, 1.5))) for _ in range(d)]
        ev = basis.values(zs)
        sv = np.linalg.svd(ev / np.max(np.abs(ev)), compute_uv=False)
        # skip instances where a singular value sits near the rank
        # cutoff; both routes would depend on tie-breaking there
        if np.any((sv > 1e-12) & (sv < 1e-8)):
            continue
        frame = vanishing_subspace(basis, zs)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert frame.shape == (n, n - rank)
        # columns orthonormal
        gram = frame.conj().T @ frame
        assert np.max(np.abs(gram - np.eye(n - rank))) < 1e-10


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
        ev = basis.values(zs)
        ref = null_space(ev / np.max(np.abs(ev)), rcond=1e-10)
        frame = vanishing_subspace(basis, zs)
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
        frame = vanishing_subspace(basis, [z, w])
    assert frame.shape == (3, 2)  # kernel larger than n - d = 1


def test_subspace_kernel_contraction_and_vanishing():
    basis = random_basis(2)
    z0, z1 = UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.3)
    zq = UhpPoint(0.3, 1.1)
    f1 = vanishing_subspace(basis, [z0])
    f2 = vanishing_subspace(basis, [z0, z1])
    full = bergman_from_basis(basis, zq)
    v1 = subspace_kernel_diagonal(f1, basis, zq, 4)
    v2 = subspace_kernel_diagonal(f2, basis, zq, 4)
    assert full >= v1 >= v2 >= 0
    # vanishing at the divisor point itself
    at_d = subspace_kernel_diagonal(f1, basis, z0, 4)
    assert at_d < 1e-20 * max(full, 1e-30)
    # no conditions (the full frame) reproduces the basis kernel
    assert subspace_kernel_diagonal(full_frame(basis), basis, zq, 4) == \
        pytest.approx(full, rel=1e-12)


def test_schur_telescoping_identity():
    basis = random_basis(3)
    zs = [UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4), UhpPoint(0.3, 1.1)]
    phi = nested_log_potential(basis, zs)
    v = basis.values(zs)
    logdet = math.log(abs(np.linalg.det(v @ v.conj().T)))
    # the Gram determinant is ~e^-73; agreement of the logs to 1e-3 is
    # the numerically meaningful form of the telescoping identity
    assert phi == pytest.approx(logdet, abs=1e-3)
    # the closed-form route's factor: M = R_1^H R_1
    r1 = _stacked_qr(v[None])[1][0]
    assert phi == pytest.approx(2 * np.sum(np.log(np.abs(np.diag(r1)))),
                                abs=1e-3)


def test_fs_d1_matches_metric_ratio():
    basis = random_basis(4)
    z = UhpPoint(0.12, 0.95)
    sample = fs_form_formula(basis, [z], 4)
    src = BasisSource(basis)
    ratio = ratio_parts(kernel_derivatives(src, z), 4)[0]
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


def test_fs_empty_basis_refused():
    # with no forms the one-slot fallback would call itself forever
    basis = CuspFormBasis(forms=[], orthonormal_flag=True)
    for d in (1, 2):
        zs = [UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4)][:d]
        with pytest.raises(DomainError, match="no forms"):
            fs_form_formula(basis, zs, 4)
        with pytest.raises(DomainError, match="no forms"):
            fs_form_direct_oracle(basis, zs, 4)


def ma_asymptotic_check(basis_by_k, zs, z, k_list):
    """Table of (1/k)(||B^{k,-D}(z)|| - ||B^k(z)||) with a decay fit.

    ``basis_by_k(k)`` returns the orthonormal basis at weight 2k.  The
    boundedness flag asserts consistency with O(1/k) after division by
    k; the exponent comes from a log-log least-squares fit.
    """
    if len(k_list) < 3:
        raise DomainError("need at least 3 values of k")
    rows = []
    for k in k_list:
        basis = basis_by_k(k)
        frame = vanishing_subspace(basis, zs)
        sub = subspace_kernel_diagonal(frame, basis, z, k)
        full = bergman_from_basis(basis, z)
        rows.append((k, (sub - full) / k))
    mags = [abs(v) for _, v in rows]
    if all(m > 0 for m in mags):
        logs_k = np.log([k for k, _ in rows])
        logs_v = np.log(mags)
        slope = float(np.polyfit(logs_k, logs_v, 1)[0])
    else:
        slope = -math.inf
    bounded = max(mags) <= max(mags[0], 1.0) + 1e-12 or slope <= 0.0
    return rows, slope, bounded


def test_ma_asymptotic_check():
    rng = np.random.default_rng(23)
    coef = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))

    def basis_by_k(k):
        return model_basis(2 * k, coef.tolist())

    zs = [UhpPoint(0.1, 0.9)]
    rows, slope, bounded = ma_asymptotic_check(
        basis_by_k, zs, UhpPoint(0.3, 1.1), [6, 8, 10, 12])
    assert len(rows) == 4
    assert bounded
    with pytest.raises(DomainError):
        ma_asymptotic_check(basis_by_k, zs, UhpPoint(0.3, 1.1), [6, 8])


def test_ma_closed_form_projection_oracle():
    # one condition at z0: the deficit is the squared projection of the
    # evaluation covector, |B(z, z0bar)|^2 / B(z0, z0bar)
    basis = random_basis(8)
    z0, z = UhpPoint(0.15, 1.0), UhpPoint(-0.3, 1.2)
    k = 4
    frame = vanishing_subspace(basis, [z0])
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
    pts = [UhpPoint(x, y) for x in (-0.2, 0.15) for y in (0.8, 1.3)]
    tuples = [(p, q) for p in pts for q in pts]
    singles, _ = volume_ratio_scan(basis, stack([(p,) for p in pts]))
    one = dict(zip(pts, singles.ratio.tolist()))
    # the per-slot product model: one[p] one[q] / k^4 over the tuples
    sup_product = max(abs(one[p] * one[q]) / 4 ** 4 for p, q in tuples)
    sup1 = max(singles.ratio_over_k2d.tolist())
    assert sup_product == pytest.approx(sup1 ** 2, rel=1e-8)
    _, summ = volume_ratio_scan(basis, stack(tuples))
    assert summ.limit == pytest.approx(RATIO_LIMIT ** 2)


def test_volume_scan_reports_errors_inline():
    basis = random_basis(10)
    z = UhpPoint(0.1, 0.9)
    cols, summ = volume_ratio_scan(
        basis, stack([(z, z), (z, UhpPoint(0.3, 1.2))]))
    errors = cols.errors
    assert errors[0] is not None and "NearDiagonal" in errors[0]
    assert errors[1] is None
    assert summ.within_limit and summ.flagged == 1


def test_volume_scan_refuses_dependent_covectors():
    # two proportional forms: M is singular at every tuple
    basis = model_basis(8, [[1.0, 0.5], [2.0, 1.0]])
    cols, summ = volume_ratio_scan(
        basis, stack([(UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4))]))
    assert math.isnan(cols.ratio[0])
    assert cols.errors[0] == \
        "DomainError: evaluation covectors nearly dependent"
    assert not summ.within_limit


def per_tuple_formula(basis, zs, k):
    """The per-tuple closed form that the stacked route replaced: two
    evaluations, one QR, one inverse and one determinant per tuple.
    Returns the volume ratio, the per-factor ratios and the form G.
    Heights are squared as y * y, the product numpy's ``ys ** 2`` takes
    (Python's ``y ** 2`` is C pow, which can differ in the last bit)."""
    d = len(zs)
    q, r = np.linalg.qr(basis.values(zs).conj().T, mode="complete")
    w = basis.values(zs, deriv_order=1) @ q[:, d:]
    rinv = np.linalg.inv(r[:d])
    hess = (w @ w.conj().T) * (rinv @ rinv.conj().T).T
    g_mat = -hess / (2.0 * math.pi)
    for l, z in enumerate(zs):
        g_mat[l, l] += k / (4.0 * math.pi * (z.y * z.y))
    per_factor = [float(2.0 * (z.y * z.y) * g_mat[l, l].real)
                  for l, z in enumerate(zs)]
    volume = float(np.real(np.linalg.det(g_mat))) * math.prod(
        2.0 * (z.y * z.y) for z in zs)
    return volume, per_factor, g_mat


def random_tuples(rng, d, count):
    """Tuples in the sampling box whose points are pairwise apart."""
    out = []
    while len(out) < count:
        zs = [UhpPoint(float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(0.6, 1.8))) for _ in range(d)]
        if all(abs(a.z - b.z) > 0.1 for i, a in enumerate(zs)
               for b in zs[i + 1:]):
            out.append(zs)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_route_matches_per_tuple_route(d):
    rng = np.random.default_rng(40 + d)
    k = 6
    for seed in range(4):
        basis = random_basis(100 * d + seed, n=d + 2, k=k, m=8)
        tuples = random_tuples(rng, d, 25)
        cols = fs_form_batch(basis, stack(tuples), k)
        for t, zs in enumerate(tuples):
            volume, per_factor, g_mat = per_tuple_formula(basis, zs, k)
            assert not cols.degenerate and cols.refusals[t] is None
            assert fs_form_formula(basis, zs, k).route == "formula"
            assert cols.volume[t] == pytest.approx(volume, rel=1e-14)
            assert cols.per_factor[t].tolist() == pytest.approx(per_factor,
                                                                rel=1e-14)
            assert np.max(np.abs(cols.forms[t] - g_mat)) <= \
                1e-14 * np.max(np.abs(g_mat))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_route_full_rank_is_flat(d):
    rng = np.random.default_rng(50 + d)
    k = 18
    basis = random_basis(200 + d, n=d, k=k)
    for volume in fs_form_batch(basis, stack(random_tuples(rng, d, 20)),
                                k).volume:
        assert volume == pytest.approx((k / (2 * math.pi)) ** d, rel=1e-12)


def test_stacked_fallback_is_product_of_one_slot_ratios():
    rng = np.random.default_rng(61)
    k = 4
    basis = random_basis(300, n=2, k=k)  # n = 2 < d = 3
    tuples = random_tuples(rng, 3, 10)
    cols = fs_form_batch(basis, stack(tuples), k)
    for t, zs in enumerate(tuples):
        singles = [per_tuple_formula(basis, [z], k)[0] for z in zs]
        assert cols.degenerate and cols.refusals[t] is None
        assert cols.per_factor[t].tolist() == pytest.approx(singles, rel=1e-14)
        assert cols.volume[t] == pytest.approx(math.prod(singles), rel=1e-14)


def test_volume_scan_isolates_refused_tuples():
    basis = random_basis(11)
    z = UhpPoint(0.1, 0.9)
    good = [(UhpPoint(-0.2, 1.4), UhpPoint(0.3, 0.8)),
            (UhpPoint(0.05, 1.1), UhpPoint(-0.3, 0.7)),
            (UhpPoint(0.2, 1.6), UhpPoint(-0.1, 0.65))]
    # z + 1 has the same q as z: identical evaluation rows far apart;
    # at y = 200 every q-power underflows, so R_1 is exactly singular
    # and would make the stacked inverse raise for the whole batch
    tuples = [good[0], (z, z), good[1], (z, UhpPoint(z.x + 1.0, z.y)),
              good[2], (z, UhpPoint(0.0, 200.0)), good[0]]
    cols, summ = volume_ratio_scan(basis, stack(tuples))
    assert summ.flagged == 3
    assert cols.errors[1] == "NearDiagonal: min pairwise distance 0.00e+00"
    for i in (3, 5):
        assert cols.errors[i] == \
            "DomainError: evaluation covectors nearly dependent"
    for i, zs in zip(range(0, len(tuples), 2), good + [good[0]]):
        alone, _ = volume_ratio_scan(basis, stack([zs]))
        assert cols.errors[i] is None
        assert cols.ratio[i] == alone.ratio[0]
        assert cols.ratio_over_k2d[i] == alone.ratio_over_k2d[0]


def test_volume_scan_refuses_mixed_lengths():
    # tuples of mixed lengths make no T x d array: numpy holds them as
    # a one-dimensional array of objects, which the scan refuses
    basis = random_basis(12)
    tuples = [(UhpPoint(0.1, 0.9), UhpPoint(-0.2, 1.4)), (UhpPoint(0.0, 1.2),)]
    ragged = np.empty(len(tuples), dtype=object)
    ragged[:] = [tuple(z.z for z in zs) for zs in tuples]
    for pts in (ragged, stack(tuples[:1])[0]):
        with pytest.raises(DomainError, match="T x d array"):
            volume_ratio_scan(basis, pts)


def test_batch_guard_refuses_only_the_near_diagonal_tuple():
    # the guard runs over the whole batch at once; its message is the
    # per-pair hyp_distance's, and it is decided before dependence
    basis = random_basis(13, n=5)
    near = (UhpPoint(0.1, 0.9), UhpPoint(-0.3, 1.2), UhpPoint(-0.3, 1.2002))
    same = (UhpPoint(0.2, 1.1), UhpPoint(0.2, 1.1), UhpPoint(-0.1, 0.8))
    good = [(UhpPoint(-0.2, 1.4), UhpPoint(0.3, 0.8), UhpPoint(0.0, 1.9)),
            (UhpPoint(0.05, 1.1), UhpPoint(-0.3, 0.7), UhpPoint(0.4, 1.3))]
    out = fs_form_batch(basis, stack([good[0], near, good[1], same]), 4)
    assert isinstance(out.refusals[1], NearDiagonal)
    assert str(out.refusals[1]) == \
        f"min pairwise distance {hyp_distance(near[1], near[2]):.2e}"
    assert isinstance(out.refusals[3], NearDiagonal)
    assert str(out.refusals[3]) == "min pairwise distance 0.00e+00"
    for t, zs in zip((0, 2), good):
        alone = fs_form_formula(basis, zs, 4)
        assert out.volume[t] == alone.fs_volume_ratio
        assert np.array_equal(out.forms[t], alone.hermitian_form)
    with pytest.raises(NearDiagonal):
        fs_form_formula(basis, near, 4)


def _assert_row_is_formula_of_one(cols, t, basis, zs, k):
    """Row t of a batch equals fs_form_formula on its tuple, or both
    refuse it with the same exception."""
    if cols.refusals[t] is None:
        alone = fs_form_formula(basis, zs, k)
        assert cols.volume[t] == alone.fs_volume_ratio
        assert cols.per_factor[t].tolist() == alone.per_factor_ratios
        assert np.array_equal(cols.forms[t], alone.hermitian_form)
        assert alone.degenerate == cols.degenerate
        return
    with pytest.raises(type(cols.refusals[t])) as refused:
        fs_form_formula(basis, zs, k)
    assert str(refused.value) == str(cols.refusals[t])
    assert math.isnan(cols.volume[t])
    assert np.isnan(cols.per_factor[t]).all()
    assert np.isnan(cols.forms[t]).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_columns_equal_reference_routes(d):
    # the stacked columns are the per-tuple closed form and the batch of
    # one, bit for bit; refused rows hold NaN and refuse the same way
    rng = np.random.default_rng(70 + d)
    k = 6
    basis = random_basis(400 + d, n=d + 2, k=k, m=8)
    z = UhpPoint(0.1, 0.9)
    tuples = random_tuples(rng, d, 30)
    # y = 200 underflows every q-power: R_1 is exactly singular
    tuples.insert(3, [UhpPoint(0.0, 200.0)] + tuples[3][1:])
    if d > 1:
        tuples.insert(5, [z, z] + tuples[5][2:])  # near-diagonal
        # z + 1 has the same q as z: dependent covectors, far apart
        tuples.insert(7, [z, UhpPoint(z.x + 1.0, z.y)] + tuples[7][2:])
    cols = fs_form_batch(basis, stack(tuples), k)
    refused = {3: DomainError} if d == 1 else \
        {3: DomainError, 5: NearDiagonal, 7: DomainError}
    assert not cols.degenerate
    assert cols.volume.shape == (len(tuples),)
    assert cols.per_factor.shape == (len(tuples), d)
    assert cols.forms.shape == (len(tuples), d, d)
    for t, zs in enumerate(tuples):
        assert type(cols.refusals[t]) is refused.get(t, type(None))
        if cols.refusals[t] is None:
            volume, per_factor, g_mat = per_tuple_formula(basis, zs, k)
            assert cols.volume[t] == volume
            assert cols.per_factor[t].tolist() == per_factor
            assert np.array_equal(cols.forms[t], g_mat)
        _assert_row_is_formula_of_one(cols, t, basis, zs, k)


@pytest.mark.parametrize("d", [2, 3])
def test_fallback_columns_equal_reference_routes(d):
    # n < d: every row is the product of its one-slot closed forms
    rng = np.random.default_rng(80 + d)
    k = 6
    basis = random_basis(500 + d, n=d - 1, k=k, m=8)
    z = UhpPoint(0.1, 0.9)
    tuples = random_tuples(rng, d, 20)
    tuples.insert(2, [z, z] + tuples[2][2:])                  # near-diagonal
    tuples.insert(4, tuples[4][:-1] + [UhpPoint(0.0, 200.0)])  # one slot refused
    cols = fs_form_batch(basis, stack(tuples), k)
    assert cols.degenerate
    assert isinstance(cols.refusals[2], NearDiagonal)
    assert str(cols.refusals[4]) == "evaluation covectors nearly dependent"
    for t, zs in enumerate(tuples):
        if t not in (2, 4):
            singles = [per_tuple_formula(basis, [p], k)[0] for p in zs]
            assert cols.refusals[t] is None
            assert cols.per_factor[t].tolist() == singles
            assert cols.volume[t] == math.prod(singles)
            assert np.array_equal(cols.forms[t], np.diag(
                [r / (2.0 * p.y ** 2) for r, p in zip(singles, zs)]))
        _assert_row_is_formula_of_one(cols, t, basis, zs, k)
