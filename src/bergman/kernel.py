"""Truncated Poincare-series evaluation of the weight-2k Bergman kernel.

The coset route sums over Gamma_inf\\Gamma: the translates T^n gamma of a
coset add up in closed form by the Lipschitz formula, and one
vectorized evaluator returns B, dB/dz and d2B/dz dzbar with absolute
error bounds (coset tail, q-series cut-off, rounding).

On PSL(2, Z) the points at or above a height Y_k take the same three
values from the kernel's Fourier expansion at the cusp instead
(fourier.py); the coset route serves every other point and group, and
is the reference the tests hold that route to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import EPS, CosetList
from .uhp import DomainError, UhpPoint

TWO_PI = 2.0 * math.pi
# cap on the coset walk's norm bound per unit height (see coset_norm_bound)
NORM_CAP = 32768.0
# largest s whose Eulerian means A(s-1, j)/(s-1)! are all normal doubles
# far enough above the subnormals that Horner's rule loses nothing there
MAX_LIPSCHITZ_S = 170


def identity_term(k: int) -> float:
    """Leading coefficient (2k-1)/(4*pi) of the kernel series."""
    if k < 2:
        raise DomainError("k must be >= 2")
    return (2 * k - 1) / (4.0 * math.pi)


def gamma_ratio(k: int) -> float:
    """Gamma(k - 1/2) / Gamma(k) = sqrt(pi) C(2k-2, k-1) / 4^(k-1); ~ 1/sqrt(k).

    The exact integer quotient rounds once, so the ratio is good to a few
    ulp for every k, where a difference of log-gammas loses digits.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    return math.comb(2 * k - 2, k - 1) / 4 ** (k - 1) * math.sqrt(math.pi)


def parabolic_term_bound(y: float, k: int) -> float:
    """Bound on the cusp-stabilizer block: y(2k-1)/sqrt(pi) * Gamma ratio."""
    if y <= 0:
        raise DomainError("y must be positive")
    if k < 3:
        raise DomainError("k must be >= 3")
    return y * (2 * k - 1) / math.sqrt(math.pi) * gamma_ratio(k)


def cx_constant(r_x: float, k: int) -> float:
    """Explicit constant bounding the non-parabolic block of the series."""
    if r_x <= 0:
        raise DomainError("injectivity radius must be positive")
    if k < 3:
        raise DomainError("k must be >= 3")
    if math.isinf(r_x):
        return 0.0
    ch4 = math.cosh(r_x / 4.0)
    ch2 = math.cosh(r_x / 2.0)
    sh4 = math.sinh(r_x / 4.0)
    return (2 * k - 1) / (4.0 * math.pi) * (
        16.0 / ch4 ** (2 * k - 4) + 8.0 / ch2 ** (2 * k - 3)
    ) + (2 * k - 1) / (2.0 * math.pi * sh4 * sh4) * (
        1.0 / ch2 ** (2 * k - 3) + 1.0 / ch2 ** (2 * k - 4)
    )


@dataclass
class KernelEvaluation:
    """y^2k B(z), the Petersson norm of the kernel on the diagonal, split
    as in Prop 3, and its truncation: the cosets summed and y^2k times
    the proven bound on B."""
    value_diagonal: float
    identity_part: float
    parabolic_part: float
    rest_part: float
    terms_used: int
    tail_estimate: float


def bergman_kernel_diagonal(cosets: CosetList, z: UhpPoint,
                            k: int) -> KernelEvaluation:
    """y^2k B(z) summed over ``cosets``, the classes listed at z.

    The identity coset's own Lipschitz sum, less the identity term, is
    the parabolic part; the other cosets are the rest.
    """
    scale = z.y ** (2 * k)
    value, _, _, errors = poincare_weight0_bundle(cosets, z, k)
    identity = CosetList(z, cosets.norm_bound, np.array([[1.0, 0, 0, 1]]))
    own = poincare_weight0_bundle(identity, z, k)[0] * scale
    value *= scale
    return KernelEvaluation(value, identity_term(k), own - identity_term(k),
                            value - own, len(cosets), errors[0] * scale)


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _log_weights(s, m):
    """log of (2 pi)^s m^(s-1) / (s-1)!, the m-th Lipschitz weight of L_s.

    Elementwise in s and m.
    """
    return s * math.log(TWO_PI) + (s - 1) * np.log(m) - _lgamma(s)


def _series_tail(r, s: int, terms):
    """Bound on sum_{m > terms} m^(s-1) r^m, inf while the terms still grow.

    Elementwise in r and in terms.  Powers go through np.power for
    scalars too, so a scalar call equals its entry of an array call.
    """
    rho = np.power((terms + 2) / (terms + 1), s - 1) * r
    head = np.power(terms + 1.0, s - 1) * np.power(r, terms + 1)
    return np.where(rho < 1.0, head / np.maximum(1.0 - rho, EPS), np.inf)


def _series_length(r: float, s: int) -> int:
    """Fewest q-terms whose cut-off stays below EPS times the first term.

    The first of 1, 2, 3, ... whose ``_series_tail`` is at most EPS r,
    searched 64 term counts per call.
    """
    start = 1
    while True:
        terms = np.arange(start, start + 64)
        done = np.flatnonzero(~(_series_tail(r, s, terms) > EPS * r))
        if len(done):
            return start + int(done[0])
        start += 64


@lru_cache(maxsize=None)
def _eulerian_means(n: int) -> tuple:
    """A(n, j) / n! for j = 0, ..., n - 1, each rounded once.

    A(n, j) are the Eulerian numbers, the coefficients of the Eulerian
    polynomial A_n, kept as exact integers through the recurrence
    A(n, j) = (j + 1) A(n-1, j) + (n - j) A(n-1, j-1); they sum to n!.
    """
    row = [1]
    for m in range(2, n + 1):
        row = [(j + 1) * a + (m - j) * b
               for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
    total = math.factorial(n)
    return tuple(a / total for a in row)


def _lipschitz_majorant(y: float, s: int) -> float:
    """Lambda_s(y) = (2 pi)^s/(s-1)! sum_m m^(s-1) e^(-2 pi m y), rounded up.

    Bounds |L_s(tau)| for every Im(tau) >= y.  With r = e^(-2 pi y) the
    sum is r A_(s-1)(r) / (1 - r)^s, so Lambda_s(y) is
    (2 pi)^s r P(r) / (1 - r)^s with P = A_(s-1)/(s-1)!, a mean of powers
    of r summed by Horner's rule.  The product is taken in logs, so
    nothing overflows before the result does (then it is inf), and
    raised by a bound on its rounding: P's positive Horner steps, EPS
    for each log, their sum and the exp, and the error of r times the
    sum's sensitivity d log / d log r = 1 + r P'/P + s r/(1 - r).
    Needs s <= MAX_LIPSCHITZ_S.
    """
    if s > MAX_LIPSCHITZ_S:
        raise DomainError(f"Lipschitz majorant needs s <= {MAX_LIPSCHITZ_S}, "
                          f"got {s}")
    r = math.exp(-TWO_PI * y)
    p = dp = 0.0
    for w in reversed(_eulerian_means(s - 1)):
        dp = dp * r + p
        p = p * r + w
    logs = (s * math.log(TWO_PI), -TWO_PI * y, math.log(p),
            -s * math.log1p(-r))
    r_err = TWO_PI * y + 2.0  # relative error of r, in units of EPS
    slack = EPS * (4 * s + 8 + 2.0 * sum(abs(t) for t in logs)
                   + r_err * (1.0 + r * dp / p + s * r / (1.0 - r)))
    try:
        return math.exp(sum(logs)) * (1.0 + slack)
    except OverflowError:
        return math.inf


def coset_tail_sum(norm_bound: float, y: float, p: int) -> float:
    """Bound on sum |cz+d|^(-2p) over pairs c >= 1, d beyond norm_bound N.

    Let A(X) count the pairs with R = |cz+d|^2 <= X.  Row c holds the d
    in an interval of length 2 sqrt(X - c^2 y^2), so between that length
    minus one and plus one of them, for each 1 <= c <= sqrt(X)/y.
    Comparing the rows with the integral of the half ellipse gives

        (pi/2) X/y - (2 + 1/y) sqrt(X) <= A(X) <= (pi/2) X/y + sqrt(X)/y.

    Partial summation, sum_{R > N} R^(-p) = -N^(-p) A(N)
    + p int_N^inf X^(-p-1) A(X) dX, with the lower count in the first
    term and the upper one in the integral, gives

        pi N^(1-p) / (2y(p-1)) + (2 + 1/y + p/(y(p - 1/2))) N^(1/2-p).

    Bottom rows of an integral group are such pairs, one per coset with
    c >= 1.  Needs p > 1.
    """
    if norm_bound <= 0.0:
        return math.inf
    n = norm_bound
    return (math.pi / (2.0 * y * (p - 1)) * n ** (1 - p)
            + (2.0 + 1.0 / y + p / (y * (p - 0.5))) * n ** (0.5 - p))


def coset_norm_bound(y: float, k: int) -> float:
    """Norm bound N of the coset walk for the weight-2k series at height y.

    N is the smallest, found by bisection, whose coset tail on B,
    Lambda_2k(y) times ``coset_tail_sum(N, y, k)``, is at most EPS times
    the largest coset term: the identity coset's Lambda_2k(2y), or for
    c >= 1, where R = |cz+d|^2 >= y^2 and Im(tau) = y + y/R, the maximum
    over R of Lambda_2k(y) R^(-k) e^(-2 pi y/R).  The tail is then of the
    size of double rounding on that term.  N is at least 1.  For small k
    that N would list millions of cosets (about 3N/(pi y) on the modular
    group), so it is capped at NORM_CAP y, where the tail, still
    reported, is larger.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    lam = _lipschitz_majorant(y, 2 * k)
    r_top = max(y * y, TWO_PI * y / k)
    target = EPS * max(_lipschitz_majorant(2.0 * y, 2 * k) / lam,
                       r_top ** (-k) * math.exp(-TWO_PI * y / r_top))
    lo, hi = 1.0, NORM_CAP * y
    if hi <= lo or coset_tail_sum(hi, y, k) > target:
        return hi
    if coset_tail_sum(lo, y, k) <= target:
        return lo
    # the tail falls as N grows: T(lo) > target >= T(hi) throughout
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if coset_tail_sum(mid, y, k) > target:
            lo = mid
        else:
            hi = mid
    return hi


def poincare_weight0_bundle(elements: CosetList, z: UhpPoint, k: int):
    """Weight-0 kernel B(z), dB/dz and d2B/dz dzbar over a coset list.

    With tau = z - conj(gamma z), mu = conj(cz+d), C = (2k-1)(2i)^(2k)/(4 pi)
    and L_s(tau) = sum_n (tau+n)^(-s), each representative adds

        B     += C mu^(-2k) L_2k
        dB    += C (-2k) mu^(-2k) L_2k+1
        d2B   += C [4k^2 c mu^(-2k-1) L_2k+1 - 2k(2k+1) mu^(-2k-2) L_2k+2]

    L_s is the Lipschitz series (-2 pi i)^s/(s-1)! sum_m m^(s-1) q^m,
    q = e^(2 pi i tau).  Returns (B, dB, d2B, errors):
    dB/dzbar is the conjugate of dB, and errors bounds the absolute
    error of each of the three by the sum of the coset tail beyond the
    list, the cut-off of the q-series and rounding.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    terms, slacks = _coset_terms(elements, z, k)
    # the real parts, then the imaginary parts, of the three sums
    total, bound = accurate_sum(np.concatenate([terms.real, terms.imag]))
    # slacks are positive: a sorted sum, raised by n EPS to bound its value
    slack = (np.sort(slacks, axis=-1).sum(axis=-1)
             * (1.0 + len(elements) * EPS))
    coeff = (2 * k - 1) * (-4.0) ** k / (4.0 * math.pi)
    values = coeff * (total[:3] + 1j * total[3:])
    errors = abs(coeff) * (slack + bound[:3] + bound[3:]
                           + np.array(_coset_tails(elements, z, k)))
    return (float(values[0].real), complex(values[1]), complex(values[2]),
            tuple(errors.tolist()))


def _coset_terms(elements: CosetList, z: UhpPoint, k: int):
    """Each representative's terms of B, dB and d2B, without C, and slacks.

    Returns two 3 x n arrays: the terms, and first-order bounds on their
    rounding plus the q-series cut-off of each.
    """
    a, b, c, d = elements.rows.T
    zc = z.z
    den = c * zc + d
    gz = (a * zc + b) / den
    tau = zc - np.conj(gz)
    inv_mu = 1.0 / np.conj(den)
    s = np.array([2 * k, 2 * k + 1, 2 * k + 2])
    # first-order rounding of each elementary term, in units of EPS: cz+d
    # and gamma z lose at most ``cond`` each, tau at most ``dtau``
    cond = 1.0 + 2.0 * abs(zc) / z.y
    dtau = abs(zc) + np.abs(gz) * (2.0 + 2.0 * cond)
    beta = (2 * k + 2) * (2.0 * cond + 1.0) + 8.0
    series, rel, cut = _lipschitz_columns(tau, dtau, beta, s)

    p0 = inv_mu ** (2 * k)
    p1 = p0 * inv_mu
    p2 = p1 * inv_mu
    # (prefactor, series column) of each sum: B, dB, d2B
    sums = (((p0, 0),),
            ((-2 * k * p0, 1),),
            ((4 * k * k * c * p1, 1), (-2 * k * (2 * k + 1) * p2, 2)))
    terms = np.empty((3, len(tau)), dtype=complex)
    slacks = np.empty((3, len(tau)))
    for i, parts in enumerate(sums):
        terms[i] = sum(pre * series[:, j] for pre, j in parts)
        slacks[i] = sum(np.abs(pre) * (EPS * rel[:, j] + cut[:, j])
                        for pre, j in parts)
    return terms, slacks


def _lipschitz_columns(tau, dtau, beta: float, s: np.ndarray):
    """L_s(tau) for the three weights s, one column each, at every tau.

    Also returns the columns' first-order rounding, in units of EPS,
    given ``dtau`` and ``beta`` of ``_coset_terms``, and their q-series
    cut-off.
    """
    q = np.exp(2j * math.pi * tau)
    r = float(np.max(np.abs(q)))
    terms = _series_length(r, int(s[-1]))
    m = np.arange(1, terms + 1, dtype=float)
    w = np.exp(_log_weights(s[None, :], m[:, None]))
    powers = np.cumprod(np.broadcast_to(q[:, None], (len(q), terms)), axis=1)
    series = (powers @ w) * np.array([1, -1j, -1, 1j])[s % 4]
    mags = np.abs(powers)
    rel = ((beta + terms) * (mags @ w)
           + (TWO_PI * dtau + 3.0)[:, None] * (mags @ (w * m[:, None])))
    cut = np.exp(_log_weights(s, 1.0)) * np.stack(
        [_series_tail(np.abs(q), si, terms) for si in s], axis=1)
    return series, rel, cut


def accurate_sum(x: np.ndarray):
    """Sums along the last axis, good to about one rounding, with bounds.

    The terms, padded with zeros to a power of two, are sorted, so a sum
    does not depend on their order; the sorted terms of -x are those of
    x reversed, and so is every halving below, so the sum of -x is
    exactly minus that of x.  They are halved pairwise by TwoSum, which
    splits each a + b exactly into its rounded sum and its rounding
    error, and the errors are carried along in a plain pairwise sum of
    their own and added back at the end, a cascaded summation after
    Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM J. Sci.
    Comput. 26, 2005).  Returns the sums and bounds
    EPS/2 |sum| + (depth EPS)^2 sum |x| on their absolute errors, depth
    the number of halvings: the last addition rounds once, the errors
    of the halvings total about depth EPS/2 sum |x|, and carrying them,
    two roundings a level, loses at most about depth EPS of that.
    """
    n = x.shape[-1]
    depth = max(n - 1, 0).bit_length()
    x = np.concatenate([x, np.zeros(x.shape[:-1] + ((1 << depth) - n,))],
                       axis=-1)
    x.sort(axis=-1)
    mags, errs = np.abs(x), 0.0
    for level in range(depth):
        half = x.shape[-1] // 2
        a, b = x[..., :half], x[..., half:]
        x = a + b
        t = x - a
        e = (a - (x - t)) + (b - t)
        errs = errs[..., :half] + errs[..., half:] + e if level else e
        mags = mags[..., :half] + mags[..., half:]
    total = x[..., 0] + (errs[..., 0] if depth else 0.0)
    return total, EPS / 2 * np.abs(total) + (depth * EPS) ** 2 * mags[..., 0]


def _coset_tails(elements: CosetList, z: UhpPoint, k: int):
    """Bounds on B, dB and d2B (without C) from the classes off the list.

    A class off the list has |c z0 + d|^2 > N at the base point z0, so
    |cz+d|^2 > N (1 - |z - z0|/y0)^2 at z; |L_s| <= Lambda_s(y) and
    |c| <= |cz+d|/y.
    """
    z0 = elements.base_point
    shrink = 1.0 - abs(z.z - z0.z) / z0.y
    n = elements.norm_bound * shrink * shrink if shrink > 0.0 else 0.0
    y = z.y
    lam0, lam1, lam2 = (_lipschitz_majorant(y, s) for s in (2 * k, 2 * k + 1,
                                                             2 * k + 2))
    rows = coset_tail_sum(n, y, k)
    return (lam0 * rows, 2 * k * lam1 * rows,
            4 * k * k / y * lam1 * rows
            + 2 * k * (2 * k + 1) * lam2 * coset_tail_sum(n, y, k + 1))
