"""Cusp forms given by truncated q-expansions.

Exact level-one q-series Delta^a E4^b E6^c, evaluation, Petersson Gram
matrices (the x-integral in closed form, a nested Clenshaw-Curtis rule
in y and a closed-form exponential tail), orthonormalization, the
basis-side Bergman kernel, and JSON-lines ingestion.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .uhp import DomainError, MoebiusTransform, UhpPoint, apply_moebius

TWO_PI = 2.0 * math.pi


class QuadratureNotConverged(RuntimeError):
    pass


class GramSingular(RuntimeError):
    pass


@dataclass(frozen=True)
class QExpansionForm:
    """Weight-2k cusp form truncated to M Fourier coefficients a_1..a_M."""

    label: str
    weight: int
    coefficients: tuple  # complex a_m, m = 1..M
    growth_exponent: Optional[float] = None  # declared |a_m| growth, metadata

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise DomainError("need at least one coefficient")
        if self.weight < 2 or self.weight % 2:
            raise DomainError("weight must be an even integer >= 2")
        if any(not (math.isfinite(c.real) and math.isfinite(c.imag))
               for c in map(complex, self.coefficients)):
            raise DomainError("coefficients must be finite")

    @property
    def k(self) -> int:
        return self.weight // 2

    @property
    def truncation_length(self) -> int:
        return len(self.coefficients)


def evaluate_q_expansion(form: QExpansionForm, z: UhpPoint,
                         deriv_order: int = 0) -> complex:
    """Sum a_m q^m, or its z-derivative (deriv_order 1, factor 2 pi i m)."""
    return complex(CuspFormBasis(forms=[form]).values(z, deriv_order)[0])


def modularity_defect(form: QExpansionForm, gamma: MoebiusTransform,
                      z: UhpPoint) -> float:
    """|f(gamma z) - (cz+d)^(2k) f(z)|, a data-validation diagnostic."""
    gz = apply_moebius(gamma, z)
    jac = (gamma.c * z.z + gamma.d) ** form.weight
    return abs(evaluate_q_expansion(form, gz) - jac * evaluate_q_expansion(form, z))


# Points per batched evaluation in ``jets``: caps the q-power
# temporary at GRAM_CHUNK x M
GRAM_CHUNK = 256
# A q-series keeps its leading terms until the dropped rest is at most
# CUT_RATIO (half an ulp) of the kept absolute sum; the term count is
# found at heights rounded down to a multiple of 1/HEIGHT_STEPS
CUT_RATIO = 2.0 ** -53
HEIGHT_STEPS = 32


def q_powers(z: np.ndarray, m: int) -> np.ndarray:
    """Rows q, q^2, ..., q^m for q = exp(2 pi i z[i]), by a running product."""
    powers = np.repeat(np.exp(2j * math.pi * z)[:, None], m, 1)
    np.multiply.accumulate(powers, axis=1, out=powers)
    return powers


@dataclass
class CuspFormBasis:
    forms: list
    gram: Optional[np.ndarray] = None
    orthonormal_flag: bool = False
    # the refinement change of ``gram`` where ``petersson_gram`` set it:
    # max |G_ij - G'_ij| / sqrt(G_ii G_jj) against the coarser rule G'
    gram_change: Optional[float] = None
    # n x M coefficients a_{j,m}, zero-padded, the factors 2 pi i m of one
    # z-derivative and the logs of |a_jm| (2 pi m)^r, r = 0, 1, of the
    # nonzero forms; built from the forms once, when the basis is built
    coefficients: np.ndarray = field(init=False, repr=False)
    derivative_factors: np.ndarray = field(init=False, repr=False)
    log_magnitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = {f.weight for f in self.forms}
        if len(weights) > 1:
            raise DomainError("mixed weights in basis")
        m_max = max((f.truncation_length for f in self.forms), default=0)
        self.coefficients = np.zeros((len(self.forms), m_max), dtype=complex)
        for i, f in enumerate(self.forms):
            self.coefficients[i, : f.truncation_length] = f.coefficients
        self.derivative_factors = 2j * math.pi * np.arange(1, m_max + 1)
        mags = np.abs(self.coefficients)
        mags = np.vstack([mags, mags * np.abs(self.derivative_factors)])
        with np.errstate(divide="ignore"):
            self.log_magnitudes = np.log(mags[mags.any(axis=1)])

    @property
    def weight(self) -> int:
        return self.forms[0].weight if self.forms else 0

    @property
    def k(self) -> int:
        return self.weight // 2

    @property
    def size(self) -> int:
        return len(self.forms)

    def term_counts(self, y) -> np.ndarray:
        """Leading terms to sum for rows whose lowest height is y[i].

        The fewest T with sum_{m>T} |a_jm| (2 pi m)^r |q|^m at most
        CUT_RATIO times sum_{m<=T} for every form j and r = 0, 1, so
        the cut adds no more than the sum's own rounding.  That ratio
        grows with |q|, so T holds at every point above the height it
        is found at: the row's lowest, rounded down to a multiple of
        1/HEIGHT_STEPS, so that T is found once per step.
        """
        steps = np.floor(HEIGHT_STEPS * np.fmax(y, 0.0))
        logs = self.log_magnitudes
        m = logs.shape[1]
        found = np.array(sorted(set(steps.tolist())))
        counts = np.full(len(found), m)
        slope = (TWO_PI / HEIGHT_STEPS) * np.arange(1, m + 1)
        # 16 steps at a time, in place: at most two step x row x power
        # arrays are alive at once
        for lo in range(0, len(found) if logs.size else 0, 16):
            # per step, row and power: the terms over the row's largest,
            # then tail[..., T] = sum_{m>T}; ok is monotone in T
            terms = logs - found[lo:lo + 16, None, None] * slope
            terms -= terms.max(axis=2, keepdims=True)
            np.exp(terms, out=terms)
            tail = np.cumsum(terms[:, :, ::-1], axis=2)[:, :, ::-1]
            del terms
            head = tail[:, :, :1] - tail[:, :, 1:]
            head *= CUT_RATIO
            ok = tail[:, :, 1:] <= head
            counts[lo:lo + 16] = m - ok.sum(axis=2).min(axis=1)
        return counts[np.searchsorted(found, steps)]

    def jets(self, z: np.ndarray):
        """Values and first z-derivatives at a T x d array of complex points.

        Returns two T x d x n stacks.  Each row of d points sums the
        ``term_counts`` leading terms at its lowest point and is
        contracted as one d x T block of a stacked matmul over the rows
        sharing its count, so its values do not depend on the other
        rows; one q-power array per block of at most GRAM_CHUNK points
        serves both contractions.  This is the only q-series
        contraction apart from the Gram's sliver rule.
        """
        z = np.asarray(z, dtype=complex)
        t, d = z.shape
        coef = self.coefficients.T
        dcoef = (self.coefficients * self.derivative_factors).T
        v = np.empty((t, d, self.size), dtype=complex)
        dv = np.empty_like(v)
        counts = self.term_counts(z.imag.min(axis=1))
        step = max(1, GRAM_CHUNK // d)
        for m in sorted(set(counts.tolist())):
            rows = np.flatnonzero(counts == m)
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                powers = q_powers(z[block].ravel(), m)
                powers = powers.reshape(len(block), d, m)
                v[block] = powers @ coef[:m]
                dv[block] = powers @ dcoef[:m]
        return v, dv

    def values(self, z, deriv_order: int = 0) -> np.ndarray:
        """Vector (f_1(z), ..., f_n(z)) or its first z-derivative; rows
        for a list, which is one row of ``jets``."""
        if deriv_order not in (0, 1):
            raise DomainError(f"deriv_order must be 0 or 1, got {deriv_order}")
        if isinstance(z, UhpPoint):
            return self.jets(np.array([[z.z]]))[deriv_order][0, 0]
        return self.jets(np.array([[p.z for p in z]], complex))[deriv_order][0]


def model_basis(weight: int, coefficient_rows: Sequence[Sequence[complex]],
                orthonormal: bool = True) -> CuspFormBasis:
    """Synthetic basis declared orthonormal; for formula-level checks."""
    forms = [
        QExpansionForm(label=f"model{i + 1}", weight=weight,
                       coefficients=tuple(complex(c) for c in row))
        for i, row in enumerate(coefficient_rows)
    ]
    basis = CuspFormBasis(forms=forms, orthonormal_flag=orthonormal)
    if orthonormal:
        basis.gram = np.eye(len(forms), dtype=complex)
    return basis


# ---------------------------------------------------------------------------
# Exact level-one q-series: Delta^a E4^b E6^c in Python integers

def _product(a, b, n):
    """The first n coefficients of the product of two q-series."""
    out = [0] * n
    for i, u in enumerate(a[:n]):
        if u:
            for j, v in enumerate(b[:n - i]):
                out[i + j] += u * v
    return out


def _power(a, e, n):
    """The first n coefficients of a^e, by repeated squaring."""
    out = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            out = _product(out, a, n)
        e >>= 1
        if e:
            a = _product(a, a, n)
    return out


def level_one_series(a: int, b: int, c: int, n: int) -> list:
    """Coefficients of q^0..q^(n-1) of Delta^a E4^b E6^c, exactly: Delta^a
    = q^a prod (1 - q^m)^(24a) by repeated squaring, E4 = 1 + 240 sum
    sigma_3(m) q^m, E6 = 1 - 504 sum sigma_5(m) q^m."""
    euler = [1] + [0] * (n - 1)
    for m in range(1, n):
        for i in range(n - 1, m - 1, -1):
            euler[i] -= euler[i - m]
    series = ([0] * a + _power(euler, 24 * a, n))[:n]
    for e, p, scale in ((b, 3, 240), (c, 5, -504)):
        if e:
            eisenstein = [1] + [scale * sum(d ** p for d in range(1, m + 1)
                                            if m % d == 0) for m in range(1, n)]
            series = _product(_power(eisenstein, e, n), series, n)
    return series


@lru_cache(maxsize=None)
def ramanujan_tau(m_max: int) -> tuple:
    """tau(1..m_max), the coefficients of Delta = q prod (1 - q^n)^24."""
    return tuple(level_one_series(1, 0, 0, m_max + 1)[1:])


def delta_form(m_max: int = 200) -> QExpansionForm:
    """The weight-12 discriminant form with m_max exact coefficients."""
    return QExpansionForm(
        label="delta",
        weight=12,
        coefficients=tuple(float(t) for t in ramanujan_tau(m_max)),
        growth_exponent=5.5,
    )


# ---------------------------------------------------------------------------
# Petersson inner products

@dataclass(frozen=True)
class QuadratureDomain:
    """Quadrature rule for the Petersson integral over the modular domain
    |x| <= 1/2, |z| >= 1: the exact tail above y = 1 (``_tail_gram``)
    and, on the sliver below it, the exact x-integral (``x_integrals``)
    and the Clenshaw-Curtis rule in theta = arccos(y) on an even number
    of ``intervals``, checked against the rule on half as many.
    """

    intervals: int = 32


def scaled_upper_gamma(s: int, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) / x^s for an integer s >= 1 and x > 0, elementwise.

    Closed form: Gamma(s, x) = (s-1)! e^(-x) sum_{j<s} x^j / j!, so
    Gamma(s, x) / x^s = e^(-x) / x * sum_{i<s} (s-1)!/(s-1-i)! x^(-i).
    The sum has positive terms and runs by Horner's rule, so its
    relative error is a few s ulp.  Where e^(-x) underflows the result
    is exactly 0.
    """
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    for j in range(1, s):
        total = 1.0 + total * (j / x)
    return np.exp(-x) / x * total


def clenshaw_curtis(n: int):
    """Nodes cos(i pi / n), i = 0..n, and weights of the Clenshaw-Curtis
    rule on [-1, 1] for an even n; exact for polynomials of degree n.

    w_i = (c_i / n) (1 - sum_{j=1}^{n/2} b_j cos(2 j i pi / n) / (4j^2 - 1)),
    c_i = 1 at the ends and 2 inside, b_j = 1 for j = n/2 and 2 below.
    """
    i, j = np.arange(n + 1), np.arange(1, n // 2 + 1)
    b = 2.0 / (4.0 * j * j - 1.0)
    b[-1] *= 0.5
    w = (2.0 / n) * (1.0 - np.cos((np.pi / n) * (2 * i[:, None] * j)) @ b)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * i / n), w


def sliver_rule(domain: QuadratureDomain):
    """Angles theta of the sliver rule and its two weight rows.

    y = cos(theta) runs over [sqrt(3)/2, 1] as theta runs over
    [0, pi/6].  Row 0 holds the weights of ``clenshaw_curtis(n)``
    mapped to that interval, row 1 those of the rule on n/2 intervals,
    whose nodes are the even-indexed ones, and zero at the odd ones.
    """
    n = domain.intervals
    x, fine = clenshaw_curtis(n)
    half = math.pi / 12.0
    weights = np.zeros((2, n + 1))
    weights[0] = half * fine
    weights[1, ::2] = half * clenshaw_curtis(n // 2)[1]
    return half * (1.0 + x), weights


def x_integrals(s: np.ndarray, t: int) -> np.ndarray:
    """c_j(s), j = 0..t-1: the integral of e^(2 pi i j x) over
    s <= |x| <= 1/2, that is 1 - 2s for j = 0 and -sin(2 pi j s)/(pi j)
    for j > 0; one row per s[i]."""
    j = np.arange(1, t)
    c = np.empty((len(s), t))
    c[:, 0] = 1.0 - 2.0 * s
    c[:, 1:] = np.sin(TWO_PI * s[:, None] * j) / (-math.pi * j)
    return c


def _tail_gram(basis: CuspFormBasis, cutoff: float) -> np.ndarray:
    """Analytic contribution above the cutoff height (full period in x).

    Index m weighs a_m conj(a'_m) by the integral of y^(s-1) e^(-a y)
    over [cutoff, inf), s = 2k-1, a = 4 pi m, which is
    Gamma(s, a cutoff) / a^s = cutoff^s Gamma(s, x) / x^s, x = a cutoff,
    in closed form (``scaled_upper_gamma``).  It is exact whatever the
    cutoff; the terms whose integral underflows are exactly 0.
    """
    mat = basis.coefficients
    s, a = 2 * basis.k - 1, 4.0 * math.pi * np.arange(1, mat.shape[1] + 1)
    integral = cutoff ** s * scaled_upper_gamma(s, a * cutoff)
    return (mat * integral) @ mat.conj().T


def petersson_gram(basis: CuspFormBasis,
                   domain: QuadratureDomain) -> np.ndarray:
    """Petersson Gram matrix of the basis, stored on it with its
    refinement change (``gram``, ``gram_change``) and returned.

    On the sliver the Gram is A K A^H over the leading T coefficients,
    T = ``term_counts(sqrt(3)/2)``, where after y = cos(theta)
    K_mn = int_0^(pi/6) e^(-2 pi (m+n) cos) cos^(2k-2) sin c_(m-n)(sin):
    per node, V C V^H with V = a_m p^m, p = e^(-2 pi cos(theta)) and the
    symmetric Toeplitz C = c_|m-n|.  Both rows of ``sliver_rule`` sum
    the same node products, and ``_tail_gram`` adds the part above
    y = 1.  The two Grams must agree to 1e-8 in every entry relative to
    sqrt(G_ii G_jj), or ``QuadratureNotConverged`` is raised.
    """
    theta, weights = sliver_rule(domain)
    y, s = np.cos(theta), np.sin(theta)
    t = int(basis.term_counts(np.array([math.sqrt(3.0) / 2.0]))[0])
    v = q_powers(1j * y, t)[:, None, :] * basis.coefficients[:, :t]
    lag = np.arange(t)
    toeplitz = x_integrals(s, t)[:, abs(lag[:, None] - lag)]
    nodes = (v @ toeplitz) @ v.conj().transpose(0, 2, 1)
    weights *= y ** (2 * basis.k - 2) * s
    fine, coarse = ((weights @ nodes.reshape(len(y), -1)).reshape(
        2, basis.size, basis.size) + _tail_gram(basis, 1.0))
    d = np.sqrt(np.abs(fine.diagonal()))
    err = np.max(np.abs(fine - coarse) / np.maximum(d[:, None] * d, 1e-300))
    if err > 1e-8:
        raise QuadratureNotConverged(
            f"refinement change {err:.3e} exceeds tolerance {1e-8:.3e}")
    # enforce exact Hermitian symmetry of the numerical result
    basis.gram, basis.gram_change = 0.5 * (fine + fine.conj().T), float(err)
    return basis.gram


def orthonormal_basis(basis: CuspFormBasis) -> CuspFormBasis:
    """Coefficient-level change of basis making ``basis.gram`` the identity;
    ``GramSingular`` if G_ij / sqrt(G_ii G_jj), whose Cholesky factor is
    that of G up to the same scaling, is singular to 1e-12 relative."""
    if basis.gram is None:
        raise DomainError("gram matrix not computed")
    g = np.asarray(basis.gram, dtype=complex)
    d = np.sqrt(np.abs(g.diagonal()))
    ev = np.linalg.eigvalsh(g / np.maximum(np.outer(d, d), 1e-300))
    if ev[0] < 1e-12 * max(ev[-1], 1e-300):
        raise GramSingular(f"smallest eigenvalue ratio {ev[0] / ev[-1]:.3e}")
    # rows of A give the new forms: A G A^H = I for A = L^{-1}, G = L L^H;
    # L is basis-size square, so its inverse is cheap
    a = np.linalg.inv(np.linalg.cholesky(g))
    mat = a @ basis.coefficients
    forms = [
        replace(basis.forms[i], label=basis.forms[i].label + "*",
                coefficients=tuple(mat[i]))
        for i in range(basis.size)
    ]
    return CuspFormBasis(forms=forms, gram=np.eye(basis.size, dtype=complex),
                         orthonormal_flag=True)


def basis_weight0_grid(basis: CuspFormBasis, z: np.ndarray):
    """B = sum |f_j|^2, dB/dz and d2B/dz dzbar at every complex z[i].

    Three arrays over the points, from one batched evaluation
    (``CuspFormBasis.jets``) in which each point is its own row.
    """
    v, dv = (a[:, 0] for a in basis.jets(np.reshape(z, (-1, 1))))
    value = np.sum(np.abs(v) ** 2, axis=1)
    d1 = np.sum(dv * v.conj(), axis=1)
    d2 = np.sum(np.abs(dv) ** 2, axis=1)
    return value, d1, d2


def basis_weight0_bundle(basis: CuspFormBasis, z: UhpPoint):
    """Weight-0 kernel B(z) = sum |f_j|^2 and its Wirtinger derivatives."""
    value, d1, d2 = basis_weight0_grid(basis, np.array([z.z]))
    return float(value[0]), complex(d1[0]), float(d2[0])


# ---------------------------------------------------------------------------
# JSON-lines ingestion

def _parse_coefficient(entry) -> complex:
    if isinstance(entry, str):
        return complex(float(entry))
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise DomainError(f"unparseable coefficient {entry!r}")


def load_forms(path: str) -> list:
    """One form per JSON line; a malformed line is a ``DomainError`` that
    names the file and line."""
    forms = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                forms.append(QExpansionForm(
                    label=doc["label"],
                    weight=int(doc["weight"]),
                    coefficients=tuple(_parse_coefficient(c)
                                       for c in doc["coefficients"]),
                    growth_exponent=doc.get("growth_exponent"),
                ))
            except KeyError as exc:
                raise DomainError(
                    f"{path}:{lineno}: form has no {exc} key") from exc
            except (TypeError, ValueError) as exc:
                raise DomainError(f"{path}:{lineno}: bad form: {exc}") from exc
    if not forms:
        raise DomainError(f"no forms found in {path}")
    return forms


def save_forms(forms: Sequence[QExpansionForm], path: str) -> None:
    with open(path, "w") as fh:
        for f in forms:
            coeffs = []
            for c in map(complex, f.coefficients):
                if c.imag == 0.0:
                    coeffs.append(repr(c.real))
                else:
                    coeffs.append([c.real, c.imag])
            doc = {"label": f.label, "weight": f.weight, "coefficients": coeffs}
            if f.growth_exponent is not None:
                doc["growth_exponent"] = f.growth_exponent
            fh.write(json.dumps(doc) + "\n")
