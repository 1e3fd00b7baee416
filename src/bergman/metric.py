"""Bergman metric over hyperbolic metric: decomposition, bounds, scans.

The ratio at a point is k/(2*pi) plus a correction built from Wirtinger
derivatives of the weight-0 kernel; the bound ledger collects every
explicit constant; the cusp expansion checks the y^2 exp(-2*pi*y)
decay; the scan table compares sup |ratio|/k^2 against 26/pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .forms import (CuspFormBasis, basis_weight0_bundle, basis_weight0_grid,
                    first_coefficient_mass)
from .groups import (
    DEFAULT_C_GAMMA,
    BudgetExceeded,
    CosetList,
    FuchsianGroup,
    RegionTag,
    classify_region,
    enumerate_group_elements,
    modular_cosets,
    walk_cosets,
)
from .kernel import (
    EPS,
    identity_term,
    coset_norm_bound,
    gamma_ratio,
    parabolic_term_bound,
    poincare_weight0_bundle,
)
from .uhp import DomainError, UhpPoint

RATIO_LIMIT = 26.0 / math.pi
# displacement bound (cosh^2 units) of the orbit of a group without the
# unit translation; only a finite orbit, closed below it, is summed
ORBIT_BOUND = 150.0


class KernelVanishes(RuntimeError):
    pass


class ErrorBoundExceeded(RuntimeError):
    """The ratio's error bound exceeds the requested tolerance."""


class FirstCoefficientZero(RuntimeError):
    pass


@dataclass
class DerivativeBundle:
    value: float            # weight-0 kernel B(z)
    dz: complex             # dB/dz; dB/dzbar is its conjugate
    dzdzbar: complex        # mixed second derivative, real on the diagonal
    # absolute error bounds of value, dz and dzdzbar; zero where the
    # source reports none
    errors: tuple = (0.0, 0.0, 0.0)


@dataclass
class RatioSample:
    z: UhpPoint
    k: int
    ratio: float
    identity_part: float
    correction: float
    region: RegionTag
    error_bound: float = 0.0


@dataclass
class BoundLedger:
    lemma5: float
    lemma7: float
    prop8: float
    y: float
    k: int
    c_gamma: float
    c_x: float
    kernel_lower: float


# ---------------------------------------------------------------------------
# Kernel sources

class BasisSource:
    """Weight-0 kernel from an orthonormal q-expansion basis."""

    def __init__(self, basis: CuspFormBasis):
        if not basis.orthonormal_flag:
            raise DomainError("basis must be orthonormal")
        self.basis = basis
        self.k = basis.k

    def bundles(self, grid: Sequence[UhpPoint]) -> list:
        """A DerivativeBundle per grid point, from one batched evaluation."""
        value, d1, d2 = basis_weight0_grid(self.basis, [z.z for z in grid])
        return [DerivativeBundle(value=float(b), dz=complex(db),
                                 dzdzbar=complex(float(ddb)))
                for b, db, ddb in zip(value, d1, d2)]

    def value_near(self, z: UhpPoint):
        """B as a function of points near z, for finite-difference stencils."""
        return lambda w: basis_weight0_bundle(self.basis, w)[0]


class PoincareSource:
    """Weight-0 kernel from the Poincare series over Gamma_inf\\Gamma.

    Each point lists its own cosets, so a value depends on the point
    alone; a finite-difference stencil sums its centre's coset list.
    PSL(2, Z) sieves them from its coprime bottom rows; any other group
    with the unit translation walks them from its generators.
    """

    def __init__(self, group: FuchsianGroup, k: int, budget: int = 200_000):
        self.group = group
        self.k = k
        self.budget = budget

    def cosets(self, z: UhpPoint) -> CosetList:
        """Classes of the series at z; refuses a list the budget cut short."""
        if self.group.is_modular:
            return modular_cosets(z, coset_norm_bound(z.y, self.k),
                                  self.budget)
        if self.group.has_cusp_translation:
            return walk_cosets(self.group, z, coset_norm_bound(z.y, self.k),
                               self.budget)
        enum = enumerate_group_elements(self.group, z, ORBIT_BOUND,
                                        budget=self.budget)
        if not enum.exhaustive_flag:
            raise BudgetExceeded(
                f"orbit at z={z.z} stopped at {self.budget} expansions")
        if enum.frontier_count:
            raise DomainError(
                f"group {self.group.label} has no unit translation and an "
                "orbit beyond the enumeration bound: no tail bound")
        return CosetList(base_point=z, norm_bound=math.inf,
                         rows=enum.rows(), translates=False)

    def bundles(self, grid: Sequence[UhpPoint]) -> list:
        """A DerivativeBundle, or the exception refusing the point, per
        grid point; each point lists its own cosets."""
        out = []
        for z in grid:
            try:
                value, d1, d2, errors = poincare_weight0_bundle(
                    self.cosets(z), z, self.k)
                out.append(DerivativeBundle(value=value, dz=d1,
                                            dzdzbar=complex(d2),
                                            errors=errors))
            except Exception as exc:  # recorded inline, scan continues
                # without its traceback, which keeps the coset arrays
                out.append(exc.with_traceback(None))
        return out

    def value_near(self, z: UhpPoint):
        """B as a function of points near z, summed over z's cosets."""
        cosets = self.cosets(z)
        return lambda w: poincare_weight0_bundle(cosets, w, self.k)[0]


# ---------------------------------------------------------------------------
# Derivatives

def kernel_derivatives(source, z: UhpPoint) -> DerivativeBundle:
    """Weight-0 kernel value and Wirtinger derivatives at z.

    The batch of one of ``source.bundles``; raises what refuses the
    point.
    """
    result = source.bundles([z])[0]
    if isinstance(result, Exception):
        raise result
    return result


def ratio_error_bound(bundle: DerivativeBundle, z: UhpPoint) -> float:
    """Absolute error bound of the ratio from the bundle's error bounds.

    With B off by at most e0 (and B - e0 > 0), dB by e1 and d2B by e2,
    |dB|^2/B^2 moves by at most (2|dB| + e1) e1/(B - e0)^2
    + |dB|^2 (1/(B - e0)^2 - 1/B^2) and d2B/B by at most e2/(B - e0)
    + |d2B| (1/(B - e0) - 1/B); forming their difference adds 4 EPS
    of each.
    """
    b, a, d = bundle.value, abs(bundle.dz), abs(bundle.dzdzbar.real)
    e0, e1, e2 = bundle.errors
    lo = b - e0
    if lo <= 0.0:
        return math.inf
    grad = (2 * a + e1) * e1 / lo ** 2 + a * a * (1 / lo ** 2 - 1 / b ** 2)
    hess = e2 / lo + d * (1 / lo - 1 / b)
    arith = 4 * EPS * (a * a / (b * b) + d / b)
    return z.y ** 2 / math.pi * (grad + hess + arith)


def bergman_metric_ratio(bundle: DerivativeBundle, z: UhpPoint, k: int,
                         c_gamma: float = DEFAULT_C_GAMMA) -> RatioSample:
    """Ratio of Bergman to hyperbolic metric from a derivative bundle."""
    if bundle.value <= 1e-300:
        raise KernelVanishes(f"kernel value {bundle.value} at {z}")
    b = bundle.value
    corr = (z.y ** 2 / math.pi) * (
        (bundle.dz * bundle.dz.conjugate()).real / (b * b)
        - bundle.dzdzbar.real / b
    )
    return RatioSample(
        z=z, k=k,
        ratio=k / (2.0 * math.pi) + corr,
        identity_part=k / (2.0 * math.pi),
        correction=corr,
        region=classify_region(z, k, c_gamma),
        error_bound=ratio_error_bound(bundle, z),
    )


def fd_log_ratio(source, z: UhpPoint, k: int, step: Optional[float] = None) -> float:
    """Independent route: -(y^2 / 4 pi) Laplacian of log(y^(2k) B(z)).

    Five-point finite-difference Laplacian of the log of the diagonal
    Petersson norm, Richardson-extrapolated once.
    """
    f = source.value_near(z)

    def g(x, y):
        return 2 * k * math.log(y) + math.log(f(UhpPoint(x, y)))

    def lap(h):
        return (
            g(z.x + h, z.y) + g(z.x - h, z.y)
            + g(z.x, z.y + h) + g(z.x, z.y - h)
            - 4 * g(z.x, z.y)
        ) / (h * h)

    # step large enough that series-evaluation noise, amplified by
    # 1/h^2 in the Laplacian, stays below the two-route tolerance
    h = step or max(1e-3, 1e-3 * z.y)
    val = (4 * lap(h / 2) - lap(h)) / 3
    return -(z.y ** 2 / (4.0 * math.pi)) * val


# ---------------------------------------------------------------------------
# Bound ledger

def bound_ledger(y: float, k: int, kernel_lower: float, c_x: float,
                 c_gamma: float = DEFAULT_C_GAMMA) -> BoundLedger:
    """Explicit derivative and ratio bounds with the stated constants."""
    if k < 3:
        raise DomainError("k must be >= 3")
    if y <= 0 or kernel_lower <= 0 or c_x < 0 or c_gamma <= 0:
        raise DomainError("inputs must be positive")
    paren = identity_term(k) + parabolic_term_bound(y, k) + c_x
    lemma5 = 2.0 * k / y ** (2 * k + 1) * paren
    lemma7 = (10.0 * k * k + k) / (2.0 * y ** (2 * k + 2)) * paren
    # compact-part bound with the parenthesis at the threshold height
    paren_star = (
        identity_term(k)
        + c_gamma * (2 * k - 1) * math.log(k)
        / (2.0 * math.pi * math.sqrt(math.pi)) * gamma_ratio(k)
        + c_x
    )
    prop8 = (
        k / (2.0 * math.pi)
        + 4.0 * k * k / (math.pi * kernel_lower ** 2) * paren_star ** 2
        + k * k / (math.pi * kernel_lower) * paren_star * (5.0 + 1.0 / (2.0 * k))
    )
    return BoundLedger(lemma5=lemma5, lemma7=lemma7,
                       prop8=prop8, y=y, k=k, c_gamma=c_gamma, c_x=c_x,
                       kernel_lower=kernel_lower)


def kernel_lower_surrogate(k: int, measured_min: float) -> float:
    """Computable stand-in for the kernel lower bound.

    The asymptotic lower bound (2k-1)/(8*pi) holds only for large k, so
    the measured minimum over the scan guards small k.
    """
    asymptotic = (2 * k - 1) / (8.0 * math.pi)
    if measured_min <= 0:
        return asymptotic
    return min(asymptotic, measured_min)


# ---------------------------------------------------------------------------
# Cusp expansion

def cusp_ratio_expansion(basis: CuspFormBasis, z: UhpPoint, k: int,
                         c_gamma: float = DEFAULT_C_GAMMA) -> RatioSample:
    """Ratio through the q-expansion route in the cusp neighborhood."""
    if first_coefficient_mass(basis) <= 0.0:
        raise FirstCoefficientZero("sum |a_{j,1}|^2 vanishes")
    bundle = kernel_derivatives(BasisSource(basis), z)
    return bergman_metric_ratio(bundle, z, k, c_gamma)


# ---------------------------------------------------------------------------
# Scan

@dataclass
class ScanRow:
    k: int
    z: UhpPoint
    region: RegionTag
    ratio: float
    ratio_over_k2: float
    bound: float
    bound_satisfied: bool
    error: Optional[str] = None


@dataclass
class ScanSummary:
    k: int
    sup_ratio_over_k2: float
    limit: float
    within_limit: bool
    sup_point: Optional[UhpPoint]
    flagged: int            # rows of this weight carrying an error


def grid_points(x0: float, x1: float, y0: float, y1: float,
                nx: int, ny: int) -> list:
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    return [UhpPoint(x, y) for y in ys for x in xs]


def ratio_scan(source_factory, k_list: Sequence[int], grid: Sequence[UhpPoint],
               c_gamma: float = DEFAULT_C_GAMMA, c_x: float = 0.0,
               tol: float = 1e-5):
    """Per-(k, z) ratio table plus per-k sup |ratio|/k^2 summaries.

    ``source_factory(k)`` returns a kernel source for each weight.  The
    source gives the bundles of the whole grid at once (``bundles``),
    a point's bundle depending on that point alone, and rows are
    assembled in grid order.  A point the source refuses, or whose
    ratio error bound exceeds ``tol`` times |ratio| (or times k/(2 pi),
    when the ratio is smaller), is refused inline.
    """
    rows, summaries = [], []
    for k in k_list:
        source = source_factory(k)

        def eval_point(z, bundle, k=k):
            if isinstance(bundle, Exception):
                return None, None, bundle
            try:
                sample = bergman_metric_ratio(bundle, z, k, c_gamma)
                scale = max(abs(sample.ratio), sample.identity_part)
                if not sample.error_bound <= tol * scale:
                    raise ErrorBoundExceeded(
                        f"ratio {sample.ratio:.12g} +- "
                        f"{sample.error_bound:.3g} exceeds tol {tol:g}")
                return sample, bundle.value * z.y ** (2 * k), None
            except Exception as exc:  # recorded inline, scan continues
                return None, None, exc

        results = [eval_point(z, bundle)
                   for z, bundle in zip(grid, source.bundles(grid))]

        norms = [nrm for _, nrm, _ in results if nrm is not None]
        klower = kernel_lower_surrogate(k, min(norms) if norms else 0.0)
        sup_val, sup_point, flagged = -math.inf, None, 0
        for z, (sample, nrm, err) in zip(grid, results):
            if err is not None:
                flagged += 1
                rows.append(ScanRow(k=k, z=z, region=classify_region(z, k, c_gamma),
                                    ratio=math.nan, ratio_over_k2=math.nan,
                                    bound=math.nan, bound_satisfied=False,
                                    error=f"{type(err).__name__}: {err}"))
                continue
            ledger = bound_ledger(max(z.y, 1e-6), k, klower, c_x, c_gamma) \
                if k >= 3 else None
            bound = ledger.prop8 if ledger else math.inf
            over = abs(sample.ratio) / (k * k)
            if over > sup_val:
                sup_val, sup_point = over, z
            rows.append(ScanRow(
                k=k, z=z, region=sample.region, ratio=sample.ratio,
                ratio_over_k2=over, bound=bound,
                bound_satisfied=abs(sample.ratio) <= bound,
            ))
        # a weight whose rows are all flagged has no sup to pass
        summaries.append(ScanSummary(
            k=k, sup_ratio_over_k2=sup_val, limit=RATIO_LIMIT,
            within_limit=-math.inf < sup_val <= RATIO_LIMIT,
            sup_point=sup_point, flagged=flagged,
        ))
    return rows, summaries
