"""Bergman metric over hyperbolic metric: decomposition, bounds, scans.

The ratio at a point is k/(2*pi) plus a correction built from Wirtinger
derivatives of the weight-0 kernel; the bound ledger collects every
explicit constant; the cusp expansion checks the y^2 exp(-2*pi*y)
decay; the scan table compares sup |ratio|/k^2 against 26/pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .forms import CuspFormBasis, basis_weight0_bundle, first_coefficient_mass
from .groups import (
    DEFAULT_C_GAMMA,
    BudgetExceeded,
    FuchsianGroup,
    OrbitEnumeration,
    RegionTag,
    classify_region,
    enumerate_group_elements,
)
from .kernel import (
    identity_term,
    gamma_ratio,
    kernel_diagonal_from_elements,
    parabolic_term_bound,
    poincare_weight0_bundle,
)
from .uhp import DomainError, UhpPoint

RATIO_LIMIT = 26.0 / math.pi


class KernelVanishes(RuntimeError):
    pass


class FirstCoefficientZero(RuntimeError):
    pass


class DerivativeMethod(Enum):
    SERIES_TERMWISE = "SeriesTermwise"
    FINITE_DIFFERENCE = "FiniteDifference"


@dataclass
class DerivativeBundle:
    value: float            # weight-0 kernel B(z)
    dz: complex             # dB/dz
    dz_conj: complex        # dB/dzbar = conj(dz)
    dzdzbar: complex        # mixed second derivative, real on the diagonal
    method: DerivativeMethod
    step: Optional[float] = None


@dataclass
class RatioSample:
    z: UhpPoint
    k: int
    ratio: float
    identity_part: float
    correction: float
    region: RegionTag


@dataclass
class BoundLedger:
    lemma5: float
    lemma6: float
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

    def weight0_value(self, z: UhpPoint) -> float:
        return basis_weight0_bundle(self.basis, z)[0]

    def weight0_bundle(self, z: UhpPoint):
        return basis_weight0_bundle(self.basis, z)


class PoincareSource:
    """Weight-0 kernel from the truncated orbit series.

    The orbit is enumerated once at a center point and the element list
    is reused at nearby stencil points, so finite-difference stencils
    see one smooth truncated function.
    """

    def __init__(self, group: FuchsianGroup, k: int,
                 displacement_bound: float = 100.0, budget: int = 200_000):
        self.group = group
        self.k = k
        self.displacement_bound = displacement_bound
        self.budget = budget
        self._cache = {}

    def _enumeration(self, z: UhpPoint) -> OrbitEnumeration:
        key = (round(z.x, 6), round(z.y, 6))
        for (kx, ky), enum in self._cache.items():
            if abs(kx - key[0]) < 0.05 and abs(ky - key[1]) < 0.05:
                return enum
        enum = enumerate_group_elements(
            self.group, z, self.displacement_bound, budget=self.budget)
        self._cache[key] = enum
        if len(self._cache) > 8:
            self._cache.pop(next(iter(self._cache)))
        return enum

    def _complete_enumeration(self, z: UhpPoint) -> OrbitEnumeration:
        """The orbit at z; refuses one the budget cut short."""
        enum = self._enumeration(z)
        if not enum.exhaustive_flag:
            raise BudgetExceeded(
                f"orbit at z={z.z} stopped at {self.budget} expansions")
        return enum

    def weight0_value(self, z: UhpPoint) -> float:
        enum = self._complete_enumeration(z)
        ev = kernel_diagonal_from_elements(
            enum.elements, z, self.k, self.displacement_bound,
            enum.exhaustive_flag, enum.frontier_count)
        return ev.value_diagonal / z.y ** (2 * self.k)

    def weight0_bundle(self, z: UhpPoint):
        """Termwise bundle from the complete orbit."""
        enum = self._complete_enumeration(z)
        return poincare_weight0_bundle(enum.elements, z, self.k)


# ---------------------------------------------------------------------------
# Derivatives

def _fd_bundle(source, z: UhpPoint, k: int, h: float):
    def f(x, y):
        return source.weight0_value(UhpPoint(x, y))

    x, y = z.x, z.y
    b0 = f(x, y)
    fxp, fxm = f(x + h, y), f(x - h, y)
    fyp, fym = f(x, y + h), f(x, y - h)
    dx = (fxp - fxm) / (2 * h)
    dy = (fyp - fym) / (2 * h)
    dxx = (fxp - 2 * b0 + fxm) / (h * h)
    dyy = (fyp - 2 * b0 + fym) / (h * h)
    dz = 0.5 * complex(dx, -dy)
    d2 = 0.25 * (dxx + dyy)
    return b0, dz, d2


def kernel_derivatives(source, z: UhpPoint, k: int,
                       method: DerivativeMethod = DerivativeMethod.SERIES_TERMWISE,
                       step: Optional[float] = None) -> DerivativeBundle:
    """Weight-0 kernel value and Wirtinger derivatives from either source."""
    if method is DerivativeMethod.SERIES_TERMWISE:
        value, d1, d2 = source.weight0_bundle(z)
        return DerivativeBundle(value=value, dz=d1, dz_conj=d1.conjugate(),
                                dzdzbar=complex(d2), method=method)
    h = step or max(1e-5, 1e-4 * z.y)
    b_h = _fd_bundle(source, z, k, h)
    b_h2 = _fd_bundle(source, z, k, h / 2)
    # one Richardson extrapolation step for the O(h^2) stencils
    value = b_h2[0]
    d1 = (4 * b_h2[1] - b_h[1]) / 3
    d2 = (4 * b_h2[2] - b_h[2]) / 3
    return DerivativeBundle(value=value, dz=d1, dz_conj=d1.conjugate(),
                            dzdzbar=complex(d2), method=method, step=h)


def bergman_metric_ratio(bundle: DerivativeBundle, z: UhpPoint, k: int,
                         c_gamma: float = DEFAULT_C_GAMMA) -> RatioSample:
    """Ratio of Bergman to hyperbolic metric from a derivative bundle."""
    if bundle.value <= 1e-300:
        raise KernelVanishes(f"kernel value {bundle.value} at {z}")
    b = bundle.value
    corr = (z.y ** 2 / math.pi) * (
        (bundle.dz * bundle.dz_conj).real / (b * b) - bundle.dzdzbar.real / b
    )
    return RatioSample(
        z=z, k=k,
        ratio=k / (2.0 * math.pi) + corr,
        identity_part=k / (2.0 * math.pi),
        correction=corr,
        region=classify_region(z, k, c_gamma),
    )


def fd_log_ratio(source, z: UhpPoint, k: int, step: Optional[float] = None) -> float:
    """Independent route: -(y^2 / 4 pi) Laplacian of log(y^(2k) B(z)).

    Five-point finite-difference Laplacian of the log of the diagonal
    Petersson norm, Richardson-extrapolated once.
    """
    def g(x, y):
        return 2 * k * math.log(y) + math.log(source.weight0_value(UhpPoint(x, y)))

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
    return BoundLedger(lemma5=lemma5, lemma6=lemma5, lemma7=lemma7,
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
    return max(min(asymptotic, measured_min), min(measured_min, asymptotic))


# ---------------------------------------------------------------------------
# Cusp expansion

def cusp_ratio_expansion(basis: CuspFormBasis, z: UhpPoint, k: int,
                         c_gamma: float = DEFAULT_C_GAMMA) -> RatioSample:
    """Ratio through the q-expansion route in the cusp neighborhood."""
    if first_coefficient_mass(basis) <= 0.0:
        raise FirstCoefficientZero("sum |a_{j,1}|^2 vanishes")
    bundle = kernel_derivatives(BasisSource(basis), z, k,
                                DerivativeMethod.SERIES_TERMWISE)
    return bergman_metric_ratio(bundle, z, k, c_gamma)


def fit_beta_decay(samples: Sequence[RatioSample]):
    """Single decay constant K with |beta| ~ K y^2 exp(-2 pi y).

    Geometric-mean fit over the samples; returns (K, per-sample list of
    |beta| / (y^2 exp(-2 pi y))).
    """
    ratios = []
    for s in samples:
        envelope = s.z.y ** 2 * math.exp(-2.0 * math.pi * s.z.y)
        ratios.append(abs(s.correction) / envelope)
    positive = [r for r in ratios if r > 0.0]
    if not positive:
        return 0.0, ratios
    log_mean = math.fsum(math.log(r) for r in positive) / len(positive)
    return math.exp(log_mean), ratios


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


def grid_points(x0: float, x1: float, y0: float, y1: float,
                nx: int, ny: int) -> list:
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    return [UhpPoint(x, y) for y in ys for x in xs]


def ratio_scan(source_factory, k_list: Sequence[int], grid: Sequence[UhpPoint],
               c_gamma: float = DEFAULT_C_GAMMA, c_x: float = 0.0,
               threads: int = 1):
    """Per-(k, z) ratio table plus per-k sup |ratio|/k^2 summaries.

    ``source_factory(k)`` returns a kernel source for each weight; grid
    points are evaluated independently and assembled in grid order.
    """
    rows, summaries = [], []
    for k in k_list:
        source = source_factory(k)

        def eval_point(z, k=k, source=source):
            try:
                bundle = kernel_derivatives(source, z, k,
                                            DerivativeMethod.SERIES_TERMWISE)
                sample = bergman_metric_ratio(bundle, z, k, c_gamma)
                return sample, bundle.value * z.y ** (2 * k), None
            except Exception as exc:  # recorded inline, scan continues
                return None, None, f"{type(exc).__name__}: {exc}"

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(eval_point, grid))
        else:
            results = [eval_point(z) for z in grid]

        norms = [nrm for _, nrm, _ in results if nrm is not None]
        klower = kernel_lower_surrogate(k, min(norms) if norms else 0.0)
        sup_val, sup_point = -math.inf, None
        for z, (sample, nrm, err) in zip(grid, results):
            if err is not None:
                rows.append(ScanRow(k=k, z=z, region=classify_region(z, k, c_gamma),
                                    ratio=math.nan, ratio_over_k2=math.nan,
                                    bound=math.nan, bound_satisfied=False,
                                    error=err))
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
            sup_point=sup_point,
        ))
    return rows, summaries
