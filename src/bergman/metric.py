"""Bergman metric over hyperbolic metric: decomposition, bounds, scans.

The ratio at a point is k/(2*pi) plus a correction built from Wirtinger
derivatives of the weight-0 kernel; the bound ledger collects every
explicit constant; the scan table compares sup |ratio|/k^2 against
26/pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .forms import CuspFormBasis, basis_weight0_grid
from .fourier import fourier_bundles, load_fourier_table
from .groups import (
    C_GAMMA,
    DEFAULT_BUDGET,
    CosetList,
    FuchsianGroup,
    cusp_threshold,
    enumerate_group_elements,  # unused: perfbench's tracer test reads it here
    modular_cosets,
    reduce_to_fundamental,
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


class KernelVanishes(RuntimeError):
    pass


class ErrorBoundExceeded(RuntimeError):
    """The ratio's error bound exceeds the requested tolerance."""


@dataclass
class DerivativeBundle:
    value: float            # weight-0 kernel B(z)
    dz: complex             # dB/dz; dB/dzbar is its conjugate
    dzdzbar: complex        # mixed second derivative, real on the diagonal
    height: float           # Im of the point the three were taken at
    # absolute error bounds of value, dz and dzdzbar; zero where the
    # source reports none
    errors: tuple = (0.0, 0.0, 0.0)


@dataclass
class KernelColumns:
    """A grid's bundles, an array per field (row i at grid point i or its
    image, of height ``height``), each point's refusal or None (NaN rows)."""
    value: np.ndarray
    dz: np.ndarray
    dzdzbar: np.ndarray
    errors: np.ndarray
    refusals: list
    height: np.ndarray


@dataclass
class BoundLedger:
    lemma5: float
    lemma7: float
    prop8: float


# ---------------------------------------------------------------------------
# Kernel sources

class BasisSource:
    """Weight-0 kernel from an orthonormal q-expansion basis."""

    def __init__(self, basis: CuspFormBasis):
        if not basis.orthonormal_flag:
            raise DomainError("basis must be orthonormal")
        self.basis = basis
        self.k = basis.k

    def bundles(self, grid: Sequence[UhpPoint]) -> KernelColumns:
        """The grid's columns, from one batched evaluation; no refusals."""
        value, d1, d2 = basis_weight0_grid(self.basis, [z.z for z in grid])
        return KernelColumns(value, d1, d2, np.zeros((len(grid), 3)),
                             [None] * len(grid), np.array([z.y for z in grid]))


class PoincareSource:
    """Weight-0 kernel from the Poincare series over Gamma_inf\\Gamma.

    Each point lists its own cosets, so a value depends on the point
    alone.  PSL(2, Z) sieves them from its coprime bottom rows; any other
    group walks them from its generators.  On PSL(2, Z), ``bundles``
    takes a point whose image in F (``reduce_to_fundamental``) lies at or
    above the height Y_k of the weight's table from the series' Fourier
    expansion at the cusp instead, at that image, from that table of
    Petersson's formula (``load_fourier_table``, read once per source).
    A group without the unit translation, which has no cusp at
    i*infinity, is refused.
    """

    def __init__(self, group: FuchsianGroup, k: int,
                 budget: int = DEFAULT_BUDGET):
        if not group.has_cusp_translation:
            raise DomainError(f"group {group.label} lacks the unit "
                              "translation: no cusp at i*infinity")
        self.group = group
        self.k = k
        self.budget = budget
        loaded = load_fourier_table(k) if group.is_modular else None
        # least height of the Fourier route, inf where it has none, and
        # its table
        self.fourier_height, self.table = (
            (math.inf, None) if loaded is None else loaded)

    def cosets(self, z: UhpPoint) -> CosetList:
        """Classes of the series at z; refuses a list the budget cut short."""
        bound = coset_norm_bound(z.y, self.k)
        if self.group.is_modular:
            return modular_cosets(z, bound, self.budget)
        return walk_cosets(self.group, z, bound, self.budget)

    def bundles(self, grid: Sequence[UhpPoint]) -> KernelColumns:
        """The grid's columns: the points whose image in F lies at or
        above ``fourier_height`` from the table at once, at the images,
        the others point by point over their cosets; a raise refuses."""
        n = len(grid)
        cols = KernelColumns(np.full(n, np.nan), np.full(n, np.nan, complex),
                             np.full(n, np.nan, complex),
                             np.full((n, 3), np.nan), [None] * n,
                             np.array([z.y for z in grid]))
        x, y, delta, _ = reduce_to_fundamental([z.x for z in grid], cols.height)
        table = y >= self.fourier_height
        if table.any():
            x, y, delta = x[table], y[table], delta[table]
            b, dz, d2, errors = fourier_bundles(self.k, self.table,
                                                x + 1j * y, delta)
            # twice y^2's rounding share, (2 + delta/y) delta/y, of d2B
            errors[:, 2] += 2.0 * (2.0 + delta / y) * delta / y * np.abs(d2)
            (cols.value[table], cols.dz[table], cols.dzdzbar[table],
             cols.errors[table], cols.height[table]) = b, dz, d2, errors, y
        for i in np.flatnonzero(~table).tolist():
            z = grid[i]
            try:
                row = poincare_weight0_bundle(self.cosets(z), z, self.k)
            except Exception as exc:  # recorded inline, scan continues
                # without its traceback, which keeps the coset arrays
                cols.refusals[i] = exc.with_traceback(None)
                continue
            cols.value[i], cols.dz[i], cols.dzdzbar[i], cols.errors[i] = row
        return cols


# ---------------------------------------------------------------------------
# Derivatives

def kernel_derivatives(source, z: UhpPoint) -> DerivativeBundle:
    """Weight-0 B and its Wirtinger derivatives at z or its image (at
    ``height``): the batch of one of ``source.bundles``, raising a refusal."""
    cols = source.bundles([z])
    if cols.refusals[0] is not None:
        raise cols.refusals[0]
    return DerivativeBundle(value=float(cols.value[0]), dz=complex(cols.dz[0]),
                            dzdzbar=complex(cols.dzdzbar[0]),
                            height=float(cols.height[0]),
                            errors=tuple(cols.errors[0].tolist()))


def ratio_parts(bundle, k: int):
    """Ratio k/(2 pi) + (y^2/pi)(|dB|^2/B^2 - d2B/B), that correction and
    the ratio's absolute error bound, y the bundle's ``height``: scalars
    for a DerivativeBundle, arrays for a grid's KernelColumns.

    With B off by at most e0 (B - e0 > 0, else the bound is inf), dB by e1
    and d2B by e2, |dB|^2/B^2 moves by at most (2|dB| + e1) e1/(B - e0)^2
    + |dB|^2 (1/(B - e0)^2 - 1/B^2) and d2B/B by at most e2/(B - e0)
    + |d2B| (1/(B - e0) - 1/B); forming their difference adds 4 EPS of each,
    and rounding k/(2 pi) and the ratio EPS (k/(2 pi) + |ratio|).  Both are
    of degree 0, and the inputs are scaled first, exactly, lest B^2 underflow.
    """
    b, y = np.asarray(bundle.value, float), bundle.height
    y2 = y * y / math.pi
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, -np.frexp(b)[1])
        b, dz = b * scale, np.asarray(bundle.dz, complex) * scale
        d2 = np.asarray(bundle.dzdzbar, complex).real * scale
        e0, e1, e2 = np.asarray(bundle.errors, float).T * scale
        a, d = np.hypot(dz.real, dz.imag), np.abs(d2)
        corr = y2 * ((dz.real * dz.real + dz.imag * dz.imag) / (b * b)
                     - d2 / b)
        lo = b - e0
        grad = (2 * a + e1) * e1 / (lo * lo) + a * a * (1 / (lo * lo)
                                                        - 1 / (b * b))
        hess = e2 / lo + d * (1 / lo - 1 / b)
        arith = 4 * EPS * (a * a / (b * b) + d / b)
        ratio = k / (2.0 * math.pi) + corr
        bound = np.where(lo <= 0.0, np.inf, y2 * (grad + hess + arith)
                         + EPS * (k / (2.0 * math.pi) + np.abs(ratio)))
    return ratio, corr, bound


def fd_log_ratio(source, z: UhpPoint) -> float:
    """Independent route: -(y^2 / 4 pi) Laplacian of log(y^(2k) B(z)).

    Five-point finite-difference Laplacian of the log of the diagonal
    Petersson norm, Richardson-extrapolated once, k = ``source.k``.  Its
    nine points take one ``source.bundles`` call, each paired with the
    height its value was taken at: y^(2k) B is Gamma-invariant, B alone
    is not.  Raises the first point's refusal, or ``KernelVanishes``
    where B <= 1e-300, as the scan refuses that row.
    """
    # step large enough that series-evaluation noise, amplified by
    # 1/h^2 in the Laplacian, stays below the two-route tolerance
    h = max(1e-3, 1e-3 * z.y)
    points = [z] + [w for s in (h, h / 2) for w in (
        UhpPoint(z.x + s, z.y), UhpPoint(z.x - s, z.y),
        UhpPoint(z.x, z.y + s), UhpPoint(z.x, z.y - s))]
    cols = source.bundles(points)
    g = []
    for w, exc, b, y in zip(points, cols.refusals, cols.value.tolist(),
                            cols.height.tolist()):
        if exc is not None:
            raise exc
        if b <= 1e-300:
            raise KernelVanishes(f"kernel value {b} at {w}")
        g.append(2 * source.k * math.log(y) + math.log(b))
    lap_h, lap_h2 = ((sum(g[i:i + 4]) - 4 * g[0]) / (s * s)
                     for i, s in ((1, h), (5, h / 2)))
    val = (4 * lap_h2 - lap_h) / 3
    return -(z.y ** 2 / (4.0 * math.pi)) * val


# ---------------------------------------------------------------------------
# Bound ledger

def prop8_bound(k: int, kernel_lower: float, c_x: float) -> float:
    """Prop 8's bound on |ratio|, parenthesis at the threshold height."""
    if k < 3:
        raise DomainError("k must be >= 3")
    if kernel_lower <= 0 or c_x < 0:
        raise DomainError("inputs must be positive")
    if kernel_lower ** 2 == 0.0:  # y^2k B squared underflows from y ~ 35
        return math.inf
    paren_star = (
        identity_term(k)
        + C_GAMMA * (2 * k - 1) * math.log(k)
        / (2.0 * math.pi * math.sqrt(math.pi)) * gamma_ratio(k)
        + c_x
    )
    return (
        k / (2.0 * math.pi)
        + 4.0 * k * k / (math.pi * kernel_lower ** 2) * paren_star ** 2
        + k * k / (math.pi * kernel_lower) * paren_star * (5.0 + 1.0 / (2.0 * k))
    )


def bound_ledger(y: float, k: int, kernel_lower: float,
                 c_x: float) -> BoundLedger:
    """Explicit derivative and ratio bounds with the stated constants."""
    prop8 = prop8_bound(k, kernel_lower, c_x)
    if y <= 0:
        raise DomainError("inputs must be positive")
    paren = identity_term(k) + parabolic_term_bound(y, k) + c_x
    lemma5 = 2.0 * k / y ** (2 * k + 1) * paren
    lemma7 = (10.0 * k * k + k) / (2.0 * y ** (2 * k + 2)) * paren
    return BoundLedger(lemma5=lemma5, lemma7=lemma7, prop8=prop8)


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
# Scan

@dataclass
class ScanColumns:
    """One weight's ratio-scan rows, row i at grid point i; a refused row
    holds NaN, bound_ok False and ``"Type: message"`` in ``errors``."""
    k: int
    cusp: np.ndarray            # in the cusp neighborhood (region)
    ratio: np.ndarray
    ratio_over_k2: np.ndarray
    error_bound: np.ndarray
    bound: np.ndarray           # Prop 8, one value per weight
    bound_ok: np.ndarray
    errors: list


@dataclass
class ScanSummary:
    """A weight's sup of |ratio|/k^2 (or of the volume ratio / k^(2d)),
    at row ``sup_index``, against its limit."""
    k: int
    sup: float
    limit: float
    within_limit: bool
    sup_index: Optional[int]
    flagged: int            # rows of this weight carrying an error


def summarize(k: int, over: np.ndarray, refused: np.ndarray,
              limit: float) -> ScanSummary:
    """The sup of ``over`` over the rows neither refused nor NaN.

    A scan with no such row has sup -inf, no sup_index and is not
    within its limit: it has no sup to pass.
    """
    valid = ~refused & ~np.isnan(over)
    sup, sup_index = -math.inf, None
    if valid.any():
        sup_index = int(np.argmax(np.where(valid, over, -np.inf)))
        sup = float(over[sup_index])
    return ScanSummary(k, sup, limit, -math.inf < sup <= limit, sup_index,
                       int(refused.sum()))


def grid_points(x0: float, x1: float, y0: float, y1: float,
                nx: int, ny: int) -> list:
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    return [UhpPoint(x, y) for y in ys for x in xs]


def ratio_scan(sources, grid: Sequence[UhpPoint], tol: float = 1e-5):
    """Per-weight ratio columns plus per-k sup |ratio|/k^2 summaries.

    Each kernel source, of weight ``source.k``, gives the columns of the
    whole grid (``bundles``), a point's numbers depending on that point
    alone; the ratio (``ratio_parts``) and y^2k B are formed at each
    row's height, ``region`` at the point's own.  A point is
    refused, in this order, by the source, when B <= 1e-300
    (``KernelVanishes``), or when its ratio error bound exceeds ``tol``
    times max(|ratio|, k/(2 pi)) (``ErrorBoundExceeded``).  Returns one
    ``ScanColumns`` per source.
    """
    y = np.array([z.y for z in grid])
    tables, summaries = [], []
    for source in sources:
        k = source.k
        cols = source.bundles(grid)
        ratio, _, err = ratio_parts(cols, k)
        threshold = cusp_threshold(k)
        vanishes = cols.value <= 1e-300
        with np.errstate(all="ignore"):
            exceeded = ~(err <= tol * np.maximum(np.abs(ratio),
                                                 k / (2.0 * math.pi)))
            norms = cols.value * cols.height ** (2 * k)
        refused = (np.array([r is not None for r in cols.refusals], bool)
                   | vanishes | exceeded)
        errors = [None] * len(grid)
        for i in np.flatnonzero(refused).tolist():
            exc = cols.refusals[i]
            if exc is None and vanishes[i]:
                exc = KernelVanishes(
                    f"kernel value {float(cols.value[i])} at {grid[i]}")
            elif exc is None:
                exc = ErrorBoundExceeded(
                    f"ratio {float(ratio[i]):.12g} +- {float(err[i]):.3g} "
                    f"exceeds tol {tol:g}")
            errors[i] = f"{type(exc).__name__}: {exc}"
        ok = ~refused
        over = np.abs(ratio) / (k * k)
        klower = kernel_lower_surrogate(
            k, float(norms[ok].min()) if ok.any() else 0.0)
        # C_X = 0: no group supplies the r_X that Prop 8 needs
        bound = prop8_bound(k, klower, 0.0) if k >= 3 else math.inf
        tables.append(ScanColumns(
            k=k, cusp=y >= threshold, ratio=np.where(ok, ratio, np.nan),
            ratio_over_k2=np.where(ok, over, np.nan),
            error_bound=np.where(ok, err, np.nan),
            bound=np.where(ok, bound, np.nan),
            bound_ok=ok & (np.abs(ratio) <= bound), errors=errors))
        summaries.append(summarize(k, over, refused, RATIO_LIMIT))
    return tables, summaries
