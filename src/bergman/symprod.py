"""Symmetric-product side: vanishing subspaces, Fubini-Study pullback.

A degree-d divisor determines the subspace of forms vanishing on it;
the divisor-to-subspace map into the Grassmannian pulls back the
Fubini-Study metric, whose d x d Hermitian form is the Levi form of
log det M, M the two-point kernel matrix.  The production (formula)
route evaluates that Levi form in closed form from one QR
factorization; the oracle route finite-differences the orthogonal
projector and takes traces.  The nested-subspace potential equals
log det M by Schur telescoping and serves as a check on it.  The
volume scan compares sup fs_volume_ratio / k^(2d) against (26/pi)^d.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import svd

from .forms import CuspFormBasis, bergman_from_basis
from .metric import RATIO_LIMIT
from .uhp import DomainError, UhpPoint, hyp_distance


class HypothesisViolated(ValueError):
    """The standing vanishing condition (k-1)(2g-1) > d fails."""


class NearDiagonal(RuntimeError):
    """Tuple points too close for conditioned finite differences."""


class FrameJumpDetected(RuntimeError):
    """Projector changed discontinuously across a stencil."""


class DegenerateDivisor(UserWarning):
    """Evaluation conditions dependent; kernel larger than n - d."""


def dimensions(g: int, k: int, d: int):
    """n_k = (2k-1)(g-1) + k - 1 and r_k = n_k - d."""
    if g < 2 or k < 2 or d < 1:
        raise DomainError("need g >= 2, k >= 2, d >= 1")
    if (k - 1) * (2 * g - 1) <= d:
        raise HypothesisViolated(
            f"(k-1)(2g-1) = {(k - 1) * (2 * g - 1)} must exceed d = {d}")
    n_k = (2 * k - 1) * (g - 1) + k - 1
    return n_k, n_k - d


@dataclass(frozen=True)
class Divisor:
    points: tuple  # of (UhpPoint, multiplicity)

    def __post_init__(self):
        if not self.points:
            raise DomainError("divisor needs at least one point")
        for _, m in self.points:
            if m < 1:
                raise DomainError("multiplicities must be positive")
        locs = [(p.x, p.y) for p, _ in self.points]
        if len(set(locs)) != len(locs):
            raise DomainError("divisor points must be distinct")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @classmethod
    def simple(cls, zs: Sequence[UhpPoint]) -> "Divisor":
        return cls(points=tuple((z, 1) for z in zs))


@dataclass
class SubspaceFrame:
    ambient_dim: int
    coefficients: np.ndarray  # n x r, columns orthonormal
    divisor: Optional[Divisor] = None

    @property
    def rank(self) -> int:
        return self.coefficients.shape[1]


def evaluation_matrix(basis: CuspFormBasis, divisor: Divisor) -> np.ndarray:
    """d x n matrix of the functionals f -> (d/dz)^j f(z_i), j < mult_i."""
    zs, mults = zip(*divisor.points)
    by_order = [basis.values(zs, deriv_order=j) for j in range(max(mults))]
    return np.array([by_order[j][i] for i, mult in enumerate(mults)
                     for j in range(mult)])


def vanishing_subspace(basis: CuspFormBasis, divisor: Divisor) -> SubspaceFrame:
    """Orthonormal frame for the kernel of the evaluation functionals."""
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    ev = evaluation_matrix(basis, divisor)
    scale = np.max(np.abs(ev))
    if scale > 0:
        ev = ev / scale
    # one SVD serves the rank warning (absolute cutoff) and the frame
    # (cutoff relative to the largest singular value, as null_space)
    _, s, vh = svd(ev, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    if rank < divisor.degree:
        warnings.warn(
            f"evaluation rank {rank} < degree {divisor.degree}",
            DegenerateDivisor)
    num = int(np.sum(s > 1e-10 * np.max(s, initial=0.0)))
    frame = vh[num:].conj().T
    return SubspaceFrame(ambient_dim=basis.size, coefficients=frame,
                         divisor=divisor)


def full_frame(basis: CuspFormBasis) -> SubspaceFrame:
    """Identity frame (empty divisor, internal use)."""
    return SubspaceFrame(ambient_dim=basis.size,
                         coefficients=np.eye(basis.size, dtype=complex))


def weight0_subspace_kernel(frame: SubspaceFrame, basis: CuspFormBasis,
                            z: UhpPoint) -> float:
    """Sum over frame columns of |combined form(z)|^2, no y^(2k) factor."""
    vec = basis.values(z) @ frame.coefficients
    return float(np.real(np.vdot(vec, vec)))


def subspace_kernel_diagonal(frame: SubspaceFrame, basis: CuspFormBasis,
                             z: UhpPoint, k: int) -> float:
    """Diagonal reproducing kernel y^(2k) ||.||^2 of the vanishing subspace."""
    return z.y ** (2 * k) * weight0_subspace_kernel(frame, basis, z)


def two_point_gram(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> np.ndarray:
    """Matrix M_ij = sum_l f_l(z_i) conj(f_l(z_j)) of weight-0 kernels."""
    vals = basis.values(zs)
    return vals @ vals.conj().T


def nested_log_potential(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> float:
    """Potential sum_j log psi_j through the nested subspace pipeline.

    psi_j is the weight-0 kernel of the subspace vanishing on
    z_1, ..., z_{j-1}, evaluated at z_j; by Schur telescoping the sum
    equals log det of the two-point kernel matrix.
    """
    total = 0.0
    for j, z in enumerate(zs):
        if j == 0:
            frame = full_frame(basis)
        else:
            frame = vanishing_subspace(basis, Divisor.simple(zs[:j]))
        psi = weight0_subspace_kernel(frame, basis, z)
        if psi <= 0.0:
            raise DomainError(f"subspace kernel vanished at slot {j}")
        total += math.log(psi)
    return total


@dataclass
class FSVolumeSample:
    z: list
    k: int
    fs_volume_ratio: float
    per_factor_ratios: list
    hermitian_form: np.ndarray
    route: str
    cross_term_magnitude: float = 0.0
    degenerate: bool = False


def _guard_tuple(zs: Sequence[UhpPoint]):
    if len(zs) >= 2:
        dmin = min(hyp_distance(a, b)
                   for i, a in enumerate(zs) for b in zs[i + 1:])
        if dmin < 1e-3:
            raise NearDiagonal(f"min pairwise distance {dmin:.2e}")


def _assemble_sample(zs, k, hessian_phi, route, degenerate=False):
    """Deliverable form G and volume ratio from the potential Hessian.

    G_lm = -(1/2pi) Hess_lm + delta_lm k/(4 pi y_l^2); the diagonal
    k-term is the exact contribution of the y^(2k) weights.  The
    volume ratio multiplies det G by prod 2 y_j^2 (the inverse
    hyperbolic volume density).
    """
    d = len(zs)
    g_mat = -hessian_phi / (2.0 * math.pi)
    for l, z in enumerate(zs):
        g_mat[l, l] += k / (4.0 * math.pi * z.y ** 2)
    per_factor = [float(2.0 * z.y ** 2 * g_mat[l, l].real)
                  for l, z in enumerate(zs)]
    det = float(np.real(np.linalg.det(g_mat)))
    volume = det * math.prod(2.0 * z.y ** 2 for z in zs)
    off = 0.0
    if d > 1:
        off = float(max(abs(g_mat[l, m]) for l in range(d)
                        for m in range(d) if l != m))
    return FSVolumeSample(
        z=list(zs), k=k, fs_volume_ratio=volume,
        per_factor_ratios=per_factor,
        hermitian_form=g_mat, route=route,
        cross_term_magnitude=off, degenerate=degenerate,
    )


def _fd_steps(zs, step: Optional[float]):
    return [step or max(1e-4, 1e-4 * z.y) for z in zs]


def _covector_qr(basis: CuspFormBasis, zs: Sequence[UhpPoint]):
    """Complete QR factors of V^H, rows of V the values f(z_i).

    Returns the n x n unitary Q and the top d x d block R_1 of R, so
    that M = V V^H = R_1^H R_1.  Refuses nearly dependent covectors,
    for which M is numerically singular.
    """
    q, r = np.linalg.qr(basis.values(zs).conj().T, mode="complete")
    diag = np.abs(np.diag(r))
    if np.min(diag) < 1e-12 * max(np.max(diag), 1e-300):
        raise DomainError("evaluation covectors nearly dependent")
    return q, r[:len(zs)]


def fs_form_formula(basis: CuspFormBasis, zs: Sequence[UhpPoint],
                    k: int) -> FSVolumeSample:
    """Fubini-Study pullback from the closed-form Levi form of log det M.

    With D the rows f'(z_i), d_l dbar_m log det M = (D P D^H)_lm
    (M^-1)_ml, P the projector onto the orthogonal complement of the
    evaluation covectors.  From V^H = QR, D P D^H = W W^H with
    W = D Q_perp (Q_perp the last n - d columns of Q, empty when
    n = d) and M^-1 = R_1^-1 R_1^-H.
    """
    _guard_tuple(zs)
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    d = len(zs)
    if basis.size < d:
        return _product_fallback(
            zs, k, "formula", lambda z: fs_form_formula(basis, [z], k))
    q, r1 = _covector_qr(basis, zs)
    w = basis.values(zs, deriv_order=1) @ q[:, d:]
    rinv = np.linalg.inv(r1)
    hess = (w @ w.conj().T) * (rinv @ rinv.conj().T).T
    return _assemble_sample(zs, k, hess, "formula")


# ---------------------------------------------------------------------------
# Direct Grassmannian oracle

def _projector(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> np.ndarray:
    """Orthogonal projector onto the span of the evaluation covectors.

    Gauge-invariant: any frame choice for the span yields the same
    projector, so no column alignment across stencil points is needed.
    """
    q1 = _covector_qr(basis, zs)[0][:, :len(zs)]
    return q1 @ q1.conj().T


def fs_form_direct_oracle(basis: CuspFormBasis, zs: Sequence[UhpPoint], k: int,
                          step: Optional[float] = None) -> FSVolumeSample:
    """Independent route: trace form of the moving projector.

    FS_lm = tr(dP/dz_l . dP/dzbar_m . P) with P the projector onto the
    orthogonal complement of the vanishing subspace, derivatives by
    central differences; the Hessian of the potential is -2 Re-free
    equality FS_lm = d_l dbar_m log det M, checked in tests.
    """
    _guard_tuple(zs)
    d = len(zs)
    if basis.size < d:
        return _product_fallback(
            zs, k, "oracle",
            lambda z: fs_form_direct_oracle(basis, [z], k, step))
    steps = _fd_steps(zs, step)
    base = [(z.x, z.y) for z in zs]

    def proj(deltas):
        pts = [UhpPoint(x + dx, y + dy)
               for (x, y), (dx, dy) in zip(base, deltas)]
        return _projector(basis, pts)

    zero = [(0.0, 0.0)] * d
    p0 = proj(zero)
    dp_dz, dp_dzbar = [], []
    for l in range(d):
        h = steps[l]

        def shifted(dx, dy, l=l):
            deltas = list(zero)
            deltas[l] = (dx, dy)
            return proj(deltas)

        px = (shifted(h, 0.0) - shifted(-h, 0.0)) / (2 * h)
        py = (shifted(0.0, h) - shifted(0.0, -h)) / (2 * h)
        if max(np.max(np.abs(px)) * h, np.max(np.abs(py)) * h) > 0.5:
            raise FrameJumpDetected("projector jump across stencil")
        dp_dz.append(0.5 * (px - 1j * py))
        dp_dzbar.append(0.5 * (px + 1j * py))

    fs = np.zeros((d, d), dtype=complex)
    for l in range(d):
        for m in range(d):
            fs[l, m] = np.trace(dp_dz[l] @ dp_dzbar[m] @ p0)
    # potential Hessian of log det M equals the FS trace form
    return _assemble_sample(zs, k, fs, "oracle")


# ---------------------------------------------------------------------------
# Degenerate fallback and asymptotics

def _product_fallback(zs, k, route, one_slot):
    """Product of independent one-slot ratios when n < d.

    The two-point kernel matrix is singular (fewer forms than slots),
    so the genuine d-slot form degenerates; the per-slot product of
    ``one_slot(z)`` ratios is reported with the degenerate flag set.
    """
    samples = [one_slot(z).fs_volume_ratio for z in zs]
    d = len(zs)
    form = np.diag([samples[l] / (2.0 * zs[l].y ** 2) for l in range(d)])
    return FSVolumeSample(
        z=list(zs), k=k, fs_volume_ratio=math.prod(samples),
        per_factor_ratios=samples, hermitian_form=form.astype(complex),
        route=route, degenerate=True,
    )


def ma_asymptotic_check(basis_by_k, divisor: Divisor, z: UhpPoint,
                        k_list: Sequence[int]):
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
        frame = vanishing_subspace(basis, divisor)
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


# ---------------------------------------------------------------------------
# Volume scan

@dataclass
class SymScanRow:
    k: int
    z: list
    ratio: float
    ratio_over_k2d: float
    route: str
    degenerate: bool
    error: Optional[str] = None


@dataclass
class SymScanSummary:
    k: int
    d: int
    sup_ratio_over_k2d: float
    limit: float
    within_limit: bool


def volume_ratio_scan(basis_by_k, tuples: Sequence[Sequence[UhpPoint]],
                      k_list: Sequence[int], separable: bool = False,
                      threads: int = 1):
    """fs_volume_ratio / k^(2d) per tuple and per k, against (26/pi)^d.

    In separable mode the ratio is defined as the product of per-slot
    one-point ratios (the synthetic product model), which makes the
    sup over a Cartesian grid factor exactly.
    """
    rows, summaries = [], []
    for k in k_list:
        basis = basis_by_k(k)

        def eval_tuple(zs, k=k, basis=basis):
            try:
                if separable:
                    parts = [fs_form_formula(basis, [z], k).fs_volume_ratio
                             for z in zs]
                    return math.prod(parts), "formula", False, None
                s = fs_form_formula(basis, list(zs), k)
                return s.fs_volume_ratio, s.route, s.degenerate, None
            except Exception as exc:
                return math.nan, "formula", False, f"{type(exc).__name__}: {exc}"

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(eval_tuple, tuples))
        else:
            results = [eval_tuple(zs) for zs in tuples]

        d = len(tuples[0]) if tuples else 1
        sup = -math.inf
        for zs, (ratio, route, degen, err) in zip(tuples, results):
            over = abs(ratio) / k ** (2 * d) if not math.isnan(ratio) else math.nan
            rows.append(SymScanRow(k=k, z=list(zs), ratio=ratio,
                                   ratio_over_k2d=over, route=route,
                                   degenerate=degen, error=err))
            if err is None and over > sup:
                sup = over
        limit = RATIO_LIMIT ** d
        # a weight whose rows are all flagged has no sup to pass
        summaries.append(SymScanSummary(
            k=k, d=d, sup_ratio_over_k2d=sup, limit=limit,
            within_limit=-math.inf < sup <= limit))
    return rows, summaries
