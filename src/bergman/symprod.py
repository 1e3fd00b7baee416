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

from .forms import CuspFormBasis
from .metric import RATIO_LIMIT
from .uhp import DomainError, UhpPoint


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
    coefficients: np.ndarray  # n x r, columns orthonormal

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
    _, s, vh = np.linalg.svd(ev, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    if rank < divisor.degree:
        warnings.warn(
            f"evaluation rank {rank} < degree {divisor.degree}",
            DegenerateDivisor)
    num = int(np.sum(s > 1e-10 * np.max(s, initial=0.0)))
    frame = vh[num:].conj().T
    return SubspaceFrame(coefficients=frame)


def weight0_subspace_kernel(frame: SubspaceFrame, basis: CuspFormBasis,
                            z: UhpPoint) -> float:
    """Sum over frame columns of |combined form(z)|^2, no y^(2k) factor."""
    vec = basis.values(z) @ frame.coefficients
    return float(np.real(np.vdot(vec, vec)))


def nested_log_potential(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> float:
    """Potential sum_j log psi_j through the nested subspace pipeline.

    psi_j is the weight-0 kernel of the subspace vanishing on
    z_1, ..., z_{j-1}, evaluated at z_j; by Schur telescoping the sum
    equals log det of the two-point kernel matrix.
    """
    total = 0.0
    for j, z in enumerate(zs):
        if j == 0:
            frame = SubspaceFrame(np.eye(basis.size, dtype=complex))
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
    degenerate: bool = False


def _near_diagonal(pts: np.ndarray) -> list:
    """Per row of a T x d point array, NearDiagonal or None.

    A row is refused when two of its points lie within hyperbolic
    distance 1e-3.  The least cosh^2(d/2) of each row, ``hyp_distance``'s
    argument, is taken over all rows at once, one pair of slots at a
    time; only rows within twice that distance take the distance itself.
    """
    t = np.full(len(pts), np.inf)
    for i in range(pts.shape[1]):
        for j in range(i + 1, pts.shape[1]):
            a, b = pts[:, i], pts[:, j]
            t = np.minimum(t, ((a.real - b.real) ** 2 + (a.imag + b.imag) ** 2)
                           / (4.0 * a.imag * b.imag))
    refused = [None] * len(pts)
    for row in np.flatnonzero(t < math.cosh(1e-3) ** 2):
        dmin = 2.0 * math.acosh(math.sqrt(max(t[row], 1.0)))
        if dmin < 1e-3:
            refused[row] = NearDiagonal(f"min pairwise distance {dmin:.2e}")
    return refused


def _guard_tuple(zs: Sequence[UhpPoint]):
    refused = _near_diagonal(np.array([[z.z for z in zs]]))[0]
    if refused:
        raise refused


def _assemble_forms(ys: np.ndarray, hessian_phi: np.ndarray, k: int):
    """Deliverable forms G and volume ratios from a stack of potential Hessians.

    G_lm = -(1/2pi) Hess_lm + delta_lm k/(4 pi y_l^2); the diagonal
    k-term is the exact contribution of the y^(2k) weights.  The
    volume ratio multiplies det G by prod 2 y_j^2 (the inverse
    hyperbolic volume density).  ``ys`` holds the T x d heights and
    ``hessian_phi`` the T x d x d Hessians; returns the forms, the
    T x d per-factor ratios 2 y_l^2 G_ll and the T volume ratios.
    """
    g_mat = -hessian_phi / (2.0 * math.pi)
    diag = np.arange(ys.shape[1])
    g_mat[:, diag, diag] += k / (4.0 * math.pi * ys ** 2)
    per_factor = 2.0 * ys ** 2 * g_mat[:, diag, diag].real
    volume = np.real(np.linalg.det(g_mat)) * np.prod(2.0 * ys ** 2, axis=1)
    return g_mat, per_factor, volume


def _assemble_sample(zs, k, hessian_phi, route, degenerate=False):
    """FSVolumeSample of one tuple from its potential Hessian."""
    g_mat, per_factor, volume = _assemble_forms(
        np.array([[z.y for z in zs]]), hessian_phi[None], k)
    return FSVolumeSample(
        z=list(zs), k=k, fs_volume_ratio=float(volume[0]),
        per_factor_ratios=per_factor[0].tolist(),
        hermitian_form=g_mat[0], route=route, degenerate=degenerate,
    )


def _fd_steps(zs, step: Optional[float]):
    return [step or max(1e-4, 1e-4 * z.y) for z in zs]


def _conj_t(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _stacked_qr(v: np.ndarray):
    """Complete QR factors of each V^H in a T x d x n stack of rows f(z_i).

    Returns the T x n x n unitary Q, the top d x d blocks R_1 of R, so
    that M = V V^H = R_1^H R_1, and a mask of the members whose
    covectors are nearly dependent (some |R_1_ii| below 1e-12 of the
    largest), for which M is numerically singular.
    """
    q, r = np.linalg.qr(_conj_t(v), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    dependent = np.min(diag, axis=-1) < 1e-12 * np.maximum(
        np.max(diag, axis=-1), 1e-300)
    return q, r[:, :v.shape[1]], dependent


def _covector_qr(basis: CuspFormBasis, zs: Sequence[UhpPoint]):
    """Q and R_1 of one tuple; refuses nearly dependent covectors."""
    q, r1, dependent = _stacked_qr(basis.values(zs)[None])
    if dependent[0]:
        raise DomainError("evaluation covectors nearly dependent")
    return q[0], r1[0]


def _tuple_length(tuples) -> int:
    """The common number of points of the tuples; refuses mixed lengths."""
    lengths = {len(zs) for zs in tuples}
    if len(lengths) > 1:
        raise DomainError(f"tuples of mixed lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 1


def fs_form_batch(basis: CuspFormBasis, tuples, k: int) -> list:
    """Fubini-Study pullbacks of equal-length tuples, evaluated as one stack.

    With D the rows f'(z_i), d_l dbar_m log det M = (D P D^H)_lm
    (M^-1)_ml, P the projector onto the orthogonal complement of the
    evaluation covectors.  From V^H = QR, D P D^H = W W^H with
    W = D Q_perp (Q_perp the last n - d columns of Q, empty when
    n = d) and M^-1 = R_1^-1 R_1^-H.  V and D of every tuple come from
    one batched evaluation, and the QR, inverse and determinant are
    each one stacked call.

    Returns, per tuple, an FSVolumeSample or the exception refusing
    it: NearDiagonal (checked first), then DomainError for nearly
    dependent covectors.  A refused tuple's R_1 is replaced by the
    identity before the stacked inverse, so it leaves the others as
    they are.  When n < d each tuple takes the flagged product of its
    one-slot ratios, from one batch of d = 1 over all the points.
    """
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    if basis.size == 0:
        raise DomainError("basis has no forms")
    d = _tuple_length(tuples)
    if not tuples:
        return []
    pts = np.array([[z.z for z in zs] for zs in tuples], dtype=complex)
    refused = _near_diagonal(pts)
    if basis.size < d:
        singles = fs_form_batch(basis, [(z,) for zs in tuples for z in zs], k)
        out = []
        for t, zs in enumerate(tuples):
            slots = singles[t * d:(t + 1) * d]
            err = refused[t] or next(
                (s for s in slots if isinstance(s, Exception)), None)
            out.append(err or _product_fallback(
                zs, k, "formula", [s.fs_volume_ratio for s in slots]))
        return out
    v, dv = basis.jets(pts)
    q, r1, dependent = _stacked_qr(v)
    for t in np.flatnonzero(dependent):
        refused[t] = refused[t] or DomainError(
            "evaluation covectors nearly dependent")
    r1[[err is not None for err in refused]] = np.eye(d)
    w = dv @ q[:, :, d:]
    rinv = np.linalg.inv(r1)
    hess = (w @ _conj_t(w)) * (rinv @ _conj_t(rinv)).swapaxes(-1, -2)
    g_mat, per_factor, volume = _assemble_forms(pts.imag, hess, k)
    return [err or FSVolumeSample(
                z=list(zs), k=k, fs_volume_ratio=float(volume[t]),
                per_factor_ratios=per_factor[t].tolist(),
                hermitian_form=g_mat[t], route="formula")
            for t, (zs, err) in enumerate(zip(tuples, refused))]


def fs_form_formula(basis: CuspFormBasis, zs: Sequence[UhpPoint],
                    k: int) -> FSVolumeSample:
    """Fubini-Study pullback from the closed-form Levi form of log det M.

    The batch of one of ``fs_form_batch``; raises what refuses the
    tuple.
    """
    result = fs_form_batch(basis, [list(zs)], k)[0]
    if isinstance(result, Exception):
        raise result
    return result


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
    if basis.size == 0:
        raise DomainError("basis has no forms")
    d = len(zs)
    if basis.size < d:
        return _product_fallback(
            zs, k, "oracle",
            [fs_form_direct_oracle(basis, [z], k, step).fs_volume_ratio
             for z in zs])
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

def _product_fallback(zs, k, route, samples):
    """Product of independent one-slot ratios when n < d.

    The two-point kernel matrix is singular (fewer forms than slots),
    so the genuine d-slot form degenerates; the product of the one-slot
    ratios ``samples`` is reported with the degenerate flag set.
    """
    d = len(zs)
    form = np.diag([samples[l] / (2.0 * zs[l].y ** 2) for l in range(d)])
    return FSVolumeSample(
        z=list(zs), k=k, fs_volume_ratio=math.prod(samples),
        per_factor_ratios=samples, hermitian_form=form.astype(complex),
        route=route, degenerate=True,
    )


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
    flagged: int            # rows of this weight carrying an error


def volume_ratio_scan(basis_by_k, tuples: Sequence[Sequence[UhpPoint]],
                      k_list: Sequence[int]):
    """fs_volume_ratio / k^(2d) per tuple and per k, against (26/pi)^d.

    Each weight's tuples are one stack (``fs_form_batch``); a refused
    tuple is recorded inline.  Tuples of mixed lengths are refused.
    """
    d = _tuple_length(tuples)
    rows, summaries = [], []
    for k in k_list:
        basis = basis_by_k(k)
        try:
            samples = fs_form_batch(basis, tuples, k)
        except Exception as exc:  # a refused basis refuses every tuple
            samples = [exc] * len(tuples)
        results = [
            (math.nan, "formula", False, f"{type(s).__name__}: {s}")
            if isinstance(s, Exception)
            else (s.fs_volume_ratio, s.route, s.degenerate, None)
            for s in samples]

        sup, flagged = -math.inf, 0
        for zs, (ratio, route, degen, err) in zip(tuples, results):
            over = abs(ratio) / k ** (2 * d) if not math.isnan(ratio) else math.nan
            rows.append(SymScanRow(k=k, z=list(zs), ratio=ratio,
                                   ratio_over_k2d=over, route=route,
                                   degenerate=degen, error=err))
            flagged += err is not None
            if err is None and over > sup:
                sup = over
        limit = RATIO_LIMIT ** d
        # a weight whose rows are all flagged has no sup to pass
        summaries.append(SymScanSummary(
            k=k, d=d, sup_ratio_over_k2d=sup, limit=limit,
            within_limit=-math.inf < sup <= limit, flagged=flagged))
    return rows, summaries
