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
from typing import Sequence

import numpy as np

from .forms import CuspFormBasis
from .metric import RATIO_LIMIT, summarize
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


def vanishing_subspace(basis: CuspFormBasis,
                       zs: Sequence[UhpPoint]) -> np.ndarray:
    """n x r orthonormal frame of the forms vanishing at the distinct zs."""
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    if not zs:
        raise DomainError("need at least one point")
    if len({(p.x, p.y) for p in zs}) != len(zs):
        raise DomainError("points must be distinct")
    ev = basis.values(zs)
    scale = np.max(np.abs(ev))
    if scale > 0:
        ev = ev / scale
    # one SVD serves the rank warning (absolute cutoff) and the frame
    # (cutoff relative to the largest singular value, as null_space)
    _, s, vh = np.linalg.svd(ev, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    if rank < len(zs):
        warnings.warn(f"evaluation rank {rank} < degree {len(zs)}",
                      DegenerateDivisor)
    num = int(np.sum(s > 1e-10 * np.max(s, initial=0.0)))
    return vh[num:].conj().T


def nested_log_potential(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> float:
    """Potential sum_j log psi_j through the nested subspace pipeline.

    psi_j is the weight-0 kernel of the subspace vanishing on
    z_1, ..., z_{j-1}, evaluated at z_j: the sum over the subspace's
    frame of |combined form(z_j)|^2, no y^(2k) factor.  By Schur
    telescoping the sum equals log det of the two-point kernel matrix.
    """
    total = 0.0
    for j, z in enumerate(zs):
        vec = basis.values(z)
        if j:
            vec = vec @ vanishing_subspace(basis, zs[:j])
        psi = float(np.real(np.vdot(vec, vec)))
        if psi <= 0.0:
            raise DomainError(f"subspace kernel vanished at slot {j}")
        total += math.log(psi)
    return total


@dataclass
class FSVolumeSample:
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


def _sample(forms, per_factor, volume, route, degenerate=False):
    """FSVolumeSample of one tuple from the columns of a batch of one."""
    return FSVolumeSample(float(volume[0]), per_factor[0].tolist(), forms[0],
                          route, degenerate)


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


@dataclass
class FSColumns:
    """Fubini-Study pullbacks of a T x d stack of tuples, row t at tuple t.

    A refused row holds NaN and the exception refusing it in
    ``refusals`` (None for the others).  ``degenerate`` marks the n < d
    product fallback, which a stack takes as a whole or not at all.
    """
    volume: np.ndarray          # T volume ratios
    per_factor: np.ndarray      # T x d ratios 2 y_l^2 G_ll
    forms: np.ndarray           # T x d x d Hermitian forms G
    degenerate: bool
    refusals: list


def fs_form_batch(basis: CuspFormBasis, pts: np.ndarray, k: int) -> FSColumns:
    """Fubini-Study pullbacks of the tuples ``pts`` (T x d complex points).

    With D the rows f'(z_i), d_l dbar_m log det M = (D P D^H)_lm
    (M^-1)_ml, P the projector onto the orthogonal complement of the
    evaluation covectors.  From V^H = QR, D P D^H = W W^H with
    W = D Q_perp (Q_perp the last n - d columns of Q, empty when
    n = d) and M^-1 = R_1^-1 R_1^-H.  V and D of every tuple come from
    one batched evaluation, and the QR, inverse and determinant are
    each one stacked call.

    A tuple is refused by NearDiagonal (checked first), then by a
    DomainError for nearly dependent covectors.  A refused tuple's R_1
    is replaced by the identity before the stacked inverse, so it
    leaves the others as they are.  When n < d each tuple takes the
    flagged product of its one-slot ratios, from one batch of d = 1
    over all the points.
    """
    if not basis.orthonormal_flag:
        raise DomainError("basis must be orthonormal")
    if basis.size == 0:
        raise DomainError("basis has no forms")
    t, d = pts.shape
    refused = _near_diagonal(pts)
    if basis.size < d:
        one = fs_form_batch(basis, pts.reshape(-1, 1), k)
        for row in range(t):
            refused[row] = refused[row] or next(
                (e for e in one.refusals[row * d:(row + 1) * d] if e), None)
        per_factor = one.volume.reshape(t, d)
        forms, volume = _product_forms(pts.imag, per_factor)
    else:
        v, dv = basis.jets(pts)
        q, r1, dependent = _stacked_qr(v)
        for row in np.flatnonzero(dependent):
            refused[row] = refused[row] or DomainError(
                "evaluation covectors nearly dependent")
        r1[[err is not None for err in refused]] = np.eye(d)
        w = dv @ q[:, :, d:]
        rinv = np.linalg.inv(r1)
        hess = (w @ _conj_t(w)) * (rinv @ _conj_t(rinv)).swapaxes(-1, -2)
        forms, per_factor, volume = _assemble_forms(pts.imag, hess, k)
    bad = [err is not None for err in refused]
    for col in (volume, per_factor, forms):
        col[bad] = np.nan
    return FSColumns(volume, per_factor, forms, basis.size < d, refused)


def fs_form_formula(basis: CuspFormBasis, zs: Sequence[UhpPoint],
                    k: int) -> FSVolumeSample:
    """Fubini-Study pullback from the closed-form Levi form of log det M:
    the batch of one of ``fs_form_batch``, raising what refuses it."""
    cols = fs_form_batch(basis, np.array([[z.z for z in zs]]), k)
    if cols.refusals[0]:
        raise cols.refusals[0]
    return _sample(cols.forms, cols.per_factor, cols.volume, "formula",
                   cols.degenerate)


# ---------------------------------------------------------------------------
# Direct Grassmannian oracle

def _projector(basis: CuspFormBasis, zs: Sequence[UhpPoint]) -> np.ndarray:
    """Orthogonal projector onto the span of the evaluation covectors.

    Gauge-invariant: any frame choice for the span yields the same
    projector, so no column alignment across stencil points is needed.
    """
    q, _, dependent = _stacked_qr(basis.values(zs)[None])
    if dependent[0]:
        raise DomainError("evaluation covectors nearly dependent")
    q1 = q[0, :, :len(zs)]
    return q1 @ q1.conj().T


def fs_form_direct_oracle(basis: CuspFormBasis, zs: Sequence[UhpPoint],
                          k: int) -> FSVolumeSample:
    """Independent route: trace form of the moving projector.

    FS_lm = tr(dP/dz_l . dP/dzbar_m . P) with P the projector onto the
    orthogonal complement of the vanishing subspace, derivatives by
    central differences; the Hessian of the potential is -2 Re-free
    equality FS_lm = d_l dbar_m log det M, checked in tests.
    """
    refused = _near_diagonal(np.array([[z.z for z in zs]]))[0]
    if refused:
        raise refused
    if basis.size == 0:
        raise DomainError("basis has no forms")
    d = len(zs)
    if basis.size < d:
        per_factor = np.array([[fs_form_direct_oracle(basis, [z], k)
                                .fs_volume_ratio for z in zs]])
        forms, volume = _product_forms(np.array([[z.y for z in zs]]),
                                       per_factor)
        return _sample(forms, per_factor, volume, "oracle", True)
    steps = [max(1e-4, 1e-4 * z.y) for z in zs]
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
    return _sample(*_assemble_forms(np.array([[z.y for z in zs]]), fs[None], k),
                   "oracle")


# ---------------------------------------------------------------------------
# Degenerate fallback

def _product_forms(ys: np.ndarray, per_factor: np.ndarray):
    """Forms and volume ratios of the product fallback when n < d.

    The two-point kernel matrix is singular (fewer forms than slots), so
    the genuine d-slot form degenerates; each tuple reports the product
    of its one-slot ratios ``per_factor`` and the form diag r_l / 2 y_l^2.
    """
    t, d = per_factor.shape
    # Python's y ** 2 is C pow, which numpy's ys ** 2 (a product) can
    # miss by one bit; the fallback has always squared with pow
    squares = np.array([[y ** 2 for y in row] for row in ys.tolist()])
    forms = np.zeros((t, d, d), dtype=complex)
    forms[:, np.arange(d), np.arange(d)] = per_factor / (2.0 * squares)
    return forms, math.prod(per_factor.T)


# ---------------------------------------------------------------------------
# Volume scan

@dataclass
class SymScanColumns:
    """One weight's sym-scan rows, row t at tuple t; a refused row holds
    NaN, degenerate False and ``"Type: message"`` in ``errors``."""
    k: int
    ratio: np.ndarray
    ratio_over_k2d: np.ndarray
    degenerate: np.ndarray
    errors: list


def volume_ratio_scan(basis: CuspFormBasis, pts: np.ndarray):
    """fs_volume_ratio / k^(2d) per tuple at the basis's weight k, against
    (26/pi)^d.

    ``pts`` holds the T tuples as a T x d complex array.  The tuples are
    one stack (``fs_form_batch``) and give one ``SymScanColumns`` and its
    ``ScanSummary``; a refused tuple is recorded in its row.
    """
    if np.ndim(pts) != 2:
        raise DomainError(f"tuples must form a T x d array, got shape "
                          f"{np.shape(pts)}")
    t, d = pts.shape
    k = basis.k
    try:
        cols = fs_form_batch(basis, pts, k)
        ratio, refusals = cols.volume, cols.refusals
        degenerate = cols.degenerate
    except Exception as exc:  # a refused basis refuses every tuple
        ratio, refusals, degenerate = np.full(t, np.nan), [exc] * t, False
    errors = [None if e is None else f"{type(e).__name__}: {e}"
              for e in refusals]
    ok = np.array([e is None for e in errors], dtype=bool)
    over = np.abs(ratio) / float(k ** (2 * d))
    return (SymScanColumns(k, ratio, over, ok & degenerate, errors),
            summarize(k, over, ~ok, RATIO_LIMIT ** d))
