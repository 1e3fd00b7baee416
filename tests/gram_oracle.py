"""The Petersson Gram by a 2-D Gauss-Legendre rule on a tall domain.

The oracle the program's Gram is checked against.  The modular domain
|x| <= 1/2, |z| >= 1 is cut at the height ``cutoff``: below it, x runs
over ``x_panels`` equal panels and, above each x node, y over
``y_panels`` equal panels from the arc up to the cutoff, each panel
with ``nodes`` Gauss-Legendre nodes; above it the Gram is the exact
tail sum_m a_m conj(a'_m) Gamma(2k-1, 4 pi m cutoff) / (4 pi m)^(2k-1)
from mpmath's incomplete gamma function.  Every coefficient is summed
at every node.  Also here: the monomial bases Delta^a E4^b E6^c of
S_2k, their exact series from ``bergman.forms.level_one_series``.
"""
import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from bergman.forms import level_one_series


def gram_nodes(k, cutoff=4.0, x_panels=4, y_panels=8, nodes=16):
    """Nodes z and weights w y^(2k-2) of the rule below the cutoff."""
    t, w = leggauss(nodes)
    xe = -0.5 + np.arange(x_panels + 1) / x_panels
    a, b = xe[:-1, None], xe[1:, None]
    xs = (0.5 * (b - a) * t + 0.5 * (a + b)).ravel()
    wx = (w * 0.5 * (b - a)).ravel()
    ylo = np.sqrt(np.maximum(1.0 - xs * xs, 0.0))
    keep = ylo < cutoff
    # axes: x node, y panel, y node
    xs, wx, ylo = (v[keep, None, None] for v in (xs, wx, ylo))
    py = np.arange(y_panels)[:, None]
    ya = ylo + (cutoff - ylo) * py / y_panels
    yb = ylo + (cutoff - ylo) * (py + 1) / y_panels
    ys = 0.5 * (yb - ya) * t + 0.5 * (ya + yb)
    zs = (xs + 1j * ys).ravel()
    return zs, (wx * (w * 0.5 * (yb - ya)) * ys ** (2 * k - 2)).ravel()


def tail_gram(coefficients, k, cutoff):
    """The exact Gram above the cutoff, where the domain is a full period;
    the incomplete gamma functions in 30 digits."""
    s = 2 * k - 1
    with mpmath.workdps(30):
        integral = np.array([
            float(mpmath.gammainc(s, 4 * mpmath.pi * m * cutoff)
                  / (4 * mpmath.pi * m) ** s)
            for m in range(1, coefficients.shape[1] + 1)])
    return (coefficients * integral) @ coefficients.conj().T


def tall_gram(basis, cutoff=4.0, x_panels=4, y_panels=8, nodes=16):
    """Hermitian Gram V diag(w) V^H over ``gram_nodes`` plus the tail."""
    coefficients, k = basis.coefficients, basis.k
    zs, ws = gram_nodes(k, cutoff, x_panels, y_panels, nodes)
    m = np.arange(1, coefficients.shape[1] + 1)
    gram = tail_gram(coefficients, k, cutoff)
    for lo in range(0, len(zs), 256):
        q = np.exp(2j * math.pi * np.outer(zs[lo:lo + 256], m))
        v = q @ coefficients.T
        gram += v.T @ (ws[lo:lo + 256, None] * v.conj())
    return 0.5 * (gram + gram.conj().T)


def monomial_rows(weight, n=200):
    """Coefficients a_1..a_(n-1) of Delta^a E4^b E6^c, a = 1, 2, ...,
    4b + 6c = weight - 12a, c = 0 or 1: a basis of S_weight, exactly."""
    rows = []
    for a in range(1, weight // 12 + 1):
        rest = weight - 12 * a
        c = rest % 4 // 2
        b = (rest - 6 * c) // 4
        if b >= 0:
            rows.append(level_one_series(a, b, c, n)[1:])
    return rows
