"""The weight-2k Bergman kernel of PSL(2, Z) from its Fourier expansion.

With an orthonormal basis f_j = sum_m a_j(m) q^m of S_2k, the kernel is
B = sum_j |f_j|^2 = sum c_mn q^m conj(q)^n, and Petersson's formula gives
the coefficients c_mn = sum_j a_j(m) conj(a_j(n)) with no basis at all, as
a sum of Kloosterman sums times Bessel functions J_(2k-1).  One table per
weight holds c_mn for m, n <= TABLE_SIZE; B, dB/dz and d2B/dz dzbar then
cost a few dozen terms a point, where the coset sum of kernel.py lists
thousands of cosets whose terms cancel.  Each entry and each value
carries an absolute error bound from the Kloosterman moduli left out,
the pairs (m, n) left out and rounding.  The tables depend on k alone:
scripts/make_fourier_tables.py computes them, with the height Y_k from
which each serves, and writes them to TABLES, which
``load_fourier_table`` reads.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .kernel import EPS, TWO_PI, _series_tail, accurate_sum

# a table holds c_mn for m, n <= TABLE_SIZE
TABLE_SIZE = 8
# the tables, one JSON line per weight, beside this module
TABLES = Path(__file__).with_name("fourier_tables.jsonl")


def _table_scale(k: int) -> tuple:
    """(P_11, K^2): the delta term (4 pi)^(2k-1)/(2k-2)! of c_11, and K^2
    with c_mm <= K^2 m^(2k) for every m >= 1 (see ``fourier_table`` of
    scripts/make_fourier_tables.py)."""
    nu = 2 * k - 1
    lead = math.pow(4.0 * math.pi, nu) / math.factorial(nu - 1)
    return lead, lead * (1.0 + TWO_PI + 4.0 * math.pi ** 2 * math.e
                         / (nu - 1)) * (1.0 + (nu + 8) * EPS)


def _pair_tails(scale: float, k: int, size: int, y):
    """Bounds on the parts of B, dB and d2B beyond m, n <= size, at y.

    |c_mn| <= sqrt(c_mm c_nn) <= K^2 m^k n^k, so with
    H_j = sum_(m <= size) m^(k+j) r^m and T_j the rest of that sum
    (``_series_tail``), r = e^(-2 pi y), the pairs off the table add at
    most K^2 T_0 (2 H_0 + T_0) to B, 2 pi K^2 (H_1 T_0 + T_1 H_0 + T_1 T_0)
    to dB and 4 pi^2 K^2 T_1 (2 H_1 + T_1) to d2B.  Elementwise in y.
    """
    y = np.asarray(y, dtype=float)
    r = np.exp(-TWO_PI * y)
    m = np.arange(1, size + 1, dtype=float)
    powers = np.power(r[..., None], m)
    h0 = (powers * m ** k).sum(axis=-1)
    h1 = (powers * m ** (k + 1)).sum(axis=-1)
    t0 = _series_tail(r, k + 1, size)
    t1 = _series_tail(r, k + 2, size)
    grow = scale * (1.0 + 4 * (size + k) * EPS)
    return (grow * t0 * (2 * h0 + t0),
            grow * TWO_PI * (h1 * t0 + t1 * h0 + t1 * t0),
            grow * TWO_PI ** 2 * t1 * (2 * h1 + t1))


def load_fourier_table(k: int):
    """(Y_k, (c_mn, their error bounds)) of the weight-2k table, or None
    for a weight without one (k < 6 or k > 85).

    Reads the weight's line of TABLES: Y_k, the least height at which
    the pairs beyond m, n <= TABLE_SIZE add at most EPS of the leading
    term, and the entries c_mn, m <= n, with their absolute error
    bounds, as scripts/make_fourier_tables.py computed them.  Returns
    the real symmetric matrix c_mn, m, n <= TABLE_SIZE, and its bounds.
    """
    prefix = f'{{"k": {k},'
    with open(TABLES, encoding="utf-8") as fh:
        line = next((line for line in fh if line.startswith(prefix)), None)
    if line is None:
        return None
    row = json.loads(line)
    m, n = np.triu_indices(TABLE_SIZE)
    coefficients = np.zeros((TABLE_SIZE, TABLE_SIZE))
    errors = np.zeros((TABLE_SIZE, TABLE_SIZE))
    coefficients[m, n] = coefficients[n, m] = row["c"]
    errors[m, n] = errors[n, m] = row["err"]
    return row["height"], (coefficients, errors)


def fourier_bundles(k: int, table, z: np.ndarray, delta=None):
    """B, dB/dz, d2B/dz dzbar at each point of z from the weight-2k table.

    ``table`` is the pair (c_mn, their error bounds) of
    ``load_fourier_table``.

    With q = e^(2 pi i z), B = sum c_mn q^m conj(q)^n,
    dB = sum 2 pi i m c_mn q^m conj(q)^n and
    d2B = sum 4 pi^2 m n c_mn q^m conj(q)^n, each summed by
    ``accurate_sum`` over its real terms c_mn r^(m+n) cos or sin of
    2 pi (m - n) x, r = e^(-2 pi y) (x reduced to [-1/2, 1/2] exactly).
    Returns the three columns and an (n, 3) array bounding their absolute
    errors: each entry's error, the rounding of r^(m+n) (EPS (3 pi (m+n) y
    + 1)) and of the trigonometric factor (EPS (3 pi |m - n| |x| + 1)),
    the sums' own bound, and the pairs off the table (``_pair_tails``).
    With ``delta``, row i's bounds hold within delta[i] of z[i]: a row with
    delta > 0 adds 2 pi (m + n) delta times each term's size, from |c_mn|
    plus its error at y - delta, and the tails there.  A row depends on
    its own point alone.
    """
    coefficients, entry_errors = table
    z = np.asarray(z, dtype=complex)
    size = len(coefficients)
    x = z.real - np.rint(z.real)
    y = z.imag
    m = np.arange(1, size + 1, dtype=float)
    plus = (m[:, None] + m).ravel()
    minus = (m[:, None] - m).ravel()
    weights = np.stack([np.ones(size * size), np.repeat(TWO_PI * m, size),
                        np.repeat(TWO_PI * m, size),
                        TWO_PI ** 2 * np.outer(m, m).ravel()])
    r = np.exp(-TWO_PI * y[:, None] * plus)
    angle = TWO_PI * x[:, None] * minus
    cos, sin = np.cos(angle), np.sin(angle)
    scaled = coefficients.ravel() * r
    # (point, sum, pair): B, Re dB, Im dB, d2B
    trig = np.stack([cos, -sin, cos, cos], axis=1)
    terms = scaled[:, None] * trig * weights
    total, sum_err = accurate_sum(terms)
    r_err = EPS * (3 * math.pi * y[:, None] * plus + 4)
    trig_err = EPS * (3 * math.pi * np.abs(x)[:, None] * np.abs(minus) + 1)
    term_err = weights * (
        (np.abs(scaled) * r_err + entry_errors.ravel() * r)[:, None]
        * np.abs(trig) + (np.abs(scaled) * trig_err)[:, None])
    err = np.sort(term_err, axis=-1).sum(axis=-1) * (
        1.0 + size * size * EPS) + sum_err
    tails = _pair_tails(_table_scale(k)[1], k, size, y)
    errors = np.stack([err[:, 0] + tails[0], err[:, 1] + err[:, 2] + tails[1],
                       err[:, 3] + tails[2]], axis=1)
    if delta is not None and delta.any():
        low = y - delta
        slope = (np.abs(coefficients) + entry_errors).ravel() * TWO_PI * plus
        move = (delta[:, None] * (slope * np.exp(-TWO_PI * low[:, None] * plus))
                @ weights[[0, 1, 3]].T * (1.0 + 4 * size * size * EPS)
                + np.stack(_pair_tails(_table_scale(k)[1], k, size, low), 1))
        errors += np.where(delta[:, None] > 0.0, move, 0.0)
    return total[:, 0], total[:, 1] + 1j * total[:, 2], total[:, 3], errors
