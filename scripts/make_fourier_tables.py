#!/usr/bin/env python3
"""Regenerate src/bergman/fourier_tables.jsonl, the PSL(2, Z) Fourier tables.

    python3 scripts/make_fourier_tables.py [--out PATH] [--check]

With an orthonormal basis f_j = sum_m a_j(m) q^m of S_2k, the weight-0
Bergman kernel is B = sum c_mn q^m conj(q)^n, and Petersson's formula
gives c_mn = sum_j a_j(m) conj(a_j(n)) with no basis at all, as a sum of
Kloosterman sums times Bessel functions J_(2k-1) (``fourier_table``).
The table depends on k alone, so it is computed here, once, and
``bergman.fourier.load_fourier_table`` reads it.  The file holds one
line per weight with a plan (``fourier_plan``: k = 6 ... 85), a JSON
object with k, the height Y_k from which the table serves, and the 36
entries c_mn, m <= n <= TABLE_SIZE, in ``np.triu_indices`` order with
their absolute error bounds, every float written as its repr so that it
reads back bit for bit.

With --check nothing is written: the script exits 1 naming the first
weight whose line in the file differs from the one computed here (or is
missing or extra), and 0 if the file is current.
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from itertools import zip_longest

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bergman.fourier import (TABLE_SIZE, TABLES, _pair_tails,  # noqa: E402
                             _table_scale)
from bergman.groups import _unimodular_tops  # noqa: E402
from bergman.kernel import EPS, TWO_PI, accurate_sum  # noqa: E402

# a table sums the Kloosterman moduli c <= C_k, and C_k is at most this
TABLE_MODULI = 64
# Y_k is a multiple of this
TABLE_HEIGHT_STEP = 0.125
# Horner depth of the Bessel power series; its cut-off, below 2^-T/T!,
# is below EPS/100
BESSEL_TERMS = 16
# every weight whose factorials fit a double, 2k - 1 <= 170
WEIGHTS = range(2, 86)


def bessel_j(nu: int, x: np.ndarray):
    """J_nu(x) for an integer order nu >= 1 at each x >= 0, with bounds.

    Where x^2 <= 2(nu + 1), the power series (x/2)^nu/nu! F with
    F = sum_j (-x^2/4)^j / (j! (nu+1)...(nu+j)), summed by Horner's rule
    to j = T = BESSEL_TERMS: term j is at most 1/(2j) of the one before
    and alternates in sign, so F >= 1/2, the cut-off is below 2^-T/T!
    and the rounding of F below 5 EPS; with (x/2)^nu/nu! good to 2 EPS,
    J is good to 16 EPS.  Elsewhere the N-point trapezoid rule on Bessel's
    integral J_nu(x) = (1/2 pi) int_0^(2 pi) cos(nu t - x sin t) dt,
    which returns sum over l of J_(nu + lN)(x): its aliases J_(lN +- nu),
    l >= 1, are each at most (x/2)^mu/mu! for some mu >= N - nu, at most
    twice each mu, so their sum is at most
    2 (x/2)^mu0/mu0! / (1 - x/(2 mu0 + 2)) with mu0 = N - nu (Stirling's
    lower bound for mu0!).  N is the least power of two from 32 that
    takes this below EPS/2.  A sample is off by at most
    EPS (3 pi + 1 + x (pi/2 + 2)), and their pairwise mean adds
    EPS log2(N)/2.
    Returns J and a bound on its absolute error at the given x.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    j = np.zeros_like(x)
    err = np.zeros_like(x)
    small = x * x <= 2.0 * (nu + 1)
    xs = x[small]
    u = -0.25 * xs * xs
    f = np.ones_like(xs)
    for t in range(BESSEL_TERMS, 0, -1):
        f = 1.0 + u / (t * (nu + t)) * f
    lead = np.power(0.5 * xs, nu) / math.factorial(nu)
    j[small] = lead * f
    # 2^-1022 covers underflow in (x/2)^nu/nu!, which bounds J
    err[small] = (16 * EPS * np.abs(j[small])
                  + lead * 2.0 ** -BESSEL_TERMS / math.factorial(BESSEL_TERMS)
                  + 2.0 ** -1022)
    big = np.flatnonzero(~small)
    if len(big):
        xb = x[big]
        sizes = np.zeros(len(big), dtype=int)
        aliases = np.zeros(len(big))
        n = 32
        while n <= nu:
            n *= 2
        while not sizes.all():
            mu = float(n - nu)
            with np.errstate(all="ignore"):
                log_alias = (math.log(2.0) + mu * np.log(0.5 * xb)
                             - (mu * math.log(mu) - mu
                                + 0.5 * math.log(TWO_PI * mu))
                             - np.log1p(-xb / (2.0 * mu + 2.0)))
            fits = (sizes == 0) & (xb < 2.0 * mu + 2.0) & (
                log_alias <= math.log(EPS / 2))
            sizes[fits] = n
            aliases[fits] = np.exp(log_alias[fits])
            n *= 2
        for n in sorted(set(sizes.tolist())):
            at = sizes == n
            # samples t and n - t are equal, and those at 0 and n/2 are
            # 1 and (-1)^nu: the half range, summed pairwise
            t = np.arange(1, n // 2)
            phase = TWO_PI * ((nu * t) % n) / n
            # sin t = sin(pi - t), from the angle at most pi/2
            sines = np.sin(TWO_PI * np.minimum(t, n // 2 - t) / n)
            total = np.cos(phase - xb[at, None] * sines)
            total = np.concatenate(
                [np.full((len(total), 1), 0.5 * (1 + (-1) ** nu)), total],
                axis=1)
            while total.shape[1] > 1:
                half = total.shape[1] // 2
                total = total[:, :half] + total[:, half:]
            j[big[at]] = total[:, 0] * (2.0 / n)
            err[big[at]] = aliases[at] + EPS * (
                3 * math.pi + 1 + math.log2(n) / 2
                + xb[at] * (math.pi / 2 + 2))
    return j.reshape(shape), err.reshape(shape)


def _residues(moduli: int) -> np.ndarray:
    """0, 0, 1, 0, 1, 2, ...: each residue d of each modulus c <= moduli,
    in order of c, d; the pair (c, d) at c(c - 1)/2 + d."""
    c = np.arange(1, moduli + 1)
    return np.arange(c[-1] * (c[-1] + 1) // 2) - np.repeat(c * (c - 1) // 2, c)


def _reduced_residues(moduli: int):
    """Every pair (c, d) with 1 <= c <= moduli, 0 <= d < c, gcd(c, d) = 1,
    in order of c, and the inverse of d mod c."""
    c = np.repeat(np.arange(1, moduli + 1), np.arange(1, moduli + 1))
    d = _residues(moduli)
    keep = np.gcd(c, d) == 1
    c, d = c[keep], d[keep]
    inverse, _ = _unimodular_tops(c, d)
    return c, d, inverse % c


def fourier_plan(k: int):
    """(Y_k, C_k) of the weight-2k table, or None without one.

    C_k is the fewest Kloosterman moduli that cut c_11's c-tail to EPS
    of its delta term; a weight that needs more than TABLE_MODULI (every
    k < 6) or whose factorials overflow (2k - 1 > 170) has no table.
    Y_k is the least multiple of TABLE_HEIGHT_STEP at which the pairs
    beyond m, n <= TABLE_SIZE add at most EPS of the leading term
    P_11 e^(-4 pi y) to B, and of 2 pi and 4 pi^2 times it to dB and d2B
    (``_pair_tails``).  Those tails fall faster than the leading term as
    y grows, so the same holds at every y >= Y_k.  Heights are searched
    up to 16, which every k with a table reaches (k = 85 at 5.25).
    """
    nu = 2 * k - 1
    if k < 2 or nu > 170:
        return None
    # 2 pi (2 pi)^nu / nu! * C^(1 - nu) / (nu - 1) <= EPS
    log_c = ((nu + 1) * math.log(TWO_PI) - math.lgamma(nu + 1)
             - math.log(nu - 1) - math.log(EPS)) / (nu - 1)
    moduli = max(1, math.ceil(math.exp(log_c)))
    if moduli > TABLE_MODULI:
        return None
    lead, scale = _table_scale(k)
    heights = TABLE_HEIGHT_STEP * np.arange(1, 16 / TABLE_HEIGHT_STEP + 1)
    top = EPS * lead * np.exp(-2.0 * TWO_PI * heights)
    b, d1, d2 = _pair_tails(scale, k, TABLE_SIZE, heights)
    ok = np.flatnonzero((b <= top) & (d1 <= TWO_PI * top)
                        & (d2 <= TWO_PI ** 2 * top))
    return (float(heights[ok[0]]), moduli) if len(ok) else None


def fourier_table(k: int):
    """c_mn = sum_j a_j(m) conj(a_j(n)) over an orthonormal basis of S_2k.

    Petersson's formula (Iwaniec, Topics in Classical Automorphic Forms,
    ch. 3), with nu = 2k - 1 and x = 4 pi sqrt(mn)/c:

        c_mn = (4 pi sqrt(mn))^nu / (nu - 1)!
               [delta_mn + 2 pi (-1)^k sum_c S(m, n; c)/c J_nu(x)],

    S(m, n; c) = sum over d mod c, (d, c) = 1, of cos(2 pi (m d + n d')/c),
    d' the inverse of d.  The c-sum stops at C_k of ``fourier_plan``;
    with |S| <= c and |J_nu(x)| <= (x/2)^nu/nu!, the moduli beyond add
    at most 2 pi (2 pi sqrt(mn))^nu/nu! C^(1 - nu)/(nu - 1) to the
    bracket.  The same two bounds give the diagonal's polynomial bound
    c_mm <= K^2 m^2k of ``_table_scale``: the bracket is at most
    1 + 2 pi sum_c min(1, (2 pi m/c)^nu/nu!)
    <= 1 + 2 pi (1 + 2 pi e m/(nu - 1)).
    Each entry's error bound adds that c-tail, J's own bound (and its
    change over x's rounding, at most 2 EPS min(x, 3 nu (x/2)^nu/nu!),
    as x |J_nu'(x)| <= x |J_(nu-1)(x)| + nu |J_nu(x)|),
    the rounding of the cosines and the accurate sum over c.  Returns
    the real symmetric matrix c_mn, m, n <= TABLE_SIZE, and bounds on its
    entries' absolute errors.
    """
    plan = fourier_plan(k)
    if plan is None:
        raise ValueError(f"no Fourier table for k = {k}")
    _, moduli = plan
    size = TABLE_SIZE
    nu = 2 * k - 1
    m, n = (v + 1 for v in np.triu_indices(size))
    c, d, inverse = _reduced_residues(moduli)
    # S(m, n; c) from exact residues and one cosine table, cos(2 pi j/c)
    # at row c(c-1)/2 + j; each cosine is off by at most (4 pi + 1) EPS,
    # and their sums, in order, add EPS per term each
    first = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
    phases = (m[:, None] * d + n[:, None] * inverse) % c
    moduli_c = np.arange(1, moduli + 1)
    cosines = np.cos(TWO_PI * _residues(moduli)
                     / np.repeat(moduli_c, moduli_c))
    kloost = np.add.reduceat(cosines[c * (c - 1) // 2 + phases], first,
                             axis=1)
    count = np.diff(np.r_[first, len(c)])
    kloost_err = count * (4 * math.pi + 1 + count) * EPS
    moduli_c = moduli_c.astype(float)
    root = np.sqrt((m * n).astype(float))
    x = 4.0 * math.pi * root[:, None] / moduli_c
    bessel, bessel_err = bessel_j(nu, x)
    majorant = np.power(0.5 * x, nu) / math.factorial(nu)
    bessel_err = bessel_err + 2 * EPS * np.minimum(x, 3 * nu * majorant)
    terms = TWO_PI * kloost * bessel / moduli_c
    term_err = (TWO_PI / moduli_c * (kloost_err * (np.abs(bessel) + bessel_err)
                                     + (np.abs(kloost) + kloost_err)
                                     * bessel_err)
                + 4 * EPS * np.abs(terms))
    total, sum_err = accurate_sum(terms)
    ctail = (TWO_PI * np.power(TWO_PI * root, nu) / math.factorial(nu)
             * moduli ** (1.0 - nu) / (nu - 1) * (1.0 + 4 * (nu + 2) * EPS))
    bracket = (m == n) + (-1) ** k * total
    bracket_err = (sum_err + term_err.sum(axis=1) * (1.0 + moduli * EPS)
                   + ctail + EPS * np.abs(bracket))
    lead, _ = _table_scale(k)
    delta = lead * np.power(root, nu)
    entry = delta * bracket
    entry_err = (delta * bracket_err * (1.0 + EPS)
                 + np.abs(entry) * EPS * (nu / 2 + 5))
    coefficients = np.zeros((size, size))
    errors = np.zeros((size, size))
    coefficients[m - 1, n - 1] = coefficients[n - 1, m - 1] = entry
    errors[m - 1, n - 1] = errors[n - 1, m - 1] = entry_err
    return coefficients, errors


def table_lines() -> list:
    """The file's lines, one per weight of WEIGHTS with a plan."""
    upper = np.triu_indices(TABLE_SIZE)
    lines = []
    for k in WEIGHTS:
        plan = fourier_plan(k)
        if plan is None:
            continue
        coefficients, errors = fourier_table(k)
        lines.append(json.dumps({"k": k, "height": plan[0],
                                 "c": coefficients[upper].tolist(),
                                 "err": errors[upper].tolist()}) + "\n")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(TABLES))
    parser.add_argument("--check", action="store_true",
                        help="compare the file with the tables, write nothing")
    args = parser.parse_args(argv)
    lines = table_lines()
    if not args.check:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
        print(f"wrote {len(lines)} weights to {args.out}")
        return 0
    with open(args.out) as fh:
        stored = fh.readlines()
    for new, old in zip_longest(lines, stored):
        if new != old:
            k = json.loads(new or old)["k"]
            print(f"error: {args.out}: weight k = {k} differs from the "
                  "computed table", file=sys.stderr)
            return 1
    print(f"{args.out}: {len(lines)} weights, all current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
