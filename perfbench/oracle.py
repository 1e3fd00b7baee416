"""Exact references for every benchmark output row, and row classification.

References are computed here, independently of the program:

- ratio-scan rows: the weight-12 and weight-16 cusp spaces are
  one-dimensional, so the Bergman/hyperbolic ratio is exactly k/(2 pi);
- gram row: the Petersson norm <Delta, Delta> = 1.0353620568043e-6;
- sym-scan rows: the Fubini-Study volume ratio from the closed-form Levi
  form of log det M, on a basis orthonormalized with this module's own
  Petersson quadrature.  For d = n it is exactly (k / 2 pi)^d.

Tolerances are the ones the repository's oracles use: 1e-8 relative for
the Poincare route against the basis route, 1e-10 absolute for the
basis-route collapse (acceptance 04), 1e-8 relative for the Gram and
1e-3 relative for the two Fubini-Study routes (acceptance 09).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import roots_legendre

DELTA_NORM = 1.0353620568043e-6
TOL_POINCARE_REL = 1e-8
TOL_BASIS_ABS = 1e-10
TOL_GRAM_REL = 1e-8
TOL_SYM_REL = 1e-3
COORD_TOL = 1e-9
# Petersson quadrature: Gauss-Legendre panels over |x| <= 1/2 and from
# the arc |z| = 1 up to GRAM_Y_TOP, where the integrand y^(2k-2)
# exp(-4 pi y) is below double precision for the weights used here.
GRAM_X_PANELS = 4
GRAM_Y_PANELS = 24
GRAM_NODES = 20
GRAM_Y_TOP = 16.0


# ---------------------------------------------------------------------------
# Forms as coefficient matrices

def coefficient_matrix(forms):
    """n x M complex matrix of a_1..a_M from (label, integer list) pairs."""
    return np.array([[float(c) for c in coeffs] for _, coeffs in forms],
                    dtype=complex)


def form_values(coeffs, z, deriv_order=0):
    """Vector of f_j(z) (or d/dz f_j) for the rows of ``coeffs``."""
    m = np.arange(1, coeffs.shape[1] + 1)
    terms = np.exp(2j * math.pi * m * z)
    if deriv_order:
        terms = terms * (2j * math.pi * m) ** deriv_order
    return coeffs @ terms


def petersson_gram(coeffs, weight):
    """<f_i, f_j> over |x| <= 1/2, |z| >= 1 by composite Gauss-Legendre."""
    xn, xw = roots_legendre(GRAM_NODES)
    m = np.arange(1, coeffs.shape[1] + 1)
    gram = np.zeros((coeffs.shape[0],) * 2, dtype=complex)
    for px in range(GRAM_X_PANELS):
        a, b = -0.5 + px / GRAM_X_PANELS, -0.5 + (px + 1) / GRAM_X_PANELS
        for x, wx in zip(0.5 * (b - a) * xn + 0.5 * (a + b),
                         0.5 * (b - a) * xw):
            edges = np.linspace(math.sqrt(1.0 - x * x), GRAM_Y_TOP,
                                GRAM_Y_PANELS + 1)
            half = 0.5 * np.diff(edges)
            ys = (half[:, None] * xn + (edges[:-1] + half)[:, None]).ravel()
            wy = (half[:, None] * xw).ravel() * ys ** (weight - 2)
            vals = coeffs @ np.exp(2j * math.pi * np.outer(m, x + 1j * ys))
            gram += wx * (vals * wy) @ vals.conj().T
    return 0.5 * (gram + gram.conj().T)


def orthonormalize(coeffs, gram):
    """Coefficient rows of a Petersson-orthonormal basis of the same span."""
    lower = cholesky(gram, lower=True)
    return solve_triangular(lower, coeffs, lower=True)


def fs_volume_ratio(coeffs, zs, k):
    """Closed-form Fubini-Study volume ratio of the tuple ``zs``.

    With rows of V the values f(z_i) and rows of D the derivatives
    f'(z_i) in an orthonormal basis, d_l dbar_m log det M equals
    (D P D^H)_lm (M^-1)_ml, where V^H = QR, P = I - QQ^H and
    M^-1 = R^-1 R^-H.  The form is G = -Hess/(2 pi) + diag(k/(4 pi y^2))
    and the ratio is det G * prod 2 y^2.
    """
    zc = [complex(x, y) for x, y in zs]
    v = np.array([form_values(coeffs, z) for z in zc])
    dv = np.array([form_values(coeffs, z, 1) for z in zc])
    q, r = np.linalg.qr(v.conj().T)
    proj = np.eye(coeffs.shape[0]) - q @ q.conj().T
    rinv = np.linalg.inv(r)
    minv = rinv @ rinv.conj().T
    hess = (dv @ proj @ dv.conj().T) * minv.T
    g = -hess / (2.0 * math.pi)
    g += np.diag([k / (4.0 * math.pi * z.imag ** 2) for z in zc])
    return float(np.real(np.linalg.det(g))) * math.prod(
        2.0 * z.imag ** 2 for z in zc)


def attach(workload):
    """Fill ``references`` on every call of ``workload``."""
    bases = {}
    for path, (weight, forms) in workload.forms.items():
        coeffs = coefficient_matrix(forms)
        bases[path] = orthonormalize(coeffs, petersson_gram(coeffs, weight))
    for call in workload.calls:
        if call.kind == "ratio":
            call.references = [key[0] / (2.0 * math.pi) for key in call.expected]
        elif call.kind == "gram":
            call.references = [DELTA_NORM]
        else:
            basis = bases[call.argv[call.argv.index("--forms") + 1]]
            call.references = [fs_volume_ratio(basis, list(t), k)
                               for k, t in call.expected]


# ---------------------------------------------------------------------------
# Row classification

@dataclass
class Tally:
    """Rows attempted, and which of them failed and how.

    ``outcomes`` maps a failed row's id, ``(call name, row index)``, to
    "flagged" (its error column is non-empty or its call failed, see
    ``classify``) or "wrong" (its value misses the reference by more
    than the tolerance, or it is missing from an output that otherwise
    completed).  ``checkable`` turns false when an output cannot be
    matched to its inputs at all.
    """

    attempted: int = 0
    outcomes: dict = field(default_factory=dict)
    degenerate: int = 0
    checkable: bool = True
    failures: list = field(default_factory=list)

    @property
    def flagged(self):
        return sum(kind == "flagged" for kind in self.outcomes.values())

    @property
    def wrong(self):
        return sum(kind == "wrong" for kind in self.outcomes.values())

    @property
    def failed(self):
        return len(self.outcomes)

    def add(self, other):
        """Fold in the tally of other rows (another call of the pass)."""
        self.attempted += other.attempted
        self.merge(other)
        self.degenerate += other.degenerate

    def merge(self, other):
        """Fold in another pass over the same rows.

        A row counts once, as failed if it failed in any pass, and as
        flagged if it was flagged in any pass.
        """
        for row, kind in other.outcomes.items():
            if self.outcomes.get(row) != "flagged":
                self.outcomes[row] = kind
        self.checkable = self.checkable and other.checkable
        self.failures.extend(other.failures)


def _read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _parse_tuple(cell):
    """Points of a sym-scan tuple cell ``x+yi;x+yi``."""
    return tuple(tuple(map(float, part[:-1].rsplit("+", 1)))
                 for part in cell.split(";"))


def _row_key(call, row):
    if call.kind == "ratio":
        return (int(row["k"]), float(row["x"]), float(row["y"]))
    if call.kind == "gram":
        return (row["form_i"], row["form_j"])
    return (int(row["k"]), _parse_tuple(row["tuple"]))


def _same_key(a, b):
    if isinstance(a, (int, str)):
        return a == b
    if isinstance(a, float):
        return abs(a - b) <= COORD_TOL
    return len(a) == len(b) and all(_same_key(x, y) for x, y in zip(a, b))


def _miss(call, row, ref):
    """How far the row's value is from ``ref``, relative to its tolerance."""
    if call.kind == "gram":
        re, im = float(row["re"]), float(row["im"])
        return max(abs(re - ref), abs(im)) / (TOL_GRAM_REL * ref)
    value = float(row["ratio"])
    if call.kind == "sym":
        return abs(value - ref) / (TOL_SYM_REL * abs(ref))
    if "--forms" in call.argv:
        return abs(value - ref) / TOL_BASIS_ABS
    return abs(value - ref) / (TOL_POINCARE_REL * ref)


def _flag_all(tally, call, outcome):
    tally.outcomes = {(call.name, i): "flagged"
                      for i in range(tally.attempted)}
    tally.failures.append((call.name, "call", outcome["exit"],
                           (outcome["error"] or "").strip()[-200:]))
    return tally


def classify(call, outcome):
    """Tally one call's output rows against their references.

    ``outcome`` is the worker's record of the call: exit code, error
    and output path.  Every row is flagged when the call raised (an
    error is recorded, SystemExit included) or exited with a code other
    than 0 or 1.  Exit code 1 only says that some summary is outside its
    limit, so the rows of such a call are classified one by one; they
    are all flagged only if its output cannot be matched to its inputs.
    """
    n = len(call.expected)
    tally = Tally(attempted=n)
    if outcome["error"] or outcome["exit"] not in (0, 1):
        return _flag_all(tally, call, outcome)
    try:
        rows = _read_rows(outcome["out"])
        keys = [_row_key(call, row) for row in rows]
        matched = len(rows) == n and all(
            _same_key(a, b) for a, b in zip(call.expected, keys))
    except (OSError, KeyError, ValueError, TypeError):
        matched = False
    if not matched:
        if outcome["exit"] == 1:
            return _flag_all(tally, call, outcome)
        tally.checkable = False
        tally.outcomes = {(call.name, i): "wrong" for i in range(n)}
        return tally
    for i, (key, row, ref) in enumerate(zip(call.expected, rows,
                                            call.references)):
        tally.degenerate += row.get("degenerate", "0").strip() == "1"
        if (row.get("error") or "").strip():
            tally.outcomes[(call.name, i)] = "flagged"
            tally.failures.append((call.name, "flagged", key, row["error"]))
            continue
        try:
            miss = _miss(call, row, ref)
        except ValueError:
            miss = math.inf
        if not miss <= 1.0:
            tally.outcomes[(call.name, i)] = "wrong"
            tally.failures.append((call.name, "wrong", key,
                                   row.get("ratio", row.get("re")), ref))
    return tally
