"""Generator-driven Fuchsian groups with cusp at i*infinity of width 1.

The cosets Gamma_inf\\Gamma above a height (the classes the coset-summed
kernel series runs over): sieved from the coprime bottom rows on
PSL(2, Z), walked from the generators on any other integral group.
Orbit enumeration by displacement, the element-by-element reference
the tests hold the coset route to, and the compact-part /
cusp-neighborhood split.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .uhp import (
    DomainError,
    MoebiusTransform,
    UhpPoint,
    apply_moebius,
    cosh2_half_distance,
    hyp_distance,
)

# c_Gamma of the cusp threshold and of Prop 8's bound
C_GAMMA = 4.0 * math.pi
# most expansions, cosets or orbit elements one enumeration may list
DEFAULT_BUDGET = 200_000
EPS = 2.0 ** -52


class BudgetExceeded(RuntimeError):
    """Enumeration budget exhausted before the frontier closed."""


@dataclass(frozen=True)
class FuchsianGroup:
    label: str
    generators: tuple

    @property
    def has_cusp_translation(self) -> bool:
        """Whether the unit translation or its inverse is a generator.

        The standing hypothesis places (1,1;0,1) in the group; with an
        arbitrary generator list this can only be checked softly.
        """
        return MoebiusTransform.translation(1).key() in {
            g.key() for g in self.symmetrized_generators()}

    @property
    def is_integral(self) -> bool:
        """Whether every generator has integer entries (Gamma in SL(2, Z))."""
        return all(abs(v - round(v)) < 1e-9 for g in self.generators
                   for v in (g.a, g.b, g.c, g.d))

    @property
    def is_modular(self) -> bool:
        """Whether the group is PSL(2, Z): integral, with T = (1,1;0,1) and
        S = (0,-1;1,0) among its generators, up to sign or inverse."""
        keys = {g.key() for g in self.symmetrized_generators()}
        return (self.is_integral
                and MoebiusTransform.translation(1).key() in keys
                and MoebiusTransform(0.0, -1.0, 1.0, 0.0).key() in keys)

    def symmetrized_generators(self) -> list:
        """Generators together with their inverses, deduplicated."""
        out, seen = [], set()
        for g in self.generators:
            for h in (g, g.inverse()):
                k = h.key()
                if k not in seen:
                    seen.add(k)
                    out.append(h)
        return out


def modular_group() -> FuchsianGroup:
    """PSL(2, Z), generated by the unit translation and the inversion."""
    return FuchsianGroup(
        label="modular",
        generators=(
            MoebiusTransform.translation(1),
            MoebiusTransform(0.0, -1.0, 1.0, 0.0),
        ),
    )


def free_product_group() -> FuchsianGroup:
    """Toy group generated by the unit translation and (1,0;2,1)."""
    return FuchsianGroup(
        label="free2",
        generators=(
            MoebiusTransform.translation(1),
            MoebiusTransform(1.0, 0.0, 2.0, 1.0),
        ),
    )


def translation_group() -> FuchsianGroup:
    """Translation-only toy group (the cusp stabilizer alone)."""
    return FuchsianGroup(label="translations",
                         generators=(MoebiusTransform.translation(1),))


_PRESETS = {
    "modular": modular_group,
    "free2": free_product_group,
    "translations": translation_group,
}


def group_by_name(name: str) -> FuchsianGroup:
    """Resolve a preset name or ``file:<path>`` group description."""
    if name.startswith("file:"):
        return load_group(name[5:])
    if name not in _PRESETS:
        raise DomainError(f"unknown group preset {name!r}")
    return _PRESETS[name]()


def load_group(path: str) -> FuchsianGroup:
    """Read ``{"generators": [[a, b, c, d], ...]}`` (and an optional
    ``label``) from a JSON file; a malformed file is a ``DomainError``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"group file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"group file {path}: bad JSON: {exc}") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("generators"), list)):
        raise DomainError(f"group file {path} is not an object with a "
                          f"generators list")
    gens = []
    for row in doc["generators"]:
        try:
            a, b, c, d = map(float, row)
            gens.append(MoebiusTransform(a, b, c, d))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"group file {path}: bad generator {row!r}: "
                              f"{exc}") from exc
    return FuchsianGroup(label=doc.get("label", path), generators=tuple(gens))


@dataclass
class OrbitEnumeration:
    elements: list  # (MoebiusTransform, cosh2 half displacement), sorted
    exhaustive_flag: bool
    frontier_count: int = 0
    expanded: int = 0

    def transforms(self):
        return [g for g, _ in self.elements]


def enumerate_group_elements(
    group: FuchsianGroup,
    z: UhpPoint,
    displacement_bound: float,
    budget: int = DEFAULT_BUDGET,
) -> OrbitEnumeration:
    """Breadth-first closure of generator words below a displacement bound.

    ``displacement_bound`` is in cosh^2(d/2) units.  Words are expanded
    while their displacement stays below the bound plus a conservative
    slack of twice the largest generator displacement (at least 2),
    allowing paths that dip back under the bound; the budget caps the
    number of expansions.  Elements are deduplicated in PSL(2).
    """
    if displacement_bound < 1.0:
        raise DomainError("displacement bound must be >= 1")
    if budget <= 0:
        raise DomainError("budget must be positive")

    gens = group.symmetrized_generators()
    d_bound = 2.0 * math.acosh(math.sqrt(displacement_bound))
    gen_disp = max((hyp_distance(z, apply_moebius(g, z)) for g in gens),
                   default=0.0)
    d_expand = d_bound + 2.0 * max(gen_disp, 1.0)

    ident = MoebiusTransform.identity()
    seen = {ident.key()}
    results = [(ident, 1.0)]
    queue = [ident]
    frontier_count = 0
    expanded = 0
    exhaustive = True

    while queue:
        if expanded >= budget:
            exhaustive = False
            break
        nxt = []
        for g in queue:
            if expanded >= budget:
                exhaustive = False
                break
            expanded += 1
            for s in gens:
                h = g @ s
                k = h.key()
                if k in seen:
                    continue
                seen.add(k)
                t = cosh2_half_distance(z, apply_moebius(h, z))
                d = 2.0 * math.acosh(math.sqrt(max(t, 1.0)))
                if t <= displacement_bound:
                    results.append((h, t))
                if d <= d_expand:
                    nxt.append(h)
                else:
                    frontier_count += 1
        queue = nxt

    results.sort(key=lambda item: (item[1],) + item[0].key())
    return OrbitEnumeration(
        elements=results,
        exhaustive_flag=exhaustive,
        frontier_count=frontier_count,
        expanded=expanded,
    )


@dataclass
class CosetList:
    """Representatives of the classes Gamma_inf\\Gamma a kernel series sums.

    One representative (a, b, c, d), of either sign, per row of ``rows``,
    for its coset {T^n gamma}, whose translates are summed in closed
    form.  Every class with |cz+d|^2 <= ``norm_bound`` at ``base_point``
    is listed.
    """
    base_point: UhpPoint
    norm_bound: float
    rows: np.ndarray

    def __len__(self):
        return len(self.rows)


def _bottom_row_keys(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Exact int64 keys c 2^32 + d of the bottom rows +-(c, d), sign fixed.

    One-to-one for integer entries, held exactly in floats, below 2^31.
    """
    if max(np.abs(c).max(initial=0.0),
           np.abs(d).max(initial=0.0)) >= 2.0 ** 31:
        raise DomainError("coset walk entries too large for exact keys")
    sign = np.where(c != 0.0, np.sign(c), np.sign(d))
    return ((sign * c).astype(np.int64) << 32) + (sign * d).astype(np.int64)


def _reduce_to_strip(a, b, c, d, zc: complex):
    """Each coset's representative with Re(gamma z) in [-1/2, 1/2).

    Returns its top row a, b and gamma z as real and imaginary parts.
    """
    w = (a * zc + b) / (c * zc + d)
    n = np.floor(w.real + 0.5)
    return a - n * c, b - n * d, w.real - n, w.imag


def walk_cosets(group: FuchsianGroup, z: UhpPoint, norm_bound: float,
                budget: int = DEFAULT_BUDGET) -> CosetList:
    """Cosets Gamma_inf gamma with Im(gamma z) >= h = y / norm_bound.

    Equivalently |cz+d|^2 <= norm_bound.  Breadth-first over cosets,
    one level at a time, one representative each (the one with
    Re(gamma z) in [-1/2, 1/2)), keyed exactly on the integer bottom
    row +-(c, d): a coset gamma moves to s T^n gamma for each
    non-translation generator s or inverse and each integer n with
    Im(s(gamma z + n)) >= h.  Reducing an orbit point to a Ford domain
    raises its height at every step, so when the generators pair that
    domain's sides, as every preset's do, each coset above h is reached
    through cosets above h.  A level's moves are deduplicated by sorting
    their keys and looked up in the sorted keys already listed.  Needs
    an integral group; listing more than ``budget`` cosets raises
    ``BudgetExceeded``.  A group of translations alone has one coset,
    listed with norm bound inf: no coset is missed.
    """
    if not group.has_cusp_translation:
        raise DomainError("the coset walk needs the unit translation")
    if not group.is_integral:
        raise DomainError(
            f"group {group.label} is not integral: the coset walk and its "
            "tail bound key cosets on integer bottom rows")
    if norm_bound < 1.0:
        raise DomainError("norm bound must be >= 1")
    if budget <= 0:
        raise DomainError("budget must be positive")
    # exact integer steps; an integral generator with c = 0 is a translation
    steps = [tuple(np.rint((s.a, s.b, s.c, s.d)).tolist())
             for s in group.symmetrized_generators()
             if not s.is_cusp_translation()]
    zc = z.z
    h = z.y / norm_bound
    # columns a, b, c, d of the cosets new at this level
    a, b, c, d = (np.array([v]) for v in (1.0, 0.0, 0.0, 1.0))
    seen = _bottom_row_keys(c, d)  # sorted
    levels = []
    while len(a):
        if np.any(np.abs(a * d - b * c - 1.0)
                  > 1e-9 * np.maximum(1.0, a * a + b * b + c * c + d * d)):
            raise DomainError("coset walk met a non-unimodular matrix")
        a, b, u, v = _reduce_to_strip(a, b, c, d, zc)
        levels.append(np.stack([a, b, c, d], axis=1))
        if len(seen) > budget:
            raise BudgetExceeded(
                f"coset walk at z={zc} listed more than {budget} cosets")
        found = [(np.empty(0),) * 4]
        for sa, sb, sc, sd in steps:
            # Im(s w) >= h  <=>  (u + n + d_s/c_s)^2 <= v/(h c_s^2) - v^2
            rad = v / (h * sc * sc) - v * v
            live = np.flatnonzero(rad >= 0.0)
            r = np.sqrt(rad[live]) + 1e-9
            lo = np.ceil(-sd / sc - u[live] - r)
            count = (np.floor(-sd / sc - u[live] + r) - lo + 1).astype(int)
            # n runs over lo, lo + 1, ..., lo + count - 1 for each parent
            which = np.repeat(live, count)
            n = (np.repeat(lo - np.cumsum(count) + count, count)
                 + np.arange(len(which)))
            pc, pd = c[which], d[which]
            ta, tb = a[which] + n * pc, b[which] + n * pd  # T^n gamma
            found.append((sa * ta + sb * pc, sa * tb + sb * pd,
                          sc * ta + sd * pc, sc * tb + sd * pd))
        a, b, c, d = (np.concatenate(col) for col in zip(*found))
        keep = np.abs(c * zc + d) ** 2 <= norm_bound
        a, b, c, d = a[keep], b[keep], c[keep], d[keep]
        keys = _bottom_row_keys(c, d)
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        order, keys = order[first], keys[first]
        at = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(at, len(seen) - 1)] != keys
        seen = np.insert(seen, at[fresh], keys[fresh])
        pick = order[fresh]
        a, b, c, d = a[pick], b[pick], c[pick], d[pick]
    return CosetList(base_point=z,
                     norm_bound=norm_bound if steps else math.inf,
                     rows=np.concatenate(levels))


def modular_cosets(z: UhpPoint, norm_bound: float,
                   budget: int = DEFAULT_BUDGET) -> CosetList:
    """The cosets of ``walk_cosets`` on PSL(2, Z), sieved from bottom rows.

    The classes Gamma_inf gamma of PSL(2, Z) are the coprime bottom rows
    +-(c, d).  Those with |cz+d|^2 <= norm_bound are (0, 1) and, for each
    c from 1 to sqrt(norm_bound)/y, the d coprime to c in an interval,
    kept by the walk's own floating-point test.  The top rows come from
    the extended Euclid algorithm, run on every pair at once, and are
    reduced as in the walk.  As there, listing more than ``budget``
    cosets raises ``BudgetExceeded`` and entries of 2^31 or more (here
    any in the box 0 <= c <= sqrt(norm_bound)/y + 1 that holds the
    candidates) raise ``DomainError``.  The candidates, about
    (pi/2 + 3/sqrt(N)) N/y of them, are held at once, and about
    3N/(pi y) are kept; ``coset_norm_bound`` takes the smallest N that
    its tail bound allows, and caps N/y.
    """
    if norm_bound < 1.0:
        raise DomainError("norm bound must be >= 1")
    if budget <= 0:
        raise DomainError("budget must be positive")
    zc = z.z
    root = math.sqrt(norm_bound)
    c_top = math.floor(root / z.y) + 1
    if max(c_top, abs(z.x) * c_top + root + 1.0) >= 2.0 ** 31:
        raise DomainError("coset sieve entries too large for exact keys")
    c = np.arange(1.0, c_top + 1.0)
    # d in [-cx - r, -cx + r], r^2 = N - c^2 y^2, widened by one each
    # side for rounding; the norm test below decides
    half = np.sqrt(np.fmax(norm_bound - (c * z.y) ** 2, 0.0))
    lo = np.ceil(-c * z.x - half) - 1.0
    count = (np.floor(-c * z.x + half) + 2.0 - lo).astype(int)
    c = np.repeat(c, count)
    d = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(c))
    keep = np.abs(c * zc + d) ** 2 <= norm_bound
    c, d = c[keep].astype(np.int64), d[keep].astype(np.int64)
    keep = np.gcd(c, d) == 1
    c, d = c[keep], d[keep]
    if len(c) + 1 > budget:
        raise BudgetExceeded(
            f"coset sieve at z={zc} listed more than {budget} cosets")
    a, b = _unimodular_tops(c, d)
    # the identity coset (0, 1) first, then the coprime rows
    a, b, c, d = (np.concatenate([[first], v]).astype(float)
                  for first, v in zip((1, 0, 0, 1), (a, b, c, d)))
    a, b, _, _ = _reduce_to_strip(a, b, c, d, zc)
    return CosetList(base_point=z, norm_bound=norm_bound,
                     rows=np.stack([a, b, c, d], axis=1))


def reduce_to_fundamental(x, y):
    """Each point x + iy moved by PSL(2, Z) into F: |x| <= 1/2, |z| >= 1.

    T^-n, n = rint(x), is exact as x - n; S: w -> -1/w, taken while
    |w|^2 < 1 - 4 EPS (so each S raises y), is within 2 EPS |Sw| and
    moves an error e to at most e/(|w| (|w| - e)).  Returns the images'
    x and y, a bound delta on each one's distance from gamma (x + iy),
    and the integer rows (a, b, c, d) of gamma, the product of the steps.
    """
    x, y = np.array(x, float), np.array(y, float)
    delta = np.zeros_like(x)
    gamma = np.tile([1.0, 0.0, 0.0, 1.0], x.shape + (1,))
    while True:
        n = np.rint(x)
        x -= n
        gamma[..., :2] -= n[..., None] * gamma[..., 2:]
        r2 = x * x + y * y
        flip = r2 < 1.0 - 4 * EPS
        if not flip.any():
            return x, y, delta, gamma
        w, e, r2 = np.sqrt(r2[flip]), delta[flip], r2[flip]
        delta[flip] = np.where(e < w, (2 * EPS / w + e / (w * (w - e)))
                               * (1.0 + 8 * EPS), np.inf)
        x[flip], y[flip] = -x[flip] / r2, y[flip] / r2
        gamma[flip] = gamma[flip][:, [2, 3, 0, 1]] * [-1.0, -1.0, 1.0, 1.0]


def _unimodular_tops(c: np.ndarray, d: np.ndarray):
    """Integers a, b with ad - bc = 1 for coprime int64 pairs c >= 1, d.

    The extended Euclid algorithm on every pair at once: remainders
    r_i = s_i d (mod c) from r_0 = d, r_1 = c, until r_i = 0 leaves
    r_(i-1) = 1 and a = s_(i-1).
    """
    a = np.empty_like(c)
    live = np.arange(len(c))
    r0, r1 = d, c
    s0, s1 = np.ones_like(c), np.zeros_like(c)
    while len(live):
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        done = r1 == 0
        a[live[done]] = s0[done]
        more = ~done
        live, r0, r1, s0, s1 = (v[more] for v in (live, r0, r1, s0, s1))
    return a, (a * d - 1) // c


def cusp_threshold(k: int) -> float:
    """Height C_GAMMA * log(k) / (2*pi) where the cusp neighborhood starts."""
    if k < 2:
        raise DomainError("k must be >= 2")
    return C_GAMMA * math.log(k) / (2.0 * math.pi)
