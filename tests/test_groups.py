import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bergman.forms import model_basis
from bergman.groups import (C_GAMMA, BudgetExceeded, FuchsianGroup,
                            cusp_threshold, enumerate_group_elements,
                            free_product_group, group_by_name, modular_cosets,
                            modular_group, reduce_to_fundamental,
                            translation_group, walk_cosets)
from bergman.kernel import EPS, coset_norm_bound
from bergman.metric import BasisSource, ratio_scan
from bergman.uhp import (DomainError, MoebiusTransform, UhpPoint,
                         apply_moebius, cosh2_half_distance)
from orbit_oracle import orbit_rows

# no unit translation, so no cusp at i*infinity: no longer a preset
TRIVIAL = FuchsianGroup(label="trivial", generators=())


def test_presets_resolve():
    for name in ("modular", "free2", "translations"):
        assert group_by_name(name).label == name
    for name in ("unknown", "trivial"):
        with pytest.raises(DomainError, match="unknown group preset"):
            group_by_name(name)


def test_file_group(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "label": "custom", "generators": [[1, 1, 0, 1], [1, 0, 2, 1]],
        "genus": 0, "cusps": 2}))
    g = group_by_name(f"file:{path}")
    assert g.label == "custom"
    assert len(g.generators) == 2
    assert g.has_cusp_translation


def test_enumeration_contains_exactly_bounded_orbit():
    # at z = 2i the unit translations displace by cosh^2(d/2) = 17/16,
    # inside a bound of 9/8; the enumeration must include them
    enum = enumerate_group_elements(modular_group(), UhpPoint(0, 2.0), 9 / 8)
    keys = {g.key() for g, _ in enum.elements}
    assert MoebiusTransform.identity().key() in keys
    assert MoebiusTransform.translation(1).key() in keys
    assert MoebiusTransform.translation(-1).key() in keys
    assert len(enum.elements) == 3
    assert enum.exhaustive_flag


def test_enumeration_against_brute_force_words():
    group = modular_group()
    z = UhpPoint(0.13, 1.21)
    bound = 8.0
    # brute-force closure over short words
    gens = group.symmetrized_generators()
    seen = {MoebiusTransform.identity().key(): MoebiusTransform.identity()}
    frontier = list(seen.values())
    for _ in range(8):
        nxt = []
        for g in frontier:
            for s in gens:
                h = g @ s
                if h.key() not in seen:
                    seen[h.key()] = h
                    nxt.append(h)
        frontier = nxt
    expected = {k for k, h in seen.items()
                if cosh2_half_distance(z, apply_moebius(h, z)) <= bound}
    enum = enumerate_group_elements(group, z, bound)
    got = {g.key() for g, _ in enum.elements}
    assert expected <= got


def test_enumeration_sorted_and_deduplicated():
    enum = enumerate_group_elements(modular_group(), UhpPoint(0.1, 1.0), 30.0)
    disps = [t for _, t in enum.elements]
    assert disps == sorted(disps)
    keys = [g.key() for g, _ in enum.elements]
    assert len(keys) == len(set(keys))


def test_enumeration_budget_flag():
    enum = enumerate_group_elements(modular_group(), UhpPoint(0.1, 1.0),
                                    200.0, budget=10)
    assert not enum.exhaustive_flag


def test_enumeration_trivial_and_translations():
    enum = enumerate_group_elements(TRIVIAL, UhpPoint(0, 1.0), 100.0)
    assert len(enum.elements) == 1
    enum = enumerate_group_elements(translation_group(), UhpPoint(0, 1.0),
                                    1.0 + 4.0 / 4.0)  # |n| <= 2
    ns = sorted(g.b for g, _ in enum.elements)
    assert ns == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_enumeration_input_validation():
    with pytest.raises(DomainError):
        enumerate_group_elements(modular_group(), UhpPoint(0, 1.0), 0.5)
    with pytest.raises(DomainError):
        enumerate_group_elements(modular_group(), UhpPoint(0, 1.0), 2.0,
                                 budget=0)


def test_region_split():
    # the scan's region column: the cusp neighborhood is y >= threshold
    k = 10
    threshold = C_GAMMA * math.log(k) / (2 * math.pi)
    grid = [UhpPoint(0, threshold * 0.9), UhpPoint(0, threshold)]
    basis = model_basis(2 * k, [[1.0]])
    (cols,), _ = ratio_scan([BasisSource(basis)], grid)
    assert cols.cusp.tolist() == [False, True]  # closed condition
    assert cusp_threshold(k) == pytest.approx(threshold)


def test_free2_group_enumeration_exhaustive():
    enum = enumerate_group_elements(free_product_group(), UhpPoint(0, 1.0),
                                    50.0)
    assert enum.exhaustive_flag
    assert len(enum.elements) > 5


def _bottom_row(row):
    c, d = round(row[2]), round(row[3])
    return (c, d) if c > 0 or (c == 0 and d > 0) else (-c, -d)


def _modular_walk(z, bound, budget=200_000):
    return walk_cosets(modular_group(), z, bound, budget)


# the two listings of PSL(2, Z)'s cosets; the walk is the sieve's oracle
LISTINGS = pytest.mark.parametrize("listing", [_modular_walk, modular_cosets],
                                   ids=["walk", "sieve"])
COPRIME_X = pytest.mark.parametrize("x", [-0.45, 0.0, 0.314368])
COPRIME_Y = pytest.mark.parametrize("y", [0.6, 2.3, 4.0])
BOUNDARY_POINTS = pytest.mark.parametrize(
    "x, y", [(0.0, 1.0), (0.5, math.sqrt(3) / 2), (-0.5, 0.9), (-0.5, 2.3),
             (0.1, 1.0)])
BOUNDARY_BOUNDS = pytest.mark.parametrize("bound", [200.0, None])


def _check_coprime_pairs(listing, x, y):
    # the cosets of PSL(2, Z) are the coprime bottom rows +-(c, d)
    z = UhpPoint(x, y)
    bound = coset_norm_bound(y, 6)
    cosets = listing(z, bound)
    got = [_bottom_row(row) for row in cosets.rows]
    assert len(got) == len(set(got)) == len(cosets)
    c_max = int(math.sqrt(bound) / y) + 1
    d_max = int(c_max * abs(x) + math.sqrt(bound)) + 2
    expected = {(c, d) for c in range(c_max + 1)
                for d in range(-d_max, d_max + 1)
                if math.gcd(c, d) == 1 and (c > 0 or d == 1)
                and abs(c * z.z + d) ** 2 <= bound}
    assert set(got) == expected
    for row in cosets.rows:
        assert -0.5 <= apply_moebius(MoebiusTransform(*row), z).x < 0.5


@COPRIME_X
@COPRIME_Y
def test_coset_walk_matches_coprime_pairs(x, y):
    _check_coprime_pairs(_modular_walk, x, y)


@COPRIME_X
@COPRIME_Y
def test_coset_sieve_matches_coprime_pairs(x, y):
    _check_coprime_pairs(modular_cosets, x, y)


def _check_boundary_cosets(listing, x, y, bound):
    # at i, at rho and on x = -1/2 many bottom rows sit on the norm
    # bound or on the boundary of the reduction strip; a listing must
    # give exactly the coprime rows that pass the filter |cz+d|^2 <= N
    # in floating point (at 0.1 + i with N = 200 it leaves out (10, 9),
    # which the same test in real arithmetic admits)
    z = UhpPoint(x, y)
    bound = bound or coset_norm_bound(y, 6)
    cosets = listing(z, bound)
    got = [_bottom_row(row) for row in cosets.rows]
    assert len(got) == len(set(got))
    c_max = int(math.sqrt(bound) / y) + 1
    d_max = int(c_max * abs(x) + math.sqrt(bound)) + 2
    c, d = np.meshgrid(np.arange(c_max + 1.0), np.arange(-d_max, d_max + 1.0))
    c, d = c.ravel(), d.ravel()
    keep = ((np.gcd(c.astype(int), d.astype(int)) == 1) & ((c > 0) | (d == 1))
            & (np.abs(c * z.z + d) ** 2 <= bound))
    expected = set(zip(c[keep].astype(int).tolist(),
                       d[keep].astype(int).tolist()))
    assert set(got) == expected and len(expected) > 50


@BOUNDARY_POINTS
@BOUNDARY_BOUNDS
def test_coset_walk_boundary_points_list_every_coset(x, y, bound):
    _check_boundary_cosets(_modular_walk, x, y, bound)


@BOUNDARY_POINTS
@BOUNDARY_BOUNDS
def test_coset_sieve_boundary_points_list_every_coset(x, y, bound):
    _check_boundary_cosets(modular_cosets, x, y, bound)


def test_coset_walk_free2_matches_orbit_bottom_rows():
    # every coset above the height has a representative displaced by at
    # most (1/4 + (y + h)^2) / (4 y h), which the orbit BFS then reaches
    z, bound = UhpPoint(0.1, 1.0), 200.0
    h = z.y / bound
    walk = walk_cosets(free_product_group(), z, bound)
    enum = enumerate_group_elements(
        free_product_group(), z, (0.25 + (z.y + h) ** 2) / (4 * z.y * h))
    assert enum.exhaustive_flag
    expected = {_bottom_row(row) for row in orbit_rows(enum)
                if abs(row[2] * z.z + row[3]) ** 2 <= bound}
    got = [_bottom_row(row) for row in walk.rows]
    assert len(got) == len(set(got))
    assert set(got) == expected and len(expected) > 20


def test_coset_walk_budget_and_validation():
    with pytest.raises(BudgetExceeded):
        walk_cosets(modular_group(), UhpPoint(0.0, 1.0), 100.0, budget=5)
    with pytest.raises(DomainError):
        walk_cosets(TRIVIAL, UhpPoint(0.0, 1.0), 100.0)
    walk = walk_cosets(translation_group(), UhpPoint(0.3, 1.0), 100.0)
    assert [_bottom_row(row) for row in walk.rows] == [(0, 1)]


BUDGET_POINTS = pytest.mark.parametrize(
    "z", [UhpPoint(0.0, 1.0), UhpPoint(0.314368, 4.0)])


@BUDGET_POINTS
def test_coset_walk_budget_is_a_coset_count(z):
    # --budget caps the number of cosets listed, not walk steps
    bound = coset_norm_bound(z.y, 6)
    size = len(walk_cosets(modular_group(), z, bound))
    assert len(walk_cosets(modular_group(), z, bound, budget=size)) == size
    with pytest.raises(BudgetExceeded):
        walk_cosets(modular_group(), z, bound, budget=size - 1)


@BUDGET_POINTS
def test_coset_sieve_budget_is_the_walk_coset_count(z):
    bound = coset_norm_bound(z.y, 6)
    size = len(walk_cosets(modular_group(), z, bound))
    assert len(modular_cosets(z, bound, budget=size)) == size
    with pytest.raises(BudgetExceeded):
        modular_cosets(z, bound, budget=size - 1)


@LISTINGS
@pytest.mark.parametrize("z, bound, budget, message", [
    (UhpPoint(0.0, 1.0), 0.5, 100, "norm bound"),
    (UhpPoint(0.0, 1.0), 100.0, 0, "budget must be positive"),
    (UhpPoint(0.0, 1.0), 100.0, -3, "budget must be positive"),
    # bottom rows (c, d) with d near -c 10^9 pass the norm test for
    # c up to 10, past 2^31
    (UhpPoint(1e9, 1.0), 100.0, 200_000, "too large for exact keys"),
], ids=["norm-below-1", "budget-0", "budget-negative", "entries-2^31"])
def test_coset_listings_refuse_alike(listing, z, bound, budget, message):
    with pytest.raises(DomainError, match=message):
        listing(z, bound, budget)


@pytest.mark.parametrize("generators, modular", [
    ([[1, 1, 0, 1], [0, -1, 1, 0]], True),
    # T^-1 and S^-1 = -S, listed with either sign, and an extra element
    ([[-1, 1, 0, -1], [0, 1, -1, 0], [2, 1, 1, 1]], True),
    ([[1, 1, 0, 1], [1, 0, 2, 1]], False),          # free2 = Gamma_0(2)
    ([[1, 1, 0, 1]], False),                        # translations alone
    ([[1, 2, 0, 1], [0, -1, 1, 0]], False),         # T^2 is not T
    ([[1, 1, 0, 1], [0, -1, 1, 0], [0.5, -2, 1, -2]], False),  # not integral
])
def test_is_modular_needs_integral_t_and_s(tmp_path, generators, modular):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": generators}))
    assert group_by_name(f"file:{path}").is_modular is modular
    assert modular_group().is_modular
    assert not free_product_group().is_modular
    assert not FuchsianGroup("empty", ()).is_modular


def test_coset_walk_refuses_non_integral_group(tmp_path):
    # cosets are keyed on exact integer bottom rows
    path = tmp_path / "group.json"
    path.write_text('{"generators": [[1, 1, 0, 1], [0.5, -2, 1, -2]]}')
    with pytest.raises(DomainError, match="integral"):
        walk_cosets(group_by_name(f"file:{path}"), UhpPoint(0.0, 1.0), 100.0)


def test_reduction_replays_exactly_into_the_fundamental_domain():
    # the returned integer matrix, applied to the input in exact rational
    # arithmetic, lands within delta of the float image, and that exact
    # image lies in F = {|x| <= 1/2, |z| >= 1} up to delta and rounding
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.uniform(-1e3, 1e3, 150), rng.uniform(-1, 1, 150),
                        [5.0, 0.5, -0.5, 0.0]])
    y = np.concatenate([10 ** rng.uniform(-4, 1, 300), [0.02, 0.8, 0.8, 1.0]])
    rx, ry, delta, gamma = reduce_to_fundamental(x, y)
    assert np.all(np.abs(rx) <= 0.5) and np.all(rx * rx + ry * ry
                                                >= 1 - 4 * EPS)
    for i in range(len(x)):
        a, b, c, d = (int(v) for v in gamma[i])
        assert (gamma[i] == (a, b, c, d)).all() and a * d - b * c == 1
        zx, zy = Fraction(float(x[i])), Fraction(float(y[i]))
        norm = (c * zx + d) ** 2 + (c * zy) ** 2
        wx = ((a * zx + b) * (c * zx + d) + a * c * zy * zy) / norm
        wy = zy / norm
        dist2 = (wx - Fraction(float(rx[i]))) ** 2 + (wy - Fraction(
            float(ry[i]))) ** 2
        dlt = Fraction(float(delta[i]))
        assert dist2 <= dlt * dlt
        assert abs(wx) <= Fraction(1, 2) + dlt
        assert wx * wx + wy * wy >= (1 - dlt - 4 * Fraction(EPS)) ** 2
        # delta is a few hundred EPS of the image, or 0 when S is not used
        assert delta[i] <= 1e-10 * ry[i]
        assert (delta[i] == 0) == (c == 0)
    # 5 + 0.02i is T^5 S away from 50i
    assert (rx[300], ry[300]) == (0.0, 50.0) and 0 < delta[300] < 1e-13


def test_reduction_is_per_point():
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-3, 3, 40), 10 ** rng.uniform(-3, 0.5, 40)
    whole = reduce_to_fundamental(x, y)
    for i in range(0, 40, 7):
        alone = reduce_to_fundamental(x[i:i + 1], y[i:i + 1])
        for full, one in zip(whole, alone):
            assert (full[i] == one[0]).all()
