import math

import pytest
from hypothesis import given, strategies as st

from bergman.uhp import (DomainError, MoebiusTransform, UhpPoint,
                         apply_moebius, cosh2_half_distance, hyp_distance)

finite_x = st.floats(-10.0, 10.0, allow_nan=False)
positive_y = st.floats(0.05, 10.0, allow_nan=False)
points = st.builds(UhpPoint, finite_x, positive_y)


def random_transforms():
    def make(a, b, c):
        # force det 1: d = (1 + b c) / a with a bounded away from 0
        a = a if abs(a) > 0.2 else 0.5
        return MoebiusTransform(a, b, c, (1.0 + b * c) / a)
    return st.builds(make, st.floats(-3, 3), st.floats(-3, 3),
                     st.floats(-3, 3))


def test_point_domain():
    with pytest.raises(DomainError):
        UhpPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        UhpPoint(0.0, -1.0)
    with pytest.raises(DomainError):
        UhpPoint(math.nan, 1.0)


def test_non_unimodular_rejected():
    with pytest.raises(DomainError):
        MoebiusTransform(2.0, 0.0, 0.0, 1.0)


def test_sign_canonicalization():
    g = MoebiusTransform(-1.0, 0.0, 0.0, -1.0)
    assert (g.a, g.b, g.c, g.d) == (1.0, 0.0, 0.0, 1.0)
    h = MoebiusTransform(0.0, -1.0, 1.0, 0.0)
    assert h.key() == MoebiusTransform(0.0, 1.0, -1.0, 0.0).key()


@given(random_transforms(), points)
def test_action_preserves_upper_half_plane(g, z):
    w = apply_moebius(g, z)
    assert w.y > 0


@given(random_transforms(), points)
def test_height_transformation_rule(g, z):
    w = apply_moebius(g, z)
    # Im(gamma z) = y / |cz+d|^2
    assert w.y == pytest.approx(z.y / abs(g.c * z.z + g.d) ** 2, rel=1e-9)


@given(random_transforms(), random_transforms(), points)
def test_composition_matches_successive_action(g, h, z):
    lhs = apply_moebius(g @ h, z)
    rhs = apply_moebius(g, apply_moebius(h, z))
    assert lhs.x == pytest.approx(rhs.x, rel=1e-6, abs=1e-8)
    assert lhs.y == pytest.approx(rhs.y, rel=1e-6, abs=1e-8)


@given(random_transforms())
def test_inverse_composes_to_identity(g):
    h = g @ g.inverse()
    assert max(abs(h.a - 1.0), abs(h.b), abs(h.c), abs(h.d - 1.0)) <= 1e-6


@given(points, points)
def test_distance_symmetry_and_positivity(z, w):
    assert hyp_distance(z, w) == pytest.approx(hyp_distance(w, z), rel=1e-12)
    assert hyp_distance(z, z) == 0.0
    assert cosh2_half_distance(z, w) >= 1.0 - 1e-12


@given(random_transforms(), points, points)
def test_distance_invariance(g, z, w):
    d1 = hyp_distance(z, w)
    d2 = hyp_distance(apply_moebius(g, z), apply_moebius(g, w))
    assert d2 == pytest.approx(d1, rel=1e-6, abs=1e-7)


def test_distance_oracle_imaginary_axis():
    # d(2i, i/2) = log 4 on the imaginary axis
    assert hyp_distance(UhpPoint(0, 2.0), UhpPoint(0, 0.5)) == \
        pytest.approx(math.log(4.0), rel=1e-14)


def test_cusp_translation_predicate():
    assert MoebiusTransform.translation(3).is_cusp_translation()
    assert not MoebiusTransform(0.0, -1.0, 1.0, 0.0).is_cusp_translation()
    assert MoebiusTransform.identity().is_cusp_translation()
