"""Exact-formula primitives of upper half-plane geometry.

Points z = x + iy with y > 0, Moebius transforms acting by fractional
linear maps, and the hyperbolic distance through its cosh^2(d/2) form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class UhpPoint:
    """A point of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite point ({self.x}, {self.y})")
        if self.y <= 0.0:
            raise DomainError(f"height must be positive, got {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    def __repr__(self):
        return f"UhpPoint({self.x!r}, {self.y!r})"


@dataclass(frozen=True)
class MoebiusTransform:
    """Real unimodular 2x2 matrix, identified with its negation.

    Sign is canonicalized so the first nonzero entry of (a, b) is
    positive, making deduplication of group elements deterministic.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        det = a * d - b * c
        scale = max(1.0, a * a + b * b + c * c + d * d)
        if abs(det - 1.0) > 1e-9 * scale:
            raise DomainError(f"matrix not unimodular, det={det}")
        lead = a if a != 0.0 else b
        if lead < 0.0 or (lead == 0.0 and (c if c != 0.0 else d) < 0.0):
            object.__setattr__(self, "a", -a)
            object.__setattr__(self, "b", -b)
            object.__setattr__(self, "c", -c)
            object.__setattr__(self, "d", -d)

    @classmethod
    def identity(cls) -> "MoebiusTransform":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, n: float) -> "MoebiusTransform":
        return cls(1.0, float(n), 0.0, 1.0)

    def __matmul__(self, other: "MoebiusTransform") -> "MoebiusTransform":
        return MoebiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform(self.d, -self.b, -self.c, self.a)

    def key(self) -> tuple:
        """Hashable canonical form for PSL(2) deduplication, to 1e-9."""
        return (
            round(self.a / 1e-9),
            round(self.b / 1e-9),
            round(self.c / 1e-9),
            round(self.d / 1e-9),
        )

    def is_cusp_translation(self) -> bool:
        """True for elements of the stabilizer of i*infinity (1, n; 0, 1)."""
        return (
            abs(self.c) <= 1e-9
            and abs(self.a - 1.0) <= 1e-9
            and abs(self.d - 1.0) <= 1e-9
        )

    def __repr__(self):
        return f"MoebiusTransform({self.a}, {self.b}, {self.c}, {self.d})"


def apply_moebius(gamma: MoebiusTransform, z: UhpPoint) -> UhpPoint:
    """Fractional linear action (az+b)/(cz+d)."""
    denom = gamma.c * z.z + gamma.d
    if abs(denom) < 1e-300:
        raise DomainError("cz+d numerically zero")
    w = (gamma.a * z.z + gamma.b) / denom
    return UhpPoint(w.real, w.imag)


def cosh2_half_distance(z: UhpPoint, w: UhpPoint) -> float:
    """cosh^2 of half the hyperbolic distance: |z - conj(w)|^2 / (4 y v)."""
    dx = z.x - w.x
    sy = z.y + w.y
    return (dx * dx + sy * sy) / (4.0 * z.y * w.y)


def hyp_distance(z: UhpPoint, w: UhpPoint) -> float:
    """Hyperbolic distance d(z, w) = 2 arccosh(sqrt(cosh2_half_distance))."""
    t = cosh2_half_distance(z, w)
    # guard tiny negative excursions of t-1 from roundoff at z ~ w
    return 2.0 * math.acosh(math.sqrt(max(t, 1.0)))

