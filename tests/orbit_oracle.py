"""The orbit route: the kernel series summed element by element.

The oracle the coset route is checked against.  Each orbit term is
(2k-1)/(4*pi) * u(gamma, z)^(2k) with
u = 2iy / ((z - conj(gamma z)) * conj(c z + d)); the magnitude of u is
1/cosh(d(z, gamma z)/2), so terms are stored in log-magnitude/phase
form and reduced by compensated summation after rescaling.  The orbit,
enumerated breadth first below a displacement bound, splits into
identity / cusp-stabilizer / rest buckets.  Its tail estimate is a
heuristic, not a bound.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from bergman.groups import DEFAULT_BUDGET, enumerate_group_elements
from bergman.kernel import identity_term
from bergman.uhp import DomainError, MoebiusTransform, apply_moebius

IDENTITY = MoebiusTransform.identity().key()


@dataclass
class OrbitEvaluation:
    value_diagonal: float
    identity_part: float
    parabolic_part: complex
    rest_part: complex
    # orbit elements summed, the heuristic tail beyond them and whether
    # the enumeration closed its frontier
    terms_used: int
    tail_estimate: float
    exhaustive: bool
    imag_residual: float


def orbit_rows(enum) -> np.ndarray:
    """An enumeration's elements as an (N, 4) array of rows (a, b, c, d)."""
    return np.array([(g.a, g.b, g.c, g.d) for g in enum.transforms()],
                    dtype=float).reshape(-1, 4)


def term_log_phase(gamma, z, k: int):
    """(log magnitude, phase) of u(gamma, z)^(2k)."""
    w = apply_moebius(gamma, z)
    s = z.z - complex(w.x, -w.y)
    mu = (gamma.c * z.z + gamma.d).conjugate()
    u = 2j * z.y / (s * mu)
    return 2 * k * math.log(abs(u)), 2 * k * cmath.phase(u)


def _reduce_log_terms(terms) -> complex:
    """Sum exp(lg)*e^{i ph} over (lg, ph) pairs, rescaled by the max log."""
    if not terms:
        return 0j
    top = max(lg for lg, _ in terms)
    if top == -math.inf:
        return 0j
    re = math.fsum(math.exp(lg - top) * math.cos(ph) for lg, ph in terms)
    im = math.fsum(math.exp(lg - top) * math.sin(ph) for lg, ph in terms)
    return math.exp(top) * complex(re, im)


def orbit_kernel_diagonal(group, z, k: int, displacement_bound: float = 100.0,
                          budget: int = DEFAULT_BUDGET) -> OrbitEvaluation:
    """y^2k B(z) by truncated orbit summation, bucketed into identity,
    cusp stabilizer and the rest."""
    if k < 2:
        raise DomainError("k must be >= 2")
    enum = enumerate_group_elements(group, z, displacement_bound,
                                    budget=budget)
    id_coeff = identity_term(k)
    par_terms, rest_terms = [], []
    for gamma in enum.transforms():
        if gamma.key() == IDENTITY:
            continue
        lg_ph = term_log_phase(gamma, z, k)
        if gamma.is_cusp_translation():
            par_terms.append(lg_ph)
        else:
            rest_terms.append(lg_ph)
    parabolic = id_coeff * _reduce_log_terms(par_terms)
    rest = id_coeff * _reduce_log_terms(rest_terms)
    tail = (id_coeff * max(enum.frontier_count, 1)
            * displacement_bound ** (-(k - 2))
            if enum.exhaustive_flag else math.inf)
    return OrbitEvaluation(
        value_diagonal=id_coeff + parabolic.real + rest.real,
        identity_part=id_coeff, parabolic_part=parabolic, rest_part=rest,
        terms_used=len(enum.elements), tail_estimate=tail,
        exhaustive=enum.exhaustive_flag,
        imag_residual=abs(parabolic.imag + rest.imag))
