"""Bergman kernels of cusp-form spaces on hyperbolic Riemann surfaces.

Truncated Poincare-series and q-expansion evaluation of the weight-2k
Bergman kernel, the Bergman/hyperbolic metric ratio with its explicit
bound ledger, and Fubini-Study volume estimates on symmetric products
checked against an independent Grassmannian oracle.
"""

__version__ = "0.1.0"
