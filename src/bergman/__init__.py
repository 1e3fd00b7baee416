"""Bergman kernels of cusp-form spaces on hyperbolic Riemann surfaces.

Truncated Poincare-series and q-expansion evaluation of the weight-2k
Bergman kernel, the Bergman/hyperbolic metric ratio with its explicit
bound ledger, and Fubini-Study volume estimates on symmetric products
checked against an independent Grassmannian oracle.
"""

__version__ = "0.1.0"

from .uhp import MoebiusTransform, UhpPoint, apply_moebius, hyp_distance
from .groups import FuchsianGroup, enumerate_group_elements, group_by_name
from .kernel import KernelEvaluation, bergman_kernel_diagonal
from .forms import CuspFormBasis, delta_form, orthonormal_basis, petersson_gram
from .metric import (BoundLedger, bound_ledger, kernel_derivatives,
                     ratio_parts, ratio_scan)
from .symprod import (FSVolumeSample, dimensions, fs_form_direct_oracle,
                      fs_form_formula, vanishing_subspace, volume_ratio_scan)

__all__ = [
    "MoebiusTransform", "UhpPoint", "apply_moebius", "hyp_distance",
    "FuchsianGroup", "enumerate_group_elements", "group_by_name",
    "KernelEvaluation", "bergman_kernel_diagonal",
    "CuspFormBasis", "delta_form", "orthonormal_basis", "petersson_gram",
    "BoundLedger", "bound_ledger", "kernel_derivatives", "ratio_parts",
    "ratio_scan",
    "FSVolumeSample", "dimensions",
    "fs_form_direct_oracle", "fs_form_formula", "vanishing_subspace",
    "volume_ratio_scan",
]
