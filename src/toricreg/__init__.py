"""Exact sumset and regularity computations for simplicial projective
toric varieties defined by finite generator sets A in N^d."""

from .classify import (ONE_SINGULAR, OTHER, SMOOTH, ClassificationReport,
                       classify, is_chart_smooth, reduce_e_equals_D)
from .errors import (CertificationError, InvalidInstanceError,
                     PreconditionError, ResourceLimitError, ToricRegError,
                     UnsupportedInstanceError)
from .homology import betti_numbers
from .oracle import naive_member, naive_sumset
from .lattice import (GeneratorSet, SumsetLevel, hilbert_function,
                      homogenize, step_equality_holds, step_threshold)
from .regularity import (DegreeResult, RegularityResult, degree, eg_check,
                         eg_inequality_suite, herzog_hibi_bound,
                         one_singular_bound, reg, sizeA_bound)
from .sumsets import (SigmaBounds, SigmaResult, compute_holes, sigma,
                      sigma_bounds)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "ClassificationReport", "DegreeResult",
    "GeneratorSet", "InvalidInstanceError", "ONE_SINGULAR", "OTHER",
    "PreconditionError", "RegularityResult", "ResourceLimitError", "SMOOTH",
    "SigmaBounds", "SigmaResult", "SumsetLevel", "ToricRegError",
    "UnsupportedInstanceError", "betti_numbers", "classify", "compute_holes",
    "degree", "eg_check", "eg_inequality_suite", "herzog_hibi_bound",
    "hilbert_function", "homogenize", "is_chart_smooth", "naive_member",
    "naive_sumset", "one_singular_bound", "reduce_e_equals_D", "reg", "sigma",
    "sigma_bounds", "sizeA_bound", "step_equality_holds", "step_threshold",
]
