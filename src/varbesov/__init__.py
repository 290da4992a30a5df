"""Variable-exponent Lebesgue, mixed sequence and Besov norms, with a
verification harness for the duality, Hardy and commutator estimates."""

from ._kernels import BACKEND, USE_NUMBA
from .grid import (Field, Grid, boundary_deviation, convolve, default_grid,
                   eta_kernel, field_from_function, integrate,
                   spectral_derivative)
from .exponents import (ExponentField, conjugate, constant_exponent,
                        cos_bump_exponent, exponent_from_family, harmonic_sum,
                        log_holder_constants, log_smooth_exponent,
                        two_level_exponent)
from ._solve import ThresholdNotConverged
from .lebesgue import Modular, luxemburg_norm, modular, omega
from .mixed import (FieldSequence, check_holder, check_monotone_limit,
                    inner_lambda, mixed_modular, mixed_norm)
from .duality import (extremal_witness, infinity_witness, pairing,
                      random_dual_search, verify_norm_conjugate)
from .littlewood_paley import (ResolutionOfUnity, besov_norm, build_resolution,
                               check_lemma_eta_shift, hardy_transform,
                               lp_block, verify_eta_convolution, verify_hardy,
                               verify_mixed_eta)
from .commutator import (SweepConfig, VectorField, commutator,
                         commutator_lhs_norm, constant_sweep, theorem1_report,
                         theorem2_report, theorem3_report)
from .random_fields import (band_limited_field, band_limited_sequence,
                            band_limited_vector_field)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "USE_NUMBA", "__version__",
    "Field", "Grid", "boundary_deviation", "convolve", "default_grid",
    "eta_kernel", "field_from_function", "integrate", "spectral_derivative",
    "ExponentField", "conjugate", "constant_exponent", "cos_bump_exponent",
    "exponent_from_family", "harmonic_sum", "log_holder_constants",
    "log_smooth_exponent", "two_level_exponent",
    "ThresholdNotConverged",
    "Modular", "luxemburg_norm", "modular", "omega",
    "FieldSequence", "check_holder", "check_monotone_limit", "inner_lambda",
    "mixed_modular", "mixed_norm",
    "extremal_witness", "infinity_witness", "pairing", "random_dual_search",
    "verify_norm_conjugate",
    "ResolutionOfUnity", "besov_norm", "build_resolution",
    "check_lemma_eta_shift", "hardy_transform", "lp_block",
    "verify_eta_convolution", "verify_hardy", "verify_mixed_eta",
    "SweepConfig", "VectorField", "commutator", "commutator_lhs_norm",
    "constant_sweep", "theorem1_report", "theorem2_report", "theorem3_report",
    "band_limited_field", "band_limited_sequence", "band_limited_vector_field",
]
