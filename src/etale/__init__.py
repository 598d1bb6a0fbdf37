"""Finite-truncation toolkit for convolution algebras of etale groupoids
over finite unit spaces: growth and hyperbolicity of the fibers,
positive-definite kernels with their GNS data, truncated reduced-norm
estimates, and certified extension analysis of length-decaying states.
"""

__version__ = "0.1.0"

from .algebra import (CcFunction, convolve, delta, function_from_json,
                      function_to_json, i_norm, involution, length_weighted,
                      load_function, lp_norm, omega_pairing, save_function,
                      sphere_indicator, unit_indicator)
from .errors import (BudgetError, GrowthHypothesisError, KernelDomainError,
                     KernelPositivityError, ModelError, NonComposableError,
                     PreconditionError, Refusal)
from .exotic import (Certificate, ExtensionReport, ThresholdBand, certificate,
                     default_truncation, extension_criteria, phi_chi_lp,
                     threshold_band, witness_first_crossing, witness_ratio)
from .kernels import (ExpLengthKernel, GnsData, HaagerupKernel, TableKernel,
                      gns_build, gns_isometry_defect, gram_matrix,
                      haagerup_witness_check, kernel_from_json, kernel_to_json,
                      matrix_coeff_recovery, pointwise_product_check, psd_check)
from .metric import (BandReport, DeltaEstimate, GrowthReport, band_check,
                     distance_matrix, fiber_distance, growth_stats,
                     hyperbolicity_delta, overlap_constant)
from .model import (FiniteGroup, FreeGroup, GroupoidElement, GroupoidModel,
                    MeasureContext, build_model, group_model, load_model,
                    model_from_dict, save_model)
from .spectral import (NormEstimate, PowerSeq, power_sequence_norm,
                       radial_convolve, radial_profile_of, reduced_norm,
                       reduced_norm_at_unit, verify_norm_bound)
