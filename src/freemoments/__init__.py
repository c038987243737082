"""Computational free probability at desk scale.

Exact combinatorics on the non-crossing partition lattice, free and
classical moment/cumulant transforms, the R-transform's coefficients as
a truncated series, rational measures with certified numeric
transforms, R-transform Taylor coefficients recovered on non-tangential
rays, free Levy pairs with their classical correspondents, and a
random-matrix Monte Carlo oracle.  ``freemoments.cli`` wires everything
into a command line; ``freemoments.acceptance`` holds the self-checking
battery behind ``freemoments verify --suite``.
"""

from .acceptance import (
    CRITERIA,
    CriterionResult,
    format_report,
    run_suite,
)
from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    as_fraction,
    classical_cumulants_from_moments,
    free_convolve,
    free_cumulants_from_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
)
from .errors import (
    BudgetError,
    DomainError,
    FreemomentsError,
    KindMismatchError,
    MomentDoesNotExistError,
    NumericError,
    RegionTooLargeError,
    SizeLimitError,
    UnsupportedOperationError,
    ValidationError,
)
from .levy import (
    LevyPair,
    cumulants_from_levy,
    diagnose_moment_transfer,
    dilate_levy,
    levy_add,
    moment_growth_bound,
    moments_of_classical_id,
    moments_of_free_id,
)
from .measures import (
    Measure,
    absolute_moments,
    cauchy_transform,
    cauchy_transform_derivative,
    measure_from_json,
    measure_to_json,
    moments,
)
from .noncrossing import (
    NCInterval,
    NCPartition,
    catalan,
    enumerate_nc,
    kreweras_complement,
    mobius_full,
    mobius_nc,
    mobius_nc_poset,
    refines,
)
from .rays import (
    NontangentialRay,
    RayTransformSamples,
    TaylorCheck,
    TaylorEstimate,
    estimate_taylor_on_ray,
    invert_g_on_ray,
    verify_taylor_cumulants,
)
from .rmt import (
    DEFAULT_BUDGET,
    MatrixEnsembleSpec,
    MomentEstimate,
    compare_to_prediction,
    ensemble_spec_from_json,
    ensemble_spec_to_json,
    haar_unitary,
    predicted_moments,
    sample_matrix,
    sample_trace_moments,
)
from .series import (
    TruncatedSeries,
    moments_from_r_series,
    r_series_from_moments,
    support_bound_from_cumulants,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CLASSICAL",
    "CRITERIA",
    "CriterionResult",
    "CumulantSequence",
    "DEFAULT_BUDGET",
    "DomainError",
    "FREE",
    "FreemomentsError",
    "KindMismatchError",
    "LevyPair",
    "MatrixEnsembleSpec",
    "Measure",
    "MomentDoesNotExistError",
    "MomentEstimate",
    "MomentSequence",
    "NCInterval",
    "NCPartition",
    "NontangentialRay",
    "NumericError",
    "RayTransformSamples",
    "RegionTooLargeError",
    "SizeLimitError",
    "TaylorCheck",
    "TaylorEstimate",
    "TruncatedSeries",
    "UnsupportedOperationError",
    "ValidationError",
    "absolute_moments",
    "as_fraction",
    "catalan",
    "cauchy_transform",
    "cauchy_transform_derivative",
    "classical_cumulants_from_moments",
    "compare_to_prediction",
    "cumulants_from_levy",
    "diagnose_moment_transfer",
    "dilate_levy",
    "ensemble_spec_from_json",
    "ensemble_spec_to_json",
    "enumerate_nc",
    "estimate_taylor_on_ray",
    "format_report",
    "free_convolve",
    "free_cumulants_from_moments",
    "haar_unitary",
    "invert_g_on_ray",
    "kreweras_complement",
    "levy_add",
    "measure_from_json",
    "measure_to_json",
    "mobius_full",
    "mobius_nc",
    "mobius_nc_poset",
    "moment_growth_bound",
    "moments",
    "moments_from_classical_cumulants",
    "moments_from_free_cumulants",
    "moments_from_r_series",
    "moments_of_classical_id",
    "moments_of_free_id",
    "predicted_moments",
    "r_series_from_moments",
    "refines",
    "run_suite",
    "sample_matrix",
    "sample_trace_moments",
    "support_bound_from_cumulants",
    "verify_taylor_cumulants",
]
