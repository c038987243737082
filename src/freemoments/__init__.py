"""Computational free probability at desk scale.

Exact combinatorics on the non-crossing partition lattice, free and
classical moment/cumulant transforms, the R-transform's coefficients as
a truncated series, rational measures with certified numeric
transforms, R-transform Taylor coefficients recovered on non-tangential
rays, free Levy pairs with their classical correspondents, and a
random-matrix Monte Carlo oracle.  ``freemoments.cli`` wires everything
into a command line; ``freemoments.acceptance`` holds the self-checking
battery behind ``freemoments verify --suite``.

The names below are resolved on first use (PEP 562), each from the one
submodule that defines it, so ``import freemoments`` loads no submodule:
the exact layers never import mpmath or numpy, and a name from ``rays``,
``acceptance`` or ``rmt`` loads its module, with mpmath or numpy, only
when it is first read.
"""

from importlib import import_module

_EXPORTS = {
    "acceptance": ("CRITERIA", "CriterionResult", "format_report", "run_suite"),
    "cumulants": (
        "CLASSICAL",
        "FREE",
        "CumulantSequence",
        "MomentSequence",
        "as_fraction",
        "classical_cumulants_from_moments",
        "free_convolve",
        "free_cumulants_from_moments",
        "moments_from_classical_cumulants",
        "moments_from_free_cumulants",
    ),
    "errors": (
        "BudgetError",
        "DomainError",
        "FreemomentsError",
        "KindMismatchError",
        "MomentDoesNotExistError",
        "NumericError",
        "RegionTooLargeError",
        "SizeLimitError",
        "UnsupportedOperationError",
        "ValidationError",
    ),
    "levy": (
        "LevyPair",
        "cumulants_from_levy",
        "diagnose_moment_transfer",
        "dilate_levy",
        "levy_add",
        "moment_growth_bound",
        "moments_of_classical_id",
        "moments_of_free_id",
    ),
    "measures": (
        "Measure",
        "absolute_moments",
        "cauchy_transform",
        "cauchy_transform_derivative",
        "measure_from_json",
        "measure_to_json",
        "moments",
    ),
    "noncrossing": (
        "NCInterval",
        "NCPartition",
        "catalan",
        "enumerate_nc",
        "kreweras_complement",
        "mobius_full",
        "mobius_nc",
        "mobius_nc_poset",
        "refines",
    ),
    "rays": (
        "NontangentialRay",
        "RayTransformSamples",
        "TaylorCheck",
        "TaylorEstimate",
        "estimate_taylor_on_ray",
        "invert_g_on_ray",
        "verify_taylor_cumulants",
    ),
    "rmt": (
        "DEFAULT_BUDGET",
        "MatrixEnsembleSpec",
        "MomentEstimate",
        "compare_to_prediction",
        "ensemble_spec_from_json",
        "ensemble_spec_to_json",
        "haar_unitary",
        "predicted_moments",
        "sample_matrix",
        "sample_trace_moments",
    ),
    "series": (
        "TruncatedSeries",
        "moments_from_r_series",
        "r_series_from_moments",
        "support_bound_from_cumulants",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule read as an attribute, as before
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
