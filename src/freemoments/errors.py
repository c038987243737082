"""Exception hierarchy shared by every module.

Each class carries a stable ``code`` string; the command line layer maps the
code into machine-readable error payloads and exit statuses.
"""


class FreemomentsError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ValidationError(FreemomentsError):
    """Malformed or out-of-contract input."""

    code = "validation"


class SizeLimitError(FreemomentsError):
    """A combinatorial size ceiling was exceeded."""

    code = "size-limit"


class KindMismatchError(FreemomentsError):
    """Free/classical cumulant kinds were mixed."""

    code = "kind-mismatch"


class PoleError(FreemomentsError):
    """Reciprocal of a series with vanishing constant term."""

    code = "pole"


class NonInvertibleSeriesError(FreemomentsError):
    """Compositional inverse of a series without a simple zero at 0."""

    code = "non-invertible-series"


class MomentDoesNotExistError(FreemomentsError):
    """A requested moment integral diverges (e.g. heavy tails)."""

    code = "moment-does-not-exist"


class DomainError(FreemomentsError):
    """Evaluation point outside the analytic domain."""

    code = "domain"


class UnsupportedOperationError(FreemomentsError):
    """Operation not defined for this representation."""

    code = "unsupported-operation"


class NumericError(FreemomentsError):
    """A numeric routine could not certify its target accuracy."""

    code = "numeric"


class RegionTooLargeError(FreemomentsError):
    """Inversion failed on the whole ray; shrink the radius."""

    code = "region-too-large"


class BudgetError(FreemomentsError):
    """Requested computation exceeds the configured work budget."""

    code = "budget"
