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


def _check_work(work, budget, what: str, unit: str, remedy: str) -> None:
    """BudgetError when the estimated `work` exceeds `budget`, before the
    work: every work budget of the package is checked here."""
    if work > budget:
        shown = f"{work:.2e}" if work < 1e300 else "past 1e300"  # a huge int has no float
        raise BudgetError(
            f"{what} an estimated {shown} {unit}, past the budget of {budget:.2e}; {remedy}"
        )
