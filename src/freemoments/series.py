"""The R-transform's Taylor coefficients as a series, and the support bound
they give.

R(z) = k_1 + k_2 z + ... + k_p z^(p-1): its coefficients are the free
cumulants, so both directions of the moment <-> R map are the
functional-relation sweep of the cumulants module, packed into or read
from a :class:`TruncatedSeries`.  The Lagrange-inversion form of the same
chain (G(1/z) = z + m_1 z^2 + ..., compositional inverse L, 1/L = 1/z + R)
shares no code with the sweep and lives in the acceptance battery as the
oracle that cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cumulants import (
    FREE,
    CumulantSequence,
    MomentSequence,
    as_fraction,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from .errors import KindMismatchError, ValidationError


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_N of a power series truncated at order N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValidationError("series needs at least the constant term")
        object.__setattr__(
            self, "coeffs", tuple(as_fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def r_series_from_moments(moments: MomentSequence) -> TruncatedSeries:
    """R-transform coefficients k_1..k_p as a series of order p-1."""
    return TruncatedSeries(free_cumulants_from_moments(moments).values)


def moments_from_r_series(r: TruncatedSeries) -> MomentSequence:
    """Inverse of r_series_from_moments; input order p-1 yields p moments."""
    return moments_from_free_cumulants(CumulantSequence(r.coeffs))


# ------------------------------------------------------------- support bound


def _int_nth_root_floor(x: int, n: int) -> int:
    """Largest r with r^n <= x, for x >= 0.  Integer-only, so radicands past
    the float range work too."""
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    # Newton from 2^ceil(bits/n) > x^(1/n) decreases monotonically to the floor
    r = 1 << -(-x.bit_length() // n)
    while True:
        below = ((n - 1) * r + x // r ** (n - 1)) // n
        if below >= r:
            return r
        r = below


def _nth_root_upper(value: Fraction, n: int, digits: int = 18) -> Fraction:
    """Exact n-th root when value is a perfect n-th power of a rational,
    otherwise a certified rational upper bound within 10^-digits relative."""
    num, den = value.numerator, value.denominator
    rn = _int_nth_root_floor(num, n)
    rd = _int_nth_root_floor(den, n)
    if rn**n == num and rd**n == den:
        return Fraction(rn, rd)
    scale = 10**digits
    # ceil of (num * scale^n / den)^(1/n) ... / scale  bounds value^(1/n) above
    target = -(-num * scale**n // den)  # ceil division
    root = _int_nth_root_floor(target, n)
    if root**n < target:
        root += 1
    return Fraction(root, scale)


def support_bound_from_cumulants(cumulants: CumulantSequence) -> Fraction:
    """16 L with L = max_n |k_n|^(1/n) over the given free cumulants.

    Finitely many cumulants do not bound the support: the law
    (1 - e) delta_0 + (e/2)(delta_-100 + delta_100), e = 10^-4, has k_1 = 0
    and k_2 = 1, so its bound is 16, while its support radius is 100.  What
    holds is conditional: if |k_n| <= L^n for every n, then |m_n| <= Cat_n
    L^n < (4L)^n and the support lies in [-4L, 4L] (sharp: Marchenko-Pastur(1)
    has k_n = 1 and support [0, 4]).  The bound returned is 4 times that.

    The argmax is found with exact cross-power comparisons |k_i|^j vs
    |k_j|^i; the root is exact when rational, otherwise a rational upper
    bound on it.
    """
    if cumulants.kind != FREE:
        raise KindMismatchError("support bound needs free cumulants")
    best_idx = None
    best_val = None
    for idx, k in enumerate(cumulants.values, start=1):
        v = abs(k)
        if v == 0:
            continue
        if best_idx is None or v**best_idx > best_val**idx:
            best_idx, best_val = idx, v
    if best_idx is None:
        return Fraction(0)
    return 16 * _nth_root_upper(best_val, best_idx)
