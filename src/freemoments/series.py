"""Truncated formal power series over exact rationals, plus the series form
of the moment -> R-transform chain.

A series holds coefficients a_0..a_N of an order-N truncation.  The product
truncates to the smaller order.  The chain implemented at series level
is: moments give the expansion of G(1/z) = z + m_1 z^2 + ... ; its
compositional inverse L satisfies 1/L = 1/z + (R-transform), so the
R-transform coefficients drop out of the reciprocal of L/z.  Everything is
exact.  The compositional inverse is taken by Lagrange inversion, so this
route shares no code with the functional-relation sweep of the cumulants
module, and the two cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cumulants import CumulantSequence, MomentSequence, as_fraction, FREE
from .errors import (
    KindMismatchError,
    NonInvertibleSeriesError,
    PoleError,
    ValidationError,
)


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

    # ----------------------------------------------------------- arithmetic

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise PoleError("reciprocal of a series vanishing at 0")
        n = self.order
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if j <= n and self.coeffs[j] != 0:
                    acc += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return TruncatedSeries(tuple(out))

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(z)) = z + O(z^{N+1}).

        Requires a simple zero at the origin (a_0 = 0, a_1 != 0).  Lagrange
        inversion: g_k = [w^(k-1)] h(w)^k / k with h = w / self(w), so one
        power of h per order and no re-composition.
        """
        if self.coeffs[0] != 0 or self.order < 1 or self.coeffs[1] == 0:
            raise NonInvertibleSeriesError(
                "compositional inverse needs a_0 = 0 and a_1 != 0"
            )
        h = TruncatedSeries(self.coeffs[1:]).reciprocal()
        g = [Fraction(0)]
        power = h
        for k in range(1, self.order + 1):
            g.append(power.coeffs[k - 1] / k)
            if k < self.order:
                power = power * h
        return TruncatedSeries(tuple(g))


# ------------------------------------------------- moment / R-transform chain


def g_series_from_moments(moments: MomentSequence) -> TruncatedSeries:
    """Expansion of G(1/z) near 0: z + m_1 z^2 + ... + m_p z^{p+1}."""
    return TruncatedSeries(
        (Fraction(0), Fraction(1)) + moments.values
    )


def r_series_from_moments(moments: MomentSequence) -> TruncatedSeries:
    """R-transform coefficients k_1..k_p as a series of order p-1.

    Chain: L = compositional inverse of the G expansion; 1/L = 1/z + R, so
    R = (reciprocal(L/z) - 1)/z coefficientwise.
    """
    if moments.p < 1:
        raise ValidationError("need at least the first moment")
    g = g_series_from_moments(moments)
    ell = g.comp_inverse()
    ell_over_z = TruncatedSeries(ell.coeffs[1:])
    zk = ell_over_z.reciprocal()
    return TruncatedSeries(zk.coeffs[1:])


def moments_from_r_series(r: TruncatedSeries) -> MomentSequence:
    """Inverse of r_series_from_moments; input order p-1 yields p moments."""
    p = r.order + 1
    zk = TruncatedSeries((Fraction(1),) + r.coeffs)
    ell_over_z = zk.reciprocal()
    ell = TruncatedSeries((Fraction(0),) + ell_over_z.coeffs)
    g = ell.comp_inverse()
    return MomentSequence(tuple(g.coeffs[2:]))


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
    """16 * max_n |k_n|^(1/n): every compactly supported measure whose free
    cumulants start with these values has support inside [-bound, bound].

    The argmax is found with exact cross-power comparisons |k_i|^j vs
    |k_j|^i; the root is exact when rational, otherwise a certified rational
    upper bound.  Deliberately conservative: for the standard semicircle the
    bound is 16 while the support is [-2, 2].
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
