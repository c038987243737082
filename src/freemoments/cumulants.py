"""Moment/cumulant transforms over exact rationals.

Free cumulants are tied to moments by sums over non-crossing partitions:
the i-th moment is the sum over NC(i) of products of cumulants indexed by
block sizes, and the inverse weights each partition by the Mobius value of
its interval up to the one-block partition.  Grouping those sums by the
block that contains 1 gives the functional relation

    M(z) = 1 + sum_s k_s z^s M(z)^s,    M(z) = 1 + sum_n m_n z^n

(Speicher 1994; Nica-Speicher, Lectures on the Combinatorics of Free
Probability, Lecture 16), whose z^n coefficient is
m_n = sum_s k_s [z^(n-s)] M(z)^s.  The coefficient [z^(n-s)] M(z)^s needs
only m_1..m_(n-1), so one sweep over n solves for whichever side is unknown
in O(p^3) rational operations, with no enumeration and no order ceiling.

The classical transform is the same construction over all set partitions;
grouped by the block that contains 1, they give m_n = sum_j C(n-1, j-1)
c_j m_(n-j) with m_0 = 1, which a second sweep solves in O(p^2) rational
operations.  Tests compare both directions with direct enumeration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import KindMismatchError, ValidationError

FREE = "free"
CLASSICAL = "classical"


def as_fraction(value) -> Fraction:
    """The one exact coercion: Fractions, ints and "p/q" or decimal strings
    ("3/4", "1.25", "1.25e3") become Fractions.  Floats, bools and anything
    else are rejected, never silently converted.  A decimal exponent of
    either sign is bounded like a digit string: 10^e must have no more
    digits than int() converts (sys.get_int_max_str_digits; 0 means no
    limit), checked before 10^e is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise ValidationError("bool is not a rational scalar")
        return Fraction(value)
    if isinstance(value, str):
        _check_exponent(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"float {value!r} rejected: pass an exact 'p/q' or decimal string"
        )
    raise ValidationError(
        f"exact rational required, got {type(value).__name__}: {value!r}"
    )


def _check_exponent(text: str) -> None:
    _, marker, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if not marker or not limit:
        return
    try:
        power = int(exponent)
    except ValueError:
        return  # not an integer exponent: Fraction rejects the literal
    if abs(power) >= limit:
        raise ValidationError(
            f"decimal exponent beyond the {limit} digits the interpreter "
            "converts"
        )


def _as_values(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_1..m_p of a (possibly signed-total-mass) measure."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.values))

    @property
    def p(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        """1-indexed access: seq[i] is m_i."""
        if not 1 <= i <= self.p:
            raise ValidationError(f"moment index {i} outside 1..{self.p}")
        return self.values[i - 1]


@dataclass(frozen=True)
class CumulantSequence:
    """Cumulants k_1..k_p tagged with their kind (free or classical)."""

    values: tuple[Fraction, ...]
    kind: str = FREE

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.values))
        if self.kind not in (FREE, CLASSICAL):
            raise ValidationError(f"unknown cumulant kind {self.kind!r}")

    @property
    def p(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        if not 1 <= i <= self.p:
            raise ValidationError(f"cumulant index {i} outside 1..{self.p}")
        return self.values[i - 1]


def _require_kind(seq: CumulantSequence, kind: str) -> None:
    if seq.kind != kind:
        raise KindMismatchError(f"expected {kind} cumulants, got {seq.kind}")


def _check_order(p: int) -> None:
    if p < 1:
        raise ValidationError("order p must be >= 1")


# ------------------------------------------------------------------ free side


def _free_sweep(values: tuple[Fraction, ...], moments_known: bool):
    """Solve M(z) = 1 + sum_s k_s z^s M(z)^s one order at a time.

    ``values`` are m_1..m_p when ``moments_known``, else k_1..k_p; returns
    the lists (m_1..m_p, k_1..k_p).  Row n holds [z^(n-s)] M(z)^s for
    s = 1..n; the entry for s convolves M(z)^(s-1), known up to z^(n-s)
    from earlier rows, with M(z).  Trivial entries are skipped: s = 1 is
    m_(n-1), s = n is 1, and m_0 = 1 needs no multiplication.  Nothing is
    kept between calls.
    """
    one = Fraction(1)
    m = [one]  # m_0 .. m_(n-1)
    k: list[Fraction] = []
    # powers[s][j] = [z^j] M(z)^s; powers[1] is m itself, and powers[s]
    # gains its entry j = n - s at order n
    powers = [None, m]
    for n, value in enumerate(values, start=1):
        acc = k[0] * m[n - 1] if n > 1 else Fraction(0)
        for s in range(2, n):
            j = n - s
            prev = powers[s - 1]
            c = m[j] + prev[j]
            for i in range(1, j):
                c += prev[i] * m[j - i]
            powers[s].append(c)
            acc += k[s - 1] * c
        powers.append([one])
        # acc = sum over s < n of k_s [z^(n-s)] M(z)^s; the s = n term is k_n
        if moments_known:
            k.append(value - acc)
            m.append(value)
        else:
            k.append(value)
            m.append(value + acc)
    return m[1:], k


def moments_from_free_cumulants(cumulants: CumulantSequence) -> MomentSequence:
    """m_i = sum over non-crossing partitions of {1..i} of the product of
    cumulants over block sizes, solved through the functional relation."""
    _require_kind(cumulants, FREE)
    _check_order(cumulants.p)
    m, _ = _free_sweep(cumulants.values, moments_known=False)
    return MomentSequence(tuple(m))


def free_cumulants_from_moments(moments: MomentSequence) -> CumulantSequence:
    """Mobius inversion of the non-crossing moment formula, solved through
    the functional relation."""
    _check_order(moments.p)
    _, k = _free_sweep(moments.values, moments_known=True)
    return CumulantSequence(tuple(k), FREE)


def free_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the free additive convolution, by adding free cumulants."""
    if a.p != b.p:
        raise ValidationError(f"order mismatch: {a.p} vs {b.p}")
    ka = free_cumulants_from_moments(a)
    kb = free_cumulants_from_moments(b)
    total = CumulantSequence(
        tuple(x + y for x, y in zip(ka.values, kb.values)), FREE
    )
    return moments_from_free_cumulants(total)


# ------------------------------------------------------------- classical side


def _classical_sweep(values: tuple[Fraction, ...], moments_known: bool):
    """Solve m_n = sum_j C(n-1, j-1) c_j m_(n-j) one order at a time, with
    ``values`` and the result as in _free_sweep.  acc sums the terms j < n,
    which need only earlier orders; the j = n term is c_n, since m_0 = 1."""
    m = [Fraction(1)]  # m_0 .. m_(n-1)
    c: list[Fraction] = []
    for n, value in enumerate(values, start=1):
        acc = Fraction(0)
        for j in range(1, n):
            acc += math.comb(n - 1, j - 1) * c[j - 1] * m[n - j]
        if moments_known:
            c.append(value - acc)
            m.append(value)
        else:
            c.append(value)
            m.append(value + acc)
    return m[1:], c


def moments_from_classical_cumulants(cumulants: CumulantSequence) -> MomentSequence:
    """Same shape as the free formula but summed over all set partitions,
    solved through the binomial recursion."""
    _require_kind(cumulants, CLASSICAL)
    _check_order(cumulants.p)
    m, _ = _classical_sweep(cumulants.values, moments_known=False)
    return MomentSequence(tuple(m))


def classical_cumulants_from_moments(moments: MomentSequence) -> CumulantSequence:
    """Inverse of the classical moment formula, solved through the binomial
    recursion."""
    _check_order(moments.p)
    _, c = _classical_sweep(moments.values, moments_known=True)
    return CumulantSequence(tuple(c), CLASSICAL)
