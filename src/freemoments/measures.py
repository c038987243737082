"""Measures on the real line: finite discrete measures with rational data and
a small family of named densities (semicircle, Marchenko-Pastur, Cauchy,
uniform).

Exact data passes through ``cumulants.as_fraction`` (ints, Fractions, "p/q"
or decimal strings; never floats).  Moments are exact rationals computed from
closed recurrences and, for the semicircle, the affine map x -> scale * x +
shift that the random-matrix predictions share.  The Cauchy transform
G(z) = integral of 1/(z - x) and its derivative come from one evaluation
of the pair (G(z), G'(z)), closed-form for every shape and free of
cancellation for large |z|; the shared terms (1/(z - t), s =
sqrt(zeta^2 - h^2), or z - a and z - b) and the domain check serve both
components, which ``cauchy_transform`` and ``cauchy_transform_derivative``
return.  Every shape is evaluated in ints, within a unit of a fixed point
that the ray inversion chooses per level and ``cauchy_transform`` from
|z|, the point itself in ints of a scale of its own; ``_int_form`` is the
one place that picks a law's form, and ``_evaluation_work`` counts what
an evaluation of it costs.  A discrete or Cauchy law is a sum of
weight / (z - pole), rational in its data, which ``_rational_form``
evaluates from the exact numerators and denominators; a semicircle or
Marchenko-Pastur law is 2m / (zeta + s + kappa), s = sqrt(zeta^2 - h^2),
of rational constants, which ``_sqrt_form`` evaluates with one
``math.isqrt`` per root; and the uniform law is m / (b - a) log q, q =
(z - a) / (z - b), whose ``_log_form`` sums an atanh series for log |q|
and an atan series for arg q in ints, with pi and log 2 computed once per
precision.  No production path integrates numerically or evaluates G in
mpmath; quadrature of the densities lives in the test oracles.

Conventions: weights of discrete atoms are positive rationals; "moments" are
raw integrals of x^k (no normalization), which is what the Levy layer needs
for masses other than 1.  G is evaluated on the upper half-plane and, for
compactly supported measures, also outside the closed disk containing the
support.  Every compact closed form (sums of w / (z - t), the root
s ~ zeta of zeta^2 - h^2, the principal log of (z - a) / (z - b)) is the
analytic G on all of C minus the support's hull [a, b], so a
lower-half-plane point takes the same formula as an upper one; G(conj z)
= conj G(z) holds bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

# mpmath is imported inside the functions that evaluate G or make an mpf:
# exact moments and the JSON round trip run without it.
if TYPE_CHECKING:
    import mpmath as mp

from .cumulants import MomentSequence, as_fraction
from .errors import (
    DomainError,
    MomentDoesNotExistError,
    UnsupportedOperationError,
    ValidationError,
)
from .noncrossing import catalan

# an int form's level carries this many bits past the working precision,
# on each ray level (rays.invert_g_on_ray) and in cauchy_transform
_GUARD_BITS = 20
# cauchy_transform takes z exactly while its finest bit lies at most this
# many bits past the level's scale 2^-(bits + e) (_transform): on a 2-core
# machine the semicircle, the slowest kind there, took 0.36 s, 1.4 s at 2^19
_POINT_BITS = 1 << 18
# A term of a discrete or Cauchy law costs a 48th of the ray budget's dps^2
# per evaluation (_evaluation_work), and below 200 digits what it costs at
# 200, where the interpreter's work on each term takes over.  On a 2-core
# machine an atom took 1.1-1.8 ms per evaluation at 3200 digits and 7 us
# at 50, and a ray of order 10 at 3200 digits 0.22 s per atom, against
# 1.6 s for Marchenko-Pastur at rate 2: 48 atoms, 10.4 s, are admitted
# there, 1000 are not.
_TERMS_PER_EVALUATION = 48
_TERM_FLOOR_DIGITS = 200
# An evaluation of a semicircle, a Marchenko-Pastur law or a uniform law
# costs (max(dps, _TERM_FLOOR_DIGITS) + h/3)^2 / _DENSITY_FORM_DIVISOR when
# that is more than dps^2, h the bits of its constants (_evaluation_work).
# On a 2-core machine at 50 digits, order 10, a semicircle of center 1/3 +
# 10^-D and radius 2 + 10^-D took 0.05 s at D = 3000, 0.27 s at 10^4 and
# 1.4 s at 3 10^4, where it is counted 1.9 times the ray budget,
# Marchenko-Pastur of rate 2 + 10^-D 1.2 s at 3 10^4 (0.84 of it), and
# the uniform law on [-1/3 + 10^-D, 2 + 10^-D] 0.04 s, 0.25 s and 1.3 s
# (0.84 of it); at 400 digits, order 4, the three took 0.9 s, 1.9 s and
# 2.4 s at 3 10^4, counted the same.  Their time grows like h^1.5, the
# count like h^2.
_DENSITY_FORM_DIVISOR = 2048
# _sqrt_form computes G and G' this many bits finer than its result, and
# rounds once to the nearest unit
_ROUND_BITS = 3
_HALF = 1 << (_ROUND_BITS - 1)
# _log_form halves a series' argument until it lies below about 2^-this
_SERIES_REACH = 3

DISCRETE = "discrete"
DENSITY = "density"

SEMICIRCLE = "semicircle"
MARCHENKO_PASTUR = "marchenko_pastur"
CAUCHY = "cauchy"
UNIFORM = "uniform"

_DENSITY_PARAMS = {
    SEMICIRCLE: ("center", "radius"),
    MARCHENKO_PASTUR: ("rate",),
    CAUCHY: ("center", "scale"),
    UNIFORM: ("a", "b"),
}


@dataclass(frozen=True)
class Measure:
    """A finite positive measure: discrete atoms or a named density shape
    scaled to total mass ``mass``."""

    kind: str
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    density: str | None = None
    params: tuple[tuple[str, Fraction], ...] = ()
    mass: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.kind == DISCRETE:
            atoms = tuple(
                (as_fraction(t), as_fraction(w)) for t, w in self.atoms
            )
            atoms = tuple(sorted(atoms, key=lambda a: a[0]))
            locations = [t for t, _ in atoms]
            if len(set(locations)) != len(locations):
                raise ValidationError("duplicate atom locations")
            if any(w <= 0 for _, w in atoms):
                raise ValidationError("atom weights must be positive")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "mass", sum((w for _, w in atoms), Fraction(0)))
            if self.density is not None or self.params:
                raise ValidationError("discrete measure with density fields")
        elif self.kind == DENSITY:
            if not isinstance(self.density, str) or self.density not in _DENSITY_PARAMS:
                raise ValidationError(f"unknown density {self.density!r}")
            wanted = _DENSITY_PARAMS[self.density]
            given = dict(self.params)
            if set(given) != set(wanted):
                raise ValidationError(
                    f"{self.density} needs params {wanted}, got {tuple(given)}"
                )
            params = tuple((name, as_fraction(given[name])) for name in wanted)
            object.__setattr__(self, "params", params)
            object.__setattr__(self, "mass", as_fraction(self.mass))
            if self.mass < 0:
                raise ValidationError("mass must be nonnegative")
            if self.atoms:
                raise ValidationError("density measure with atoms")
            self._validate_density()
        else:
            raise ValidationError(f"unknown measure kind {self.kind!r}")

    def _validate_density(self) -> None:
        p = self.param
        if self.density == SEMICIRCLE and p("radius") <= 0:
            raise ValidationError("semicircle radius must be positive")
        if self.density == MARCHENKO_PASTUR and p("rate") < 1:
            raise ValidationError(
                "marchenko_pastur rate must be >= 1 (below 1 the law has an "
                "atom at 0 and is not a pure density)"
            )
        if self.density == CAUCHY and p("scale") <= 0:
            raise ValidationError("cauchy scale must be positive")
        if self.density == UNIFORM and p("a") >= p("b"):
            raise ValidationError("uniform needs a < b")

    # ------------------------------------------------------------ constructors

    @classmethod
    def discrete(cls, atoms: Iterable[tuple]) -> "Measure":
        return cls(DISCRETE, atoms=tuple(atoms))

    @classmethod
    def dirac(cls, location, weight=1) -> "Measure":
        return cls.discrete([(location, weight)])

    @classmethod
    def semicircle(cls, center=0, radius=2, mass=1) -> "Measure":
        return cls(
            DENSITY,
            density=SEMICIRCLE,
            params=(("center", center), ("radius", radius)),
            mass=mass,
        )

    @classmethod
    def marchenko_pastur(cls, rate=1, mass=1) -> "Measure":
        return cls(DENSITY, density=MARCHENKO_PASTUR, params=(("rate", rate),), mass=mass)

    @classmethod
    def cauchy(cls, center=0, scale=1, mass=1) -> "Measure":
        return cls(
            DENSITY,
            density=CAUCHY,
            params=(("center", center), ("scale", scale)),
            mass=mass,
        )

    @classmethod
    def uniform(cls, a, b, mass=1) -> "Measure":
        return cls(DENSITY, density=UNIFORM, params=(("a", a), ("b", b)), mass=mass)

    # --------------------------------------------------------------- accessors

    def param(self, name: str) -> Fraction:
        for key, value in self.params:
            if key == name:
                return value
        raise ValidationError(f"no param {name!r}")

    def scaled(self, factor) -> "Measure":
        """Same shape with all weights (total mass) multiplied by factor."""
        f = as_fraction(factor)
        if f <= 0:
            raise ValidationError("scale factor must be positive")
        if self.kind == DISCRETE:
            return Measure.discrete([(t, w * f) for t, w in self.atoms])
        return Measure(
            DENSITY, density=self.density, params=self.params, mass=self.mass * f
        )

    def support_radius(self):
        """Working-precision mpf R with support inside [-R, R]; None if unbounded."""
        import mpmath as mp

        if self.kind == DISCRETE:
            if not self.atoms:
                return mp.mpf(0)
            return max(abs(_to_mpf(t)) for t, _ in self.atoms)
        if self.density == SEMICIRCLE:
            c, r = self.param("center"), self.param("radius")
            return max(abs(_to_mpf(c - r)), abs(_to_mpf(c + r)))
        if self.density == UNIFORM:
            return max(abs(_to_mpf(self.param("a"))), abs(_to_mpf(self.param("b"))))
        if self.density == MARCHENKO_PASTUR:
            return (1 + mp.sqrt(_to_mpf(self.param("rate")))) ** 2
        return None  # cauchy


def _to_mpf(q: Fraction):
    import mpmath as mp

    return mp.mpf(q.numerator) / q.denominator


# -------------------------------------------------------------------- moments


def _affine_moments(values, scale: Fraction, shift: Fraction) -> tuple[Fraction, ...]:
    """Moments of scale * X + shift from the moments m_1..m_p of a law X of
    unit mass (m_0 = 1), by the binomial expansion."""
    full = (Fraction(1),) + tuple(values)
    out = []
    for k in range(1, len(full)):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += math.comb(k, j) * scale**j * full[j] * shift ** (k - j)
        out.append(acc)
    return tuple(out)


def _semicircle_moments(center: Fraction, radius: Fraction, p: int) -> tuple:
    """The standard semicircle (m_2k = Catalan(k), odd moments 0) scaled by
    radius / 2 and shifted by center."""
    standard = [0 if i % 2 else catalan(i // 2) for i in range(1, p + 1)]
    return _affine_moments(standard, radius / 2, center)


def _narayana(p: int, k: int) -> int:
    return math.comb(p, k) * math.comb(p, k - 1) // p


def _mp_moments(rate: Fraction, p: int) -> list[Fraction]:
    return [
        sum(_narayana(i, k) * rate**k for k in range(1, i + 1))
        for i in range(1, p + 1)
    ]


def _uniform_moments(a: Fraction, b: Fraction, p: int) -> list[Fraction]:
    return [
        (b ** (i + 1) - a ** (i + 1)) / ((i + 1) * (b - a))
        for i in range(1, p + 1)
    ]


def moments(mu: Measure, p: int) -> MomentSequence:
    """Raw moments m_1..m_p = integral of x^k d(mu), exact rationals."""
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        return MomentSequence(())
    if mu.kind == DISCRETE:
        return MomentSequence(
            tuple(
                sum((w * t**i for t, w in mu.atoms), Fraction(0))
                for i in range(1, p + 1)
            )
        )
    if mu.density == CAUCHY:
        raise MomentDoesNotExistError(
            "the Cauchy density has no moments of order >= 1"
        )
    if mu.density == SEMICIRCLE:
        unit = _semicircle_moments(mu.param("center"), mu.param("radius"), p)
    elif mu.density == MARCHENKO_PASTUR:
        unit = _mp_moments(mu.param("rate"), p)
    else:
        unit = _uniform_moments(mu.param("a"), mu.param("b"), p)
    return MomentSequence(tuple(mu.mass * v for v in unit))


def absolute_moments(mu: Measure, p: int) -> tuple[Fraction, ...]:
    """integral of |x|^k d(mu) for k = 1..p, exact, where a closed form
    exists: discrete measures, uniform windows, and densities whose support
    does not straddle zero."""
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        return ()
    if mu.kind == DISCRETE:
        return tuple(
            sum((w * abs(t) ** k for t, w in mu.atoms), Fraction(0))
            for k in range(1, p + 1)
        )
    if mu.density == CAUCHY:
        raise MomentDoesNotExistError("the Cauchy density has no moments")
    if mu.density == UNIFORM:
        a, b = mu.param("a"), mu.param("b")

        def anti(x: Fraction, k: int) -> Fraction:
            return x * abs(x) ** k / (k + 1)

        return tuple(
            mu.mass * (anti(b, k) - anti(a, k)) / (b - a) for k in range(1, p + 1)
        )
    lo: Fraction
    if mu.density == SEMICIRCLE:
        lo = mu.param("center") - mu.param("radius")
        hi = mu.param("center") + mu.param("radius")
    else:  # marchenko_pastur: support starts at (1 - sqrt(rate))^2 >= 0
        lo, hi = Fraction(0), None
    signed = moments(mu, p).values
    if lo >= 0:
        return signed
    if hi is not None and hi <= 0:
        return tuple(v if k % 2 == 0 else -v for k, v in enumerate(signed, start=1))
    raise UnsupportedOperationError(
        "no exact absolute moments for a density straddling zero"
    )


# ----------------------------------------------------------- Cauchy transform


def _poles(mu: Measure):
    """The terms of G(z) = sum of (c/d) / (z - (P_re + i P_im)/q) of a
    discrete law (one per atom) or a Cauchy law (its pole center - i scale),
    as int tuples (c, d, P_re, P_im, q) with c, d, q > 0, and the radius of
    the support disk (None for the Cauchy law); None for the other shapes."""
    if mu.kind == DISCRETE:
        terms = [(w.numerator, w.denominator, t.numerator, 0, t.denominator) for t, w in mu.atoms]
        return terms, max((abs(t) for t, _ in mu.atoms), default=Fraction(0))
    if mu.density != CAUCHY:
        return None
    center, scale, mass = mu.param("center"), mu.param("scale"), mu.mass
    q = center.denominator * scale.denominator
    pole = (center.numerator * scale.denominator, -scale.numerator * center.denominator, q)
    return [(mass.numerator, mass.denominator, *pole)], None


def _toward_zero(x: int, d: int = 1, shift: int = 0) -> int:
    """x / (d 2^shift) rounded toward 0, for d > 0 and shift >= 0: odd in x,
    so that G(conj z) = conj G(z) holds bit for bit."""
    q = abs(x) if d == 1 else abs(x) // d
    q >>= shift
    return q if x >= 0 else -q


def _rational_form(mu: Measure):
    """level(e, bits, scale) -> evaluate(wr, wi), the exact (G, G') of a
    discrete or Cauchy law in ints.

    At a level of binary exponent e the point is w = (wr + i wi) 2^-s, s =
    scale, or the level's own scale bits + e when none is given, and
    evaluate returns G and G' as ints of 2^(e - bits) and 2^(2e - bits),
    each within one unit of the exact value, as a floor is.  Each term
    (c/d) / (w - P/q) takes one reciprocal r = q 2^u conj(N) / |N|^2 of
    the Gaussian int N = (w - P/q) q 2^u, u = max(s, 0), rounded toward 0
    in units 2^-(bits - e + g), and G' takes -(c/d) r^2, whose error grows
    with |r| 2^-e ~ |w| / |w - P/q|: the guard bits g grow with it.  The
    terms are summed 2^h times finer than the result, which keeps their
    errors, below 1 + (c/d) / 2 units each, under half a unit, and rounded
    once.

    The domain check is exact: Im w > 0, or |w| greater than the support
    radius; a point on an atom fails it."""
    terms, radius = _poles(mu)
    # 2^(h - 1) > n + mass, which bounds the terms' errors
    h = (len(terms) + math.ceil(mu.mass)).bit_length() + 1
    half = 1 << (h - 1)

    def level(e: int, bits: int, scale: int | None = None):
        s = bits + e if scale is None else scale
        up, down = max(s, 0), max(-s, 0)
        # N = W q 2^down - P 2^up, with W = wr + i wi
        scaled = [(c, d, pr << up, pi << up, q << down, q) for c, d, pr, pi, q in terms]
        if radius is not None:
            # |w| > radius  <=>  |W|^2 (den 2^down)^2 > (num 2^up)^2
            inner = (radius.numerator << up) ** 2
            outer = (radius.denominator << down) ** 2

        def evaluate(wr: int, wi: int):
            if not (wi > 0 or (radius is not None and (wr * wr + wi * wi) * outer > inner)):
                raise DomainError(
                    "the point is neither in the upper half-plane nor outside the support disk"
                )
            gr = gi = sr = si = 0
            for c, d, pr, pi, qw, q in scaled:
                nr, ni = wr * qw - pr, wi * qw - pi
                size = max(abs(nr), abs(ni)).bit_length()
                # |r| 2^-e < 2^grow, as |N| >= 2^(size - 1)
                grow = q.bit_length() + up - size + 1 - e
                g = h + 3 + max(grow, 0)
                k = bits - e + g  # r in units 2^-k
                # the floor of inv moves r by a quarter unit at most
                inv = (q << (up + k + size + 2)) // (nr * nr + ni * ni)
                rr, ri = _toward_zero(nr * inv, 1, size + 2), _toward_zero(-ni * inv, 1, size + 2)
                gr += _toward_zero(c * rr, d, g - h)
                gi += _toward_zero(c * ri, d, g - h)
                sr -= _toward_zero(c * (rr + ri) * (rr - ri), d, bits + 2 * g - h)
                si -= _toward_zero(2 * c * rr * ri, d, bits + 2 * g - h)
            return tuple(_toward_zero(x + (half if x >= 0 else -half), 1, h) for x in (gr, gi, sr, si))

        return evaluate

    return level


def _shifted(x: int, n: int, d: int = 1) -> int:
    """x 2^n / d rounded toward 0, for d > 0 and n of either sign."""
    return _toward_zero(x << n, d) if n >= 0 else _toward_zero(x, d, -n)


def _quotient(x: int, n: int, d: int) -> int:
    """x 2^n / d for d > 0, rounded toward 0 after the two are cut by the
    same power of 2 to 12 bits more than the quotient has: off by less than
    1 + 2^-10, and the cost of the division follows the quotient's bits,
    not the operands'."""
    size = d.bit_length()
    cut = max(size - max(x.bit_length() + n - size + 1, 1) - 12, 0)
    q = abs(x) << (n - cut) if n >= cut else abs(x) >> (cut - n)
    q //= d >> cut
    return q if x >= 0 else -q


def _size(x: int, y: int) -> int:
    """L with 2^(L - 1) <= |x + i y| < 2^(L + 1/2), for x + i y != 0."""
    return max(abs(x), abs(y)).bit_length()


def _sqrt_constants(mu: Measure):
    """The constants (mid, h^2, kappa) of `_sqrt_form`: (c, r^2, 0) for the
    semicircle of center c and radius r, (1 + rate, 4 rate, 2) for
    Marchenko-Pastur."""
    if mu.density == SEMICIRCLE:
        radius = mu.param("radius")
        return mu.param("center"), radius * radius, 0
    rate = mu.param("rate")
    return 1 + rate, 4 * rate, 2


def _sqrt_form(mu: Measure):
    """level(e, bits, scale) -> evaluate(wr, wi), the (G, G') of a
    semicircle or Marchenko-Pastur law in ints, with the contract of
    `_rational_form`: at a level of binary exponent e the point is w = (wr
    + i wi) 2^-scale, scale = bits + e unless given, and G and G' come back
    as ints of 2^(e - bits) and 2^(2e - bits), each within one unit of the
    exact value.

    Both laws are one form of rational constants (mid, h^2, kappa) and the
    mass m: with zeta = w - mid and s = sqrt(zeta^2 - h^2) on the branch
    s ~ zeta, d = zeta + s + kappa, G = 2m / d and G' = -2m (zeta + s) /
    (s d^2); (c, r^2, 0) for the semicircle of center c and radius r and
    (1 + rate, 4 rate, 2) for Marchenko-Pastur, whose edges mid -+ h are
    irrational at a rate that is not a square.  Each form is analytic off
    the support [mid - h, mid + h] and free of cancellation at large |w|,
    where the textbook (z + 1 - rate - s) / (2z) loses 2 log2 |w| bits.

    zeta and zeta^2 - h^2 are exact over the denominator b 2^u of mid, u =
    max(scale, 0).  s takes one `math.isqrt` of |zeta^2 - h^2|^2 and one
    of the larger of |Re s|^2 = (|s|^2 + Re s^2) / 2 and |Im s|^2, the
    smaller part coming from Im s^2 = 2 Re s Im s; on the branch Re s has
    the sign of Re zeta and Im s that of Im zeta, exact signs, so no
    rounding picks the wrong root near the cut.  s, zeta + s and d each
    lie within 8 units 2^-k of their values, and k is chosen from bounds
    read off the exact ints: |s| and |d| are 128 units at least, which
    keeps each relative error below 1/16, and the errors of G = 2m / d and
    of G', whose error grows like 1/|s|^2 near an edge, stay below a
    quarter unit, as |d| |zeta - s + kappa| = |2 kappa zeta + kappa^2 +
    h^2| with |zeta - s| <= h bounds |d| from below near
    Marchenko-Pastur's rate-1 pole at 0.  Both are divided out 2^3 times
    finer than the result (`_quotient`) and rounded once: within 0.88 of a
    unit.  Every rounding is toward 0, so G(conj w) = conj G(w) holds bit
    for bit.

    The domain check is exact: Im w > 0, or |w| > |mid| + h, which with A =
    |w|^2 and B = A + mid^2 - h^2 reads A > mid^2, B > 0 and B^2 >
    4 mid^2 A, all rational."""
    mid, h2, kappa = _sqrt_constants(mu)
    a, b, p, q = mid.numerator, mid.denominator, h2.numerator, h2.denominator
    mn, md = 2 * mu.mass.numerator, mu.mass.denominator  # 2m
    qbb = q * b * b
    lm = (mn // md + 1).bit_length()  # 2m < 2^lm
    # h + kappa < 2^hk
    hk = (math.isqrt(p * q) // q + 1 + kappa).bit_length()
    # log2 |zeta|, |s|, |P| past the bit lengths of their numerators
    lb, lqbb, lqb = b.bit_length(), qbb.bit_length(), (q * b).bit_length()

    def level(e: int, bits: int, scale: int | None = None):
        s = bits + e if scale is None else scale
        up, down = max(s, 0), max(-s, 0)
        # zeta = Z / (b 2^up), Z = W b 2^down - a 2^up; zeta^2 - h^2 =
        # (q Z^2 - p b^2 4^up) / (qbb 4^up); with A and mid^2, h^2 over qbb 4^up
        bd, au, pb = b << down, a << up, p * b * b << 2 * up
        mid2, wq = a * a * q << 2 * up, qbb << 2 * down
        # d (zeta - s + kappa) = P = (2 kappa q Z + c0) / (q b 2^up)
        c0 = (kappa * kappa * q + p) * b << up

        def evaluate(wr: int, wi: int):
            big = (wr * wr + wi * wi) * wq
            beyond = big + mid2 - pb
            if not (wi > 0 or (big > mid2 and beyond > 0 and beyond * beyond > 4 * mid2 * big)):
                raise DomainError(
                    "the point is neither in the upper half-plane nor outside the support disk"
                )
            zr, zi = wr * bd - au, wi * bd
            nr, ni = q * (zr * zr - zi * zi) - pb, 2 * q * zr * zi
            # lower bounds on log2 |zeta|, |s|, |zeta + s| and |d|, and an
            # upper bound on log2 |zeta + s| <= log2 (|zeta| + |s|)
            size_z, size_n = _size(zr, zi), _size(nr, ni)
            lz, ls = size_z - 1 - lb - up, (size_n - 1 - lqbb - 2 * up) // 2
            upper = max(size_z + 2 - lb - up, (size_n + 3 - lqbb - 2 * up) // 2) + 1
            lt = max(lz, ls)
            ld = _size(2 * kappa * q * zr + c0, 2 * kappa * q * zi) - 1 - lqb - up - hk
            if not kappa:
                ld = max(ld, lt)
            elif lt > kappa.bit_length():  # |d| >= |zeta + s| - kappa >= |zeta + s| / 2
                ld = max(ld, lt - 1)
            lo = min(ls, ld)
            k = max(
                bits - e + 7 + lm - 2 * ld,
                bits - 2 * e + 9 + lm + upper - ls - 2 * ld - lo,
                7 - lo,
            )
            # s 2^k from (zeta^2 - h^2) 4^k
            xr, xi = _shifted(nr, 2 * (k - up), qbb), _shifted(ni, 2 * (k - up), qbb)
            modulus = math.isqrt(xr * xr + xi * xi)
            if xr >= 0:
                u = math.isqrt((modulus + xr) >> 1)
                v = abs(xi) // (2 * u)
            else:
                v = math.isqrt((modulus - xr) >> 1)
                u = abs(xi) // (2 * v)
            sr, si = (u if zr >= 0 else -u), (v if zi >= 0 else -v)
            tr, ti = _shifted(zr, k - up, b) + sr, _shifted(zi, k - up, b) + si
            dr, di = tr + _shifted(kappa, k), ti
            dd = dr * dr + di * di
            # G = 2m conj(d) / |d|^2 and, with t = zeta + s, G' = -2m t conj(s) conj(d)^2 / (|s|^2 |d|^4)
            shift = bits - e + k + _ROUND_BITS
            gr, gi = _quotient(mn * dr, shift, md * dd), _quotient(-mn * di, shift, md * dd)
            ur, ui = tr * sr + ti * si, ti * sr - tr * si
            cr, ci = dr * dr - di * di, -2 * dr * di
            den = md * (sr * sr + si * si) * dd * dd
            shift += k - e
            gpr = _quotient(-mn * (ur * cr - ui * ci), shift, den)
            gpi = _quotient(-mn * (ur * ci + ui * cr), shift, den)
            return tuple(
                _toward_zero(x + (_HALF if x >= 0 else -_HALF), 1, _ROUND_BITS) for x in (gr, gi, gpr, gpi)
            )

        return evaluate

    return level


def _odd_series(x: int, k: int, sign: int) -> int:
    """The sum of sign^i x^(2i+1) / (2i+1) over i >= 0, atanh x at sign 1
    and atan x at sign -1, for 0 <= x < 2^(k-1), x and the sum ints of
    2^-k: within 3 units of the value at x, so within 3 + 4/3 e units of
    the value at a real x' when x is within e units of x'.

    Summed by rectangular splitting (Smith, Math. Comp. 52 (1989)): the n
    terms that take the tail below a quarter unit, as x < 2^-l, form
    blocks of m = isqrt(n), each a sum of the powers y^0..y^(m-1) of y =
    sign x^2 divided by small ints, joined by Horner's rule in y^m.  The
    powers carry 3 units at most, and each term is rounded once, so the
    sum runs at guard bits that follow the term count: the bits of 4m + 8."""
    if not x:
        return 0
    l = k - x.bit_length()
    n = (k + l) // (2 * l) + 1
    m = math.isqrt(n)
    guard = (4 * m + 8).bit_length()
    kk = k + guard
    big = x << guard
    y = big * big >> kk
    powers = [1 << kk]
    for _ in range(m):
        powers.append(powers[-1] * y >> kk)
    if sign < 0:
        powers = [-p if i % 2 else p for i, p in enumerate(powers)]
    step = powers.pop()
    acc = 0
    for start in range((n - 1) // m * m, -1, -m):
        block = sum(p // d for p, d in zip(powers, range(2 * start + 1, 2 * n, 2)))
        acc = block + (acc * step >> kk)
    return big * acc >> (k + 2 * guard)


@functools.lru_cache(maxsize=16)
def _log_constants(k: int) -> tuple[int, int]:
    """(pi, log 2) as ints of 2^-k, each within 1.01 units: Machin's pi =
    16 atan(1/5) - 4 atan(1/239) and log 2 = 4 atanh(1/7) + 2 atanh(1/17),
    summed 2^16 finer.  `_log_form` asks for k rounded up to a multiple of
    64 bits, so they are computed once per such precision, and cuts them."""
    kk = k + 16
    pi = 16 * _odd_series((1 << kk) // 5, kk, -1) - 4 * _odd_series((1 << kk) // 239, kk, -1)
    log2 = 4 * _odd_series((1 << kk) // 7, kk, 1) + 2 * _odd_series((1 << kk) // 17, kk, 1)
    return pi >> 16, log2 >> 16


def _halvings(num: int, den: int) -> int:
    """How often `_log_form` halves the argument num / den <= 1 of a series,
    each halving dividing it by about 2 or more, to take it below about
    2^-_SERIES_REACH."""
    return max(num.bit_length() - den.bit_length() + 1 + _SERIES_REACH, 0)


def _halved(x: int, k: int, j: int, sign: int) -> int:
    """x / (1 + sqrt(1 + sign x^2)) applied j times to an int x >= 0 of 2^-k:
    tan(atan(x) / 2) for x <= 1 at sign 1, tanh(atanh(x) / 2) for x <= 1/3
    at sign -1.  Their slopes are at most 1/2 and 0.57, and each step
    rounds by less than 1.3 units, so an x within 3 units stays within 3."""
    one, square = 1 << k, 1 << 2 * k
    for _ in range(j):
        x = (x << k) // (one + math.isqrt(square + sign * x * x))
    return x


def _log_form(mu: Measure):
    """level(e, bits, scale) -> evaluate(wr, wi), the (G, G') of a uniform
    law in ints, with the contract of `_rational_form`: at a level of
    binary exponent e the point is w = (wr + i wi) 2^-s, s = scale or bits
    + e, and G and G' come back as ints of 2^(e - bits) and 2^(2e - bits),
    each within one unit of the exact value.

    G = m / (b - a) log q with q = (w - a) / (w - b) on the principal
    branch, analytic off [a, b], and log q = log |q| + i arg q, both from
    exact ints of zeta_x = w - x over the ends' common denominator times
    2^u, u = max(s, 0).  log |q| = atanh v of the exact ratio v =
    (|zeta_a|^2 - |zeta_b|^2) / (|zeta_a|^2 + |zeta_b|^2); past |v| = 1/3,
    near an end, it is n log 2 / 2 + atanh of (|zeta_a|^2 - 2^n
    |zeta_b|^2) / (|zeta_a|^2 + 2^n |zeta_b|^2), n the difference of the
    two norms' bit lengths.  arg q is the argument of zeta_a conj(zeta_b)
    = P + iQ, where Q has the sign of -Im w: atan(|Q| / P), pi/2 - atan(P
    / |Q|) or pi - atan(|Q| / |P|), whichever argument is at most 1; pi
    enters near arg q = -pi, just above the support.  Each argument is one
    rounded quotient, halved j times by x -> x / (1 + sqrt(1 -+ x^2))
    (`_halved`) while it may be 1/8 or more, and its series is summed by
    rectangular splitting (`_odd_series`) and multiplied by 2^j; pi and
    log 2 are computed once per precision (`_log_constants`).  So log q
    lies within (7 << j) + 2 |n| + 3 units 2^-k, and k = max(bits - e, 0)
    + g keeps G's error below a quarter unit: the guard bits g follow m /
    (b - a), the halvings and n.

    G' = -m / ((w - a)(w - b)) is one Gaussian reciprocal of the exact
    product zeta_a zeta_b, whose norm is |zeta_a|^2 |zeta_b|^2, free of the
    cancellation of m / (b - a) (1 / (w - a) - 1 / (w - b)) at large |w|.
    G and G' are divided out 2^3 times finer than the result (`_quotient`)
    and rounded once.  Every rounding is toward 0, and the sign of Im w
    enters only at the end, so G(conj w) = conj G(w) holds bit for bit.

    The domain check is exact: Im w > 0, or |w| > max(|a|, |b|)."""
    lo, hi = mu.param("a"), mu.param("b")
    den = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    mn, md = mu.mass.numerator, mu.mass.denominator
    # G = c log q, c = m / (b - a) = cn / cd
    cn, cd = mn * den, md * (b - a)
    lc = (cn // cd + 1).bit_length()  # c < 2^lc
    radius = max(abs(lo), abs(hi))
    gp = mn * den * den  # -G' = m / ((w - a)(w - b)) = gp 4^up / (md N)

    def level(e: int, bits: int, scale: int | None = None):
        s = bits + e if scale is None else scale
        up, down = max(s, 0), max(-s, 0)
        dd, au, bu, width = den << down, a << up, b << up, (b - a) << up
        # |w| > radius  <=>  |W|^2 rd2 > rn2
        rn2, rd2 = (radius.numerator << up) ** 2, (radius.denominator << down) ** 2
        out = bits - e + _ROUND_BITS  # G in units 2^-out
        gp_shift = 2 * up + bits - 2 * e + _ROUND_BITS

        def evaluate(wr: int, wi: int):
            if not (wi > 0 or (wr * wr + wi * wi) * rd2 > rn2):
                raise DomainError(
                    "the point is neither in the upper half-plane nor outside the support disk"
                )
            # zeta_a = (ar + i y) / (den 2^up), zeta_b = (br + i y) / (den 2^up)
            y, ar, br = wi * dd, wr * dd - au, wr * dd - bu
            yy, ab = y * y, ar * br
            na, nb = ar * ar + yy, br * br + yy
            # log |q| = n log 2 / 2 + atanh(vn / vd), vd = na + nb 2^n
            if 3 * abs(na - nb) <= na + nb:
                n, vn, vd = 0, na - nb, na + nb
            else:
                n = na.bit_length() - nb.bit_length()
                sa, sb = (na, nb << n) if n >= 0 else (na << -n, nb)
                vn, vd = sa - sb, sa + sb
            # arg q = -sign(Im w) theta, theta = atan2(|Q|, P) = base pi/2
            # + turn atan(tn / td), tn <= td, of zeta_a conj(zeta_b) = (P +
            # iQ) / (den 2^up)^2
            p, aq = ab + yy, abs(y) * width
            if aq <= p:
                base, tn, td, turn = 0, aq, p, 1
            elif aq < -p:
                base, tn, td, turn = 2, aq, -p, -1
            else:
                base, tn, td, turn = 1, abs(p), aq, -1 if p > 0 else 1
            jr, ji = _halvings(abs(vn), vd), _halvings(tn, td)
            # 2^(g - 2) > c times log q's error bound in units 2^-k
            g = lc + 2 + ((7 << max(jr, ji)) + 2 * abs(n) + 3).bit_length()
            k = max(bits - e, 0) + g
            atanh = _odd_series(_halved(_quotient(abs(vn), k, vd), k, jr, -1), k, 1) << jr
            theta = _odd_series(_halved(_quotient(tn, k, td), k, ji, 1), k, -1) << ji
            re = atanh if vn >= 0 else -atanh
            im = turn * theta
            if n or base:
                # pi and log 2 within 2.01 units
                top = -(-k // 64) * 64
                pi, log2 = (c >> (top - k) for c in _log_constants(top))
                re += _toward_zero(n * log2, 1, 1)
                im += base * pi >> 1
            if wi > 0:
                im = -im
            gr, gi = _quotient(cn * re, out - k, cd), _quotient(cn * im, out - k, cd)
            nn = na * nb * md
            gpr = _quotient(-gp * (ab - yy), gp_shift, nn)
            gpi = _quotient(gp * y * (ar + br), gp_shift, nn)
            return tuple(
                _toward_zero(x + (_HALF if x >= 0 else -_HALF), 1, _ROUND_BITS) for x in (gr, gi, gpr, gpi)
            )

        return evaluate

    return level


def _int_form(mu: Measure):
    """(form, terms, divisor): mu's int form, chosen here and nowhere else,
    whose form(mu) builds its levels, and the ints whose heights
    `_evaluation_work` counts over divisor, read off without building it:
    the poles (`_poles`) of a discrete or Cauchy law (`_rational_form`), or
    one term of the constants and mass of a semicircle or Marchenko-Pastur
    law (`_sqrt_form`, `_sqrt_constants`) or of the uniform law
    (`_log_form`)."""
    found = _poles(mu)
    if found is not None:
        return _rational_form, found[0], _TERMS_PER_EVALUATION
    if mu.density == UNIFORM:
        form, constants = _log_form, (mu.param("a"), mu.param("b"))
    else:
        form, constants = _sqrt_form, _sqrt_constants(mu)[:2]
    term = tuple(x for c in (*constants, mu.mass) for x in (c.numerator, c.denominator))
    return form, (term,), _DENSITY_FORM_DIVISOR


def _evaluation_work(mu: Measure, dps: int) -> int:
    """Estimated digit products of one evaluation of mu's int form at dps
    digits: dps^2, the growth of one multiply at that precision, or, when
    more, (max(dps, _TERM_FLOOR_DIGITS) + h/3)^2 per term of h bits over
    the form's divisor (`_int_form`), as levy._moments_work counts an
    atom's height (3.3 bits make a digit)."""
    _, terms, divisor = _int_form(mu)
    digits = max(dps, _TERM_FLOOR_DIGITS)
    heights = sum((digits + sum(x.bit_length() for x in term) // 3) ** 2 for term in terms)
    return max(dps * dps, heights // divisor)


def _transform(mu: Measure, z, dps: int) -> tuple[mp.mpc, mp.mpc]:
    """(G(z), G'(z)) to roughly dps digits, from the law's int form
    (`_int_form`) at a level of |z|, e = -mag(z), where G ~ 1/z is an int
    of about `bits` bits: _GUARD_BITS past the precision, and as many more
    as a pole lies farther out than z or the mass lies below 1; twice as
    many as the support reaches past z for a compactly supported density,
    where G' ~ 1/h^2 falls below the level's scale 1/z^2.  z goes in at the
    scale of its own finest bit, exactly, so that a point near an atom, an
    edge or an end of the support, where G' grows like the inverse of the
    distance, keeps its distance to it, while that scale lies at most
    _POINT_BITS past the level's own, bits + e.  Past that z goes in
    rounded, its imaginary part away from 0, so it stays on its side of the
    axis."""
    import mpmath as mp

    with mp.workdps(dps):
        found = _poles(mu)
        z = mp.mpc(z)
        if not mp.isfinite(z):
            raise DomainError(f"point {z} is not finite")
        e = -int(mp.mag(z)) if z else 0
        if found is not None:
            reach = max(
                (max(abs(pr), abs(pi)).bit_length() - q.bit_length() + 1 for _, _, pr, pi, q in found[0]),
                default=0,
            )
            spread = max(reach + e, 0)
        else:
            spread = 2 * max(int(mp.mag(mu.support_radius())) + e, 0)
        light = mu.mass.denominator.bit_length() - mu.mass.numerator.bit_length() + 1
        bits = mp.mp.prec + _GUARD_BITS + spread + max(light, 0)
        finest = max((-exp for _, man, exp, _ in (z.real._mpf_, z.imag._mpf_) if man), default=0)
        s = min(max(finest, bits + e), bits + e + _POINT_BITS)
        y = mp.ldexp(z.imag, s)
        w = int(mp.floor(mp.ldexp(z.real, s))), int(mp.ceil(y) if y > 0 else mp.floor(y))
        gr, gi, sr, si = _int_form(mu)[0](mu)(e, bits, s)(*w)
        return (
            mp.mpc(mp.ldexp(gr, e - bits), mp.ldexp(gi, e - bits)),
            mp.mpc(mp.ldexp(sr, 2 * e - bits), mp.ldexp(si, 2 * e - bits)),
        )


def cauchy_transform(mu: Measure, z, dps: int = 30) -> mp.mpc:
    """G(z) = integral of 1/(z - x) dmu(x), to roughly dps digits.

    z must lie in the open upper half-plane, or (for compactly supported
    measures) strictly outside the disk |z| <= support radius.  Near an
    atom, an edge or an end z is taken exactly up to 2^18 bits past the
    scale of |z|, and rounded past that (`_transform`).
    """
    return _transform(mu, z, dps)[0]


def cauchy_transform_derivative(mu: Measure, z, dps: int = 30) -> mp.mpc:
    """G'(z) = -integral of 1/(z - x)^2 dmu(x); same domain as G."""
    return _transform(mu, z, dps)[1]


# ----------------------------------------------------------------------- JSON

_JSON_FIELDS = {
    DISCRETE: {"kind", "atoms", "mass"},
    DENSITY: {"kind", "name", "params", "mass"},
}


def measure_to_json(mu: Measure) -> dict:
    if mu.kind == DISCRETE:
        return {
            "kind": DISCRETE,
            "atoms": [[str(t), str(w)] for t, w in mu.atoms],
        }
    return {
        "kind": DENSITY,
        "name": mu.density,
        "params": {k: str(v) for k, v in mu.params},
        "mass": str(mu.mass),
    }


def measure_from_json(data) -> Measure:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("measure JSON must be an object with a 'kind'")
    kind = data["kind"]
    if kind not in (DISCRETE, DENSITY):  # a tuple: kind may be unhashable
        raise ValidationError(f"unknown measure kind {kind!r}")
    extra = set(data) - _JSON_FIELDS[kind]
    if extra:
        raise ValidationError(f"unknown {kind} measure fields {sorted(extra)}")
    if kind == DISCRETE:
        atoms = data.get("atoms")
        if not isinstance(atoms, list) or any(
            not isinstance(a, (list, tuple)) or len(a) != 2 for a in atoms
        ):
            raise ValidationError("discrete measure needs 'atoms': [[t, w], ...]")
        mu = Measure.discrete([(a[0], a[1]) for a in atoms])
        if "mass" in data and as_fraction(data["mass"]) != mu.mass:
            raise ValidationError("declared mass disagrees with atom weights")
        return mu
    params = data.get("params")
    if not isinstance(params, dict):
        raise ValidationError("density measure needs a 'params' object")
    return Measure(
        DENSITY,
        density=data.get("name"),
        params=tuple(params.items()),
        mass=data.get("mass", 1),
    )
