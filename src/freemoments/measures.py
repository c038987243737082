"""Measures on the real line: finite discrete measures with rational data and
a small family of named densities (semicircle, Marchenko-Pastur, Cauchy,
uniform).

Exact data passes through ``cumulants.as_fraction`` (ints, Fractions, "p/q"
or decimal strings; never floats).  Moments are exact rationals computed from
closed recurrences and, for the semicircle, the affine map x -> scale * x +
shift that the random-matrix predictions share.  The Cauchy transform
G(z) = integral of 1/(z - x) and its derivative come from one evaluation
of the pair (G(z), G'(z)), closed-form for every shape and free of
cancellation for large |z|; the shared terms (1/(z - t), or s =
sqrt(zeta^2 - h^2)) and the domain check serve both components,
which ``cauchy_transform`` and ``cauchy_transform_derivative`` return.
Every shape but the uniform law is evaluated in ints, within a unit of a
fixed point that the ray inversion chooses per level and
``cauchy_transform`` from |z|: a discrete or Cauchy law is a sum of
weight / (z - pole), rational in its data, which ``_rational_form``
evaluates from the exact numerators and denominators, and a semicircle or
Marchenko-Pastur law is 2m / (zeta + s + kappa), s = sqrt(zeta^2 - h^2),
of rational constants, which ``_sqrt_form`` evaluates with one
``math.isqrt`` per root.  The uniform law takes its logarithm in
arbitrary precision (mpmath): ``_evaluator`` builds its evaluation at the
working precision (the precision of ``Measure.support_radius`` too), with
the exact ends converted to mpf once, so the ray inversion pays the
conversions once per ray, not per Newton point.  No production path
integrates numerically; quadrature of the densities lives in the test
oracles.

Conventions: weights of discrete atoms are positive rationals; "moments" are
raw integrals of x^k (no normalization), which is what the Levy layer needs
for masses other than 1.  G is evaluated on the upper half-plane and, for
compactly supported measures, also outside the closed disk containing the
support.  Every compact closed form (sums of w / (z - t), the root
s ~ zeta of zeta^2 - h^2, log1p(w / (z - b))) is the analytic G on all of
C minus the support's hull [a, b], so a lower-half-plane point takes the
same formula as an upper one; G(conj z) = conj G(z) holds bit for bit.
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

# cauchy_transform evaluates a law of an int form with this many bits past
# the working precision (_transform)
_GUARD_BITS = 20
# _sqrt_form computes G and G' this many bits finer than its result, and
# rounds once to the nearest unit
_ROUND_BITS = 3
_HALF = 1 << (_ROUND_BITS - 1)

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
    """level(e, bits) -> evaluate(wr, wi), the exact (G, G') of a discrete
    or Cauchy law in ints, or None for the other shapes.

    At a level of binary exponent e (`rays._fixed_transform`) the point is
    w = (wr + i wi) 2^-s, s = bits + e, and evaluate returns G and G' as
    ints of 2^(e - bits) and 2^(2e - bits), each within one unit of the
    exact value, as a floor is.  Each term (c/d) / (w - P/q) takes one
    reciprocal r = q 2^u conj(N) / |N|^2 of the Gaussian int N = (w - P/q)
    q 2^u, u = max(s, 0), rounded toward 0 in units 2^-(bits - e + g), and
    G' takes -(c/d) r^2, whose error grows with |r| 2^-e ~ |w| / |w - P/q|:
    the guard bits g grow with it.  The terms are summed 2^h times finer
    than the result, which keeps their errors, below 1 + (c/d) / 2 units
    each, under half a unit, and rounded once.

    The domain check is exact: Im w > 0, or |w| greater than the support
    radius; a point on an atom fails it."""
    found = _poles(mu)
    if found is None:
        return None
    terms, radius = found
    # 2^(h - 1) > n + mass, which bounds the terms' errors
    h = (len(terms) + math.ceil(mu.mass)).bit_length() + 1
    half = 1 << (h - 1)

    def level(e: int, bits: int):
        s = bits + e
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
    Marchenko-Pastur; None for the other shapes."""
    if mu.density == SEMICIRCLE:
        radius = mu.param("radius")
        return mu.param("center"), radius * radius, 0
    if mu.density == MARCHENKO_PASTUR:
        rate = mu.param("rate")
        return 1 + rate, 4 * rate, 2
    return None


def _sqrt_form(mu: Measure):
    """level(e, bits) -> evaluate(wr, wi), the (G, G') of a semicircle or
    Marchenko-Pastur law in ints, or None for the other shapes; the same
    contract as `_rational_form`: at a level of binary exponent e the point
    is w = (wr + i wi) 2^-(bits + e), and G and G' come back as ints of
    2^(e - bits) and 2^(2e - bits), each within one unit of the exact
    value.

    Both laws are one form of rational constants (mid, h^2, kappa) and the
    mass m: with zeta = w - mid and s = sqrt(zeta^2 - h^2) on the branch
    s ~ zeta, d = zeta + s + kappa, G = 2m / d and G' = -2m (zeta + s) /
    (s d^2); (c, r^2, 0) for the semicircle of center c and radius r and
    (1 + rate, 4 rate, 2) for Marchenko-Pastur, whose edges mid -+ h are
    irrational at a rate that is not a square.  Each form is analytic off
    the support [mid - h, mid + h] and free of cancellation at large |w|,
    where the textbook (z + 1 - rate - s) / (2z) loses 2 log2 |w| bits.

    zeta and zeta^2 - h^2 are exact over the denominator b 2^u of mid, u =
    max(bits + e, 0).  s takes one `math.isqrt` of |zeta^2 - h^2|^2 and one
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
    constants = _sqrt_constants(mu)
    if constants is None:
        return None
    mid, h2, kappa = constants
    a, b, p, q = mid.numerator, mid.denominator, h2.numerator, h2.denominator
    mn, md = 2 * mu.mass.numerator, mu.mass.denominator  # 2m
    qbb = q * b * b
    lm = (mn // md + 1).bit_length()  # 2m < 2^lm
    # h + kappa < 2^hk
    hk = (math.isqrt(p * q) // q + 1 + kappa).bit_length()
    # log2 |zeta|, |s|, |P| past the bit lengths of their numerators
    lb, lqbb, lqb = b.bit_length(), qbb.bit_length(), (q * b).bit_length()

    def level(e: int, bits: int):
        s = bits + e
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


def _closed_form(mu: Measure):
    """A callable z -> (G(z), G'(z)) of a uniform law for points that passed
    the domain check, with the exact constants of mu converted to mpf once,
    at the working precision of this call; _evaluator adds the domain
    check.  The form is analytic off the support [a, b], so it holds in the
    lower half-plane too, and free of cancellation for large |z| (the ray
    inversion's Newton iterates reach |z| ~ 1e12): log((z - a) / (z - b))
    becomes log1p((b - a) / (z - b)).
    """
    import mpmath as mp

    mass = _to_mpf(mu.mass)
    a, b = mu.param("a"), mu.param("b")
    lo, hi, width = _to_mpf(a), _to_mpf(b), _to_mpf(b - a)

    def uniform(z):
        z_hi = z - hi
        return mass * mp.log1p(width / z_hi) / width, -mass / ((z - lo) * z_hi)

    return uniform


def _evaluator(mu: Measure):
    """A callable z -> (G(z), G'(z)) of a uniform law with the domain check,
    built at the working precision and to be called at it.  The check keeps
    Newton on G's own branch: the upper half-plane, or outside the support
    disk, whose radius is converted on the first point off the upper
    half-plane.
    """
    import mpmath as mp

    closed = _closed_form(mu)
    support = functools.cache(mu.support_radius)

    def evaluate(z):
        zz = mp.mpc(z)
        if zz.imag <= 0 and abs(zz) <= support():
            raise DomainError(
                f"point {zz} is neither in the upper half-plane nor outside "
                "the support disk"
            )
        return closed(zz)

    return evaluate


def _transform(mu: Measure, z, dps: int) -> tuple[mp.mpc, mp.mpc]:
    """(G(z), G'(z)) to roughly dps digits.  A law of an int form
    (`_rational_form`, `_sqrt_form`) takes it in the fixed point of a level
    at |z|, e = -mag(z), where G ~ 1/z is an int of about `bits` bits:
    _GUARD_BITS past the precision, and as many more as a pole lies farther
    out than z or the mass lies below 1; twice as many as the support
    reaches past z for a semicircle or Marchenko-Pastur law, where G' ~
    1/h^2 falls below the level's scale 1/z^2.  z goes in rounded to that
    fixed point, its imaginary part away from 0, so it stays on its side of
    the axis.  The uniform law takes its mpmath form (`_evaluator`)."""
    import mpmath as mp

    with mp.workdps(dps):
        found = _poles(mu)
        form = _rational_form(mu) if found is not None else _sqrt_form(mu)
        if form is None:
            return _evaluator(mu)(z)
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
        y = mp.ldexp(z.imag, bits + e)
        w = int(mp.floor(mp.ldexp(z.real, bits + e))), int(mp.ceil(y) if y > 0 else mp.floor(y))
        gr, gi, sr, si = form(e, bits)(*w)
        return (
            mp.mpc(mp.ldexp(gr, e - bits), mp.ldexp(gi, e - bits)),
            mp.mpc(mp.ldexp(sr, 2 * e - bits), mp.ldexp(si, 2 * e - bits)),
        )


def cauchy_transform(mu: Measure, z, dps: int = 30) -> mp.mpc:
    """G(z) = integral of 1/(z - x) dmu(x), to roughly dps digits.

    z must lie in the open upper half-plane, or (for compactly supported
    measures) strictly outside the disk |z| <= support radius.
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
