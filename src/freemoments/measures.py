"""Measures on the real line: finite discrete measures with rational data and
a small family of named densities (semicircle, Marchenko-Pastur, Cauchy,
uniform).

Exact data passes through ``cumulants.as_fraction`` (ints, Fractions, "p/q"
or decimal strings; never floats).  Moments are exact rationals computed from
closed recurrences and, for the semicircle, the affine map x -> scale * x +
shift that the random-matrix predictions share.  The Cauchy transform
G(z) = integral of 1/(z - x) and its derivative are evaluated in arbitrary
precision (mpmath) in closed form for every shape, written so that nothing
cancels for large |z|.  No production path integrates numerically;
quadrature of the densities lives in the test oracles.

Conventions: weights of discrete atoms are positive rationals; "moments" are
raw integrals of x^k (no normalization), which is what the Levy layer needs
for masses other than 1.  G is defined on the upper half-plane and, for
compactly supported measures, also outside the closed disk containing the
support; every lower-half-plane point is evaluated by the reflection
G(conj z) = conj G(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import mpmath as mp

from .cumulants import MomentSequence, as_fraction
from .errors import (
    DomainError,
    MomentDoesNotExistError,
    UnsupportedOperationError,
    ValidationError,
)
from .noncrossing import catalan

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

    def support_radius(self, dps: int = 30):
        """mpf bound R with support inside [-R, R]; None when unbounded."""
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
            with mp.workdps(dps):
                return (1 + mp.sqrt(_to_mpf(self.param("rate")))) ** 2
        return None  # cauchy


def _to_mpf(q: Fraction):
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


def _check_domain(mu: Measure, z: mp.mpc, dps: int) -> None:
    if z.imag > 0:
        return
    radius = mu.support_radius(dps)
    if radius is not None and abs(z) > radius:
        return
    raise DomainError(
        f"point {z} is neither in the upper half-plane nor outside the "
        "support disk"
    )


def _transform_closed(mu: Measure, z: mp.mpc, derivative: bool) -> mp.mpc:
    """G(z), or G'(z), at a point that passed the domain check; _transform
    reflects z out of the lower half-plane.

    The density shapes use forms free of cancellation for large |z| (the ray
    inversion's Newton iterates reach |z| ~ 1e12): with s = sqrt(z - a) *
    sqrt(z - b) ~ z, the Marchenko-Pastur (z + 1 - rate - s) / (2z) becomes
    2 / (z + 1 - rate + s), like the semicircle's 2 / (zeta + s), and the
    uniform log((z - a) / (z - b)) becomes log1p((b - a) / (z - b)).
    """
    if mu.kind == DISCRETE:
        total = mp.mpc(0)
        for t, w in mu.atoms:
            d = z - _to_mpf(t)
            total += _to_mpf(w) * (-(d**-2) if derivative else 1 / d)
        return total
    mass = _to_mpf(mu.mass)
    if mu.density == SEMICIRCLE:
        center = _to_mpf(mu.param("center"))
        r = _to_mpf(mu.param("radius"))
        zeta = z - center
        s = mp.sqrt(zeta - r) * mp.sqrt(zeta + r)
        if derivative:
            return mass * (-2) * (1 + zeta / s) / (zeta + s) ** 2
        return mass * 2 / (zeta + s)
    if mu.density == MARCHENKO_PASTUR:
        rate = _to_mpf(mu.param("rate"))
        root = mp.sqrt(rate)
        s = mp.sqrt(z - (1 - root) ** 2) * mp.sqrt(z - (1 + root) ** 2)
        d = z + 1 - rate + s
        if derivative:
            return mass * (-2) * (1 + (z - 1 - rate) / s) / d**2
        return mass * 2 / d
    if mu.density == UNIFORM:
        a, b = mu.param("a"), mu.param("b")
        lo, hi = _to_mpf(a), _to_mpf(b)
        if derivative:
            return -mass / ((z - lo) * (z - hi))
        width = _to_mpf(b - a)
        return mass * mp.log1p(width / (z - hi)) / width
    # cauchy
    d = z - _to_mpf(mu.param("center")) + mp.mpc(0, 1) * _to_mpf(mu.param("scale"))
    return mass * (-(d**-2) if derivative else 1 / d)


def _transform(mu: Measure, z, dps: int, derivative: bool) -> mp.mpc:
    with mp.workdps(dps):
        zz = mp.mpc(z)
        _check_domain(mu, zz, dps)
        if zz.imag < 0:
            # the domain check admits the lower half-plane only outside a
            # compact support, where G(conj z) = conj G(z)
            return mp.conj(_transform_closed(mu, mp.conj(zz), derivative))
        return _transform_closed(mu, zz, derivative)


def cauchy_transform(mu: Measure, z, dps: int = 30) -> mp.mpc:
    """G(z) = integral of 1/(z - x) dmu(x), to roughly dps digits.

    z must lie in the open upper half-plane, or (for compactly supported
    measures) strictly outside the disk |z| <= support radius.
    """
    return _transform(mu, z, dps, derivative=False)


def cauchy_transform_derivative(mu: Measure, z, dps: int = 30) -> mp.mpc:
    """G'(z) = -integral of 1/(z - x)^2 dmu(x); same domain as G."""
    return _transform(mu, z, dps, derivative=True)


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
