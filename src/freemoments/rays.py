"""Numeric recovery of the R-transform on rays approaching the origin.

For a finite measure mu with Cauchy transform G, the compositional left
inverse K of G is defined near 0 (away from the real axis), and

    R(z) = K(z) - 1/z

extends holomorphically to z = 0 along any ray that stays inside a cone
around the negative imaginary axis.  Its Taylor coefficients at 0 are the
free cumulants of mu.  This module samples K on a geometric grid of radii
along such a ray (damped Newton with continuation from the smallest radius,
where K(z) is dominated by 1/z, each radius seeded with R extrapolated from
the radii below it), and fits a polynomial to the R values to estimate the
leading Taylor coefficients.  Each error figure is twice the coefficient's
gap to a check fit with two more powers (a law with no odd cumulants skips
one; the factor 2 covers the power after them) plus what the samples'
stability figures move the fit and that gap by.  The expansion is read at
0, so only radii <= beta/100 are sampled, and the fit reads every one of
them: 3 (p + 1) levels for a fit of order p, which the ray's 34 levels
hold up to order 10 (invert_g_on_ray).  The fit matrix depends only on
which grid levels were kept and the degree, never on the measure or the
precision, and its entries are powers of 2: both pseudo-inverses are
exact rationals, which one fraction-free elimination per such key gives
as int rows (`_fit_maps`), cached; every fit after the first is int dot
products, rounded once per output value.

Newton gets G and G' from one evaluation per trial point and steps with
the slope that came with the point it accepted; a measure's form is built
once per ray, at the ray's precision (`_level_evaluators`).  The radii
double from level to level, so the quadratic through R at t/2, t/4 and
t/8 predicts R(t) with the integer weights 7, -14, 8, and the seed
1/z + R often needs no Newton step at all.  The last step at a level is
mostly not evaluated: the curvature bound |G''(w)| <= 2 / (Im w)^3 of a
probability law on the real line certifies it from the point it starts
at (`_step_certificate`).  At 50 digits that takes about 1.5 evaluations
per grid point over the benchmark's laws on the 15 levels of its order-4
fits, 1.3 on 21 levels (the first levels take the most) and 1.2 on the
15 levels of semicircles, where R is linear; 2.1, 1.9 and 1.5 with every
last step evaluated.  At 400 digits it takes 3.2 on the 15 levels, 5.1 on
discrete laws and 1.6 on semicircles, against 3.8, 6.1 and 1.9.

Each level's Newton loop, its certificate and the seeds run in fixed
point: Python ints scaled by a binary exponent of the level
(`_level_evaluators`), which round in a known direction, so every bound
is rounded the safe way at any radius and any precision.  The G and G'
of every measure are ints of that fixed point too, each within a unit of
the exact value (`measures._int_form`); those of a pair of callables are
mpmath at a caller-chosen working precision (`_fixed_transform`).  The
fit runs in ints too: a kept R value or stability figure is a dyadic
number, which it takes exactly at one common scale
(`estimate_taylor_on_ray`).
Every kept sample carries a certified upper bound on its inversion
residual |G(K(z)) - z|, and the stability figure
residual / |G'(K(z))| + |K(z)| 10^(1 - dps) bounds the error of the R
value: what the residual induces to first order, through a lower bound on
the slope at the point, plus the rounding of K ~ 1/z, which R = K - 1/z
falls below on very small radii.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, round_ceiling, round_nearest

from .cumulants import _check_order, as_fraction, free_cumulants_from_moments
from .errors import (
    DomainError,
    NumericError,
    RegionTooLargeError,
    ValidationError,
    _check_work,
)
from .measures import _GUARD_BITS, Measure, _evaluation_work, _int_form, _to_mpf, moments

NEWTON_MAX_ITER = 80
FIT_GUARD = 2  # fit degree above the p - 1 coefficients read off
CHECK_DEGREES = 2  # powers the check fit adds (estimate_taylor_on_ray)
# the order a ray is inverted for unless told otherwise: 21 levels, 7-27
DEFAULT_ORDER = 6
# SEED_WEIGHTS[n - 1]: the polynomial through n values of R at radii t/2,
# t/4, ..., t/2^n (newest first), evaluated at t; the last row sets the
# degree.  A cubic row (15, -70, 120, -64) saves evaluations on discrete laws
# but not time: it amplifies R's rounding noise 269-fold.
SEED_WEIGHTS = ((1,), (3, -2), (7, -14, 8))
# |G''(w)| <= _CURVATURE / (Im w)^3 for every probability law on the real
# line; Newton's last step at a level is accepted on it (_step_certificate)
_CURVATURE = 2
# |G(w) - z| exceeds the distance of the floored G(w) and z by less than this
# many units of the fixed point: each floor moves it by less than sqrt 2
_FLOOR_SLACK = 3
_BACKTRACK_HALVINGS = 40  # the smallest damped step Newton tries is dw / 2^39
_EVALUATION_ERRORS = (DomainError, ValueError, ZeroDivisionError)
# The ray's work is refused up front past this many digit products (see
# _ray_work): about 3200 digits.  On a 2-core machine the costliest
# closed form there, Marchenko-Pastur's, takes about 0.9 s at order 4 and
# 1.6 s at order 10, the uniform law's 0.7 s and 1.3 s; at 100000 digits
# a ray would run for hours.
_RAY_BUDGET = 7 * 10**8
# bits past the output precision of the fit's unscaling ints (_unscale)
_UNSCALE_GUARD = 8


@dataclass(frozen=True)
class NontangentialRay:
    """Geometric grid of points t_j * e^{i(theta - pi/2)}, t_j = beta / 2^j,
    approaching 0 inside the cone |tan theta| < alpha = 1 around the
    negative imaginary axis; one ray samples one direction, so the cone's
    aperture enters no sample and only bounds the tilt.  The ray is sampled
    on the levels first_level..levels-1 (7-40) at most, the radii <=
    beta/100 (2^7 >= 100) that the fit reads: 3 (p + 1) of them, at least
    8, for a fit of order p <= 10 (invert_g_on_ray).  Levels count from beta."""

    beta: Fraction = Fraction(1, 8)
    tan_theta: Fraction = Fraction(0)
    alpha: ClassVar[Fraction] = Fraction(1)
    levels: ClassVar[int] = 41
    first_level: ClassVar[int] = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "tan_theta", as_fraction(self.tan_theta))
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if abs(self.tan_theta) >= self.alpha:
            raise ValidationError(
                f"|tan theta| = {self.tan_theta} leaves the cone (< {self.alpha})"
            )

    def direction(self) -> mp.mpc:
        """Unit vector e^{i(theta - pi/2)} at the current precision."""
        tau = _to_mpf(self.tan_theta)
        c = 1 / mp.sqrt(1 + tau * tau)
        return mp.mpc(tau * c, -c)


@dataclass(frozen=True)
class RayTransformSamples:
    """Retained inversions along a ray: R values with certified residuals;
    `stability[i]` bounds the error of `r_values[i]`.  The i-th grid point
    is z = radii[i] * ray.direction() at dps, and K(z) = R(z) + 1/z."""

    ray: NontangentialRay
    dps: int
    indices: tuple[int, ...]
    radii: tuple
    r_values: tuple
    residuals: tuple
    stability: tuple
    dropped: tuple[int, ...]


def _level_evaluators(source):
    """level(e, bits) -> evaluate(wr, wi): G and G' of source in the fixed
    point of each ray level, the one seam through which the ray evaluates
    every source.  A measure takes its int form (`measures._int_form`).  A
    (G, G') pair of callables takes its two calls (`_fixed_transform`),
    each point converted to an mpc and the values floored back."""
    if isinstance(source, Measure):
        return _int_form(source)[0](source)
    if not (isinstance(source, tuple) and len(source) == 2 and all(callable(f) for f in source)):
        raise ValidationError("source must be a Measure or a (G, G') pair of callables")
    g, gp = source

    def transform(w):
        return g(w), gp(w)

    return functools.partial(_fixed_transform, transform)


def _fixed(x, shift: int, cap: float = math.inf) -> int:
    """floor(x 2^shift) of an mpf tuple x.  ValueError when x is not finite
    or the result reaches 2^cap."""
    sign, man, exp, bc = x
    if not man:
        if bc:  # inf or nan
            raise ValueError("the transform returned a value that is not finite")
        return 0
    exp += shift
    if exp + bc > cap:
        raise ValueError("the transform returned a value far off the level's scale")
    if sign:
        man = -man
    return man << exp if exp >= 0 else man >> -exp


def _fixed_pair(x, shift: int, cap: float = math.inf) -> tuple[int, int]:
    """floor(x 2^shift) of the real and imaginary part of a number."""
    re, im = getattr(x, "_mpc_", None) or mp.mpc(x)._mpc_
    return _fixed(re, shift, cap), _fixed(im, shift, cap)


def _unfixed(n: int, shift: int) -> mp.mpf:
    """n 2^-shift as an mpf, exactly."""
    return mp.mp.make_mpf(from_man_exp(n, -shift))


def _unfixed_pair(pair: tuple[int, int], shift: int) -> mp.mpc:
    """(re + i im) 2^-shift as an mpc, exactly."""
    re, im = pair
    return mp.mp.make_mpc((from_man_exp(re, -shift), from_man_exp(im, -shift)))


def _abs_up(re: int, im: int) -> int:
    """|re + i im| rounded up."""
    square = re * re + im * im
    root = math.isqrt(square)
    return root if root * root == square else root + 1


def _div_up(a: int, b: int) -> int:
    """a / b rounded up, for b > 0."""
    return -(-a // b)


def _fixed_transform(transform, e: int, bits: int):
    """evaluate(wr, wi) -> (G_r, G_i, G'_r, G'_i): transform, which gives
    (G(w), G'(w)) from a caller's (G, G') pair of callables
    (`_level_evaluators`), in the fixed point of a ray level of binary
    exponent e.  The point w = (wr + i wi) 2^-(bits + e) goes to
    transform as an mpc, exactly; G and G' come back floored to ints of
    2^(e - bits) and 2^(2e - bits).  On a level of radius about 2^e, K ~
    1/z, G ~ z and G' ~ -z^2, so the point and the four values are ints of
    about `bits` bits.  A value of G or G' past 2^(2 bits) times its scale
    raises ValueError, as a point off G's domain raises DomainError:
    Newton takes no step from such a point."""
    exp = -bits - e
    g_shift, s_shift = bits - e, bits - 2 * e
    cap = 3 * bits
    make_mpc = mp.mp.make_mpc

    def evaluate(wr, wi):
        g, s = transform(make_mpc((from_man_exp(wr, exp), from_man_exp(wi, exp))))
        return (*_fixed_pair(g, g_shift, cap), *_fixed_pair(s, s_shift, cap))

    return evaluate


def _step_certificate(w, dw, f, s, target: int, bits: int):
    """(step, residual, slope) of the full Newton step step = w - dw from the
    evaluated point w, with f = G(w) - z and s = G'(w) there as floored:
    an upper bound on |G(step) - z| and a lower bound on |G'(step)|, or None
    when the residual bound exceeds target or the slope bound is not
    positive.  All are ints of a level's fixed point (`_level_evaluators`).

    For a probability law on the real line |G''(v)| <= _CURVATURE/(Im v)^3,
    and Im v >= m = min(Im w, Im step) on the segment from w to step, so
    Taylor's remainder gives
        |G(step) - z| <= |f - s dw| + |dw|^2/m^3 + the floors' error,
        |G'(step)| >= |s| - the floor's error - 2 |dw|/m^3.
    f - s dw is exact in ints; each floor of G, z and G' is off by less
    than sqrt 2 units.  Each term is rounded up, and the slope bound's
    leading term down, so both bounds hold for the floored G and G' at w
    taken as exact, at any radius and any precision; the rounding of G
    itself is added by invert_g_on_ray, as at an evaluated point."""
    wr, wi = w
    dr, di = dw
    fr, fi = f
    sr, si = s
    step = (wr - dr, wi - di)
    m = min(wi, step[1])
    if m <= 0:
        return None
    m3 = m * m * m
    adw = _abs_up(dr, di)
    # |dw|^2/m^3 and |f - s dw|, whose ints carry 2^(2 bits), in units 2^-bits
    curvature = _div_up(_CURVATURE * adw * adw << 2 * bits, 2 * m3)
    linear = _abs_up((fr << bits) - (sr * dr - si * di), (fi << bits) - (sr * di + si * dr))
    floors = _FLOOR_SLACK + _div_up(2 * adw, 1 << bits)  # of G and z, and of G' times dw
    bound = curvature + _div_up(linear, 1 << bits) + floors
    if bound > target:
        return None
    lower = math.isqrt(sr * sr + si * si) - 2 - _div_up(_CURVATURE * adw << 3 * bits, m3)
    if lower <= 0:
        return None
    return step, bound, lower


def _newton(evaluate, z, seed, target: int, bits: int):
    """Damped Newton on G(w) = z in a ray level's fixed point: evaluate(w)
    gives G(w) and G'(w) of a probability law as four ints
    (`_level_evaluators`), z and seed are int pairs, and target is in units
    of 2^-bits of G's scale.  Returns (w, residual, slope) once the
    residual, an upper bound on |G(w) - z|, is <= target, or None; slope
    bounds |G'(w)| from below.  At an evaluated point they are the floored
    |G(w) - z| and |G'(w)| with the floors' error added.  A full step that
    `_step_certificate` bounds within target is returned with its bounds,
    unevaluated, at any radius and precision.  The step dw = (G(w) - z) /
    G'(w) is floored; a damped trial point w - dw / 2^k is evaluated
    wherever it lands, so its rounding costs nothing."""
    zr, zi = z
    wr, wi = seed
    try:
        gr, gi, sr, si = evaluate(wr, wi)
    except _EVALUATION_ERRORS:
        return None
    fr, fi = gr - zr, gi - zi
    res = _abs_up(fr, fi) + _FLOOR_SLACK
    for _ in range(NEWTON_MAX_ITER):
        if res <= target:
            break
        den = sr * sr + si * si
        if not den:
            return None
        dr = ((fr * sr + fi * si) << bits) // den
        di = ((fi * sr - fr * si) << bits) // den
        certified = _step_certificate((wr, wi), (dr, di), (fr, fi), (sr, si), target, bits)
        if certified is not None:
            return certified
        for halvings in range(_BACKTRACK_HALVINGS):
            tr, ti = wr - (dr >> halvings), wi - (di >> halvings)
            try:
                gr, gi, trial_sr, trial_si = evaluate(tr, ti)
            except _EVALUATION_ERRORS:
                continue
            trial_res = _abs_up(gr - zr, gi - zi) + _FLOOR_SLACK
            if trial_res < res:
                wr, wi, fr, fi, sr, si, res = tr, ti, gr - zr, gi - zi, trial_sr, trial_si, trial_res
                break
        else:
            return None
    if res > target:
        return None
    return (wr, wi), res, max(math.isqrt(sr * sr + si * si) - 2, 0)


def _extrapolate(run) -> tuple[int, int]:
    """R at the next radius from its values at the latest consecutive kept
    levels, newest first, as int pairs of the next level's fixed point:
    the polynomial through them, in powers of the radius, which halves from
    each of those levels to the one before it."""
    weights = SEED_WEIGHTS[min(len(run), len(SEED_WEIGHTS)) - 1]
    return (
        sum(c * re for c, (re, _) in zip(weights, run)),
        sum(c * im for c, (_, im) in zip(weights, run)),
    )


def _rescale(pair: tuple[int, int], shift: int) -> tuple[int, int]:
    """An int pair times 2^shift, floored."""
    re, im = pair
    return (re << shift, im << shift) if shift >= 0 else (re >> -shift, im >> -shift)


def _check_ray_order(p: int) -> None:
    """ValidationError unless the ray's 34 levels hold an order-p fit's 3 (p + 1)."""
    _check_order(p)
    if 3 * (p + 1) > NontangentialRay.levels - NontangentialRay.first_level:
        raise ValidationError(
            "the order must be at most 10: a fit reads 3 (order + 1) of the ray's 34 levels"
        )


def _ray_work(dps: int, source=None) -> int:
    """Estimated digit products of one ray at dps digits: two evaluations
    of G, each counted as dps^2, the growth of one multiply at that
    precision, for each of the 34 levels 7-40, the most a ray tries.  Both
    counts are upper bounds at 50 digits (see the module docstring); at 400
    digits Newton takes 3.2-5.1 evaluations per level.  The wall time grows
    about like dps^2: 4.3-fold per doubling of dps from 1600 to 3200 digits
    on the uniform law's int form, 3.6-fold on Marchenko-Pastur's.  On a
    2-core machine at 3200 digits Marchenko-Pastur at rate 2, the
    costliest, took 0.86 s at order 4 and 1.6 s at order 10, the uniform
    law on [-1, 1] 0.69 s and 1.25 s, the semicircle 0.24 s and 0.7 s.  A
    measure's evaluation counts more where the heights of its int form's
    ints ask for it (`measures._evaluation_work`)."""
    per_evaluation = _evaluation_work(source, dps) if isinstance(source, Measure) else dps * dps
    return 2 * (NontangentialRay.levels - NontangentialRay.first_level) * per_evaluation


def invert_g_on_ray(
    source, ray: NontangentialRay | None = None, dps: int = 50, p: int = DEFAULT_ORDER
) -> RayTransformSamples:
    """Solve G(w) = z for the grid points z of the ray that a fit of order
    p reads, smallest radius first (there K(z) ~ 1/z, so Newton starts
    essentially converged): the 3 (p + 1) levels from ray.first_level on,
    the fewest an order-p fit takes (7-27 at p = 6), but at least 8, levels
    7-14, whose radii span the two decades the fit demands.  Deeper levels
    carry R = K - 1/z only to the rounding |K| 10^(1-dps) of K ~ 1/z and
    shrink no error.  Each later radius seeds Newton with 1/z plus R
    extrapolated from the latest consecutive kept levels (`_extrapolate`);
    after one kept level, or right after a dropped one, the last R is
    carried as it is.

    Each level runs in fixed point (`_level_evaluators`): level j has the
    binary exponent e = mag(beta) - j, and K, R and 1/z are ints of
    2^-(e + bits), z and G of 2^(e - bits) and G' of 2^(2e - bits), with
    bits = mp.prec + _GUARD_BITS.  z = beta d / 2^j is the same int pair
    on every level, and so are 1/z, the residual target and the rounding
    of G; R's ints double from one level to the next shallower one, so the
    seeds are exact.  A kept point's R, residual and stability figure
    become mpmath numbers once, exactly.

    Points where Newton cannot reach the residual target |z| * 10^(6-dps)
    are dropped, and each is made up by the next deeper level, up to level
    40, seeded with R of the deepest kept level.  If every point fails the
    ray does not fit inside the region where G is invertible and
    RegionTooLargeError is raised.

    Refused before any evaluation of G, in this order: an order past 10
    (`_check_ray_order`); a measure of mass other than 1, as at mass 0 G
    vanishes identically and at mass c K(z) ~ c/z, so K(z) - 1/z keeps the
    pole (c - 1)/z; and, with BudgetError, a precision, or a discrete law
    of so many atoms, whose estimated work (`_ray_work`) exceeds the budget.  A (G, G') pair of callables cannot
    be checked, but must be the Cauchy transform of a probability law on
    the real line too: the residuals of the points accepted on the
    curvature bound (`_step_certificate`) are certified only then.
    """
    _check_ray_order(p)
    if isinstance(source, Measure) and source.mass == 0:
        raise ValidationError("the zero measure has G = 0, which has no inverse")
    if isinstance(source, Measure) and source.mass != 1:
        try:
            shown = f", but the mass is {source.mass}"
        except ValueError:  # more digits than the interpreter prints
            shown = ""
        raise ValidationError(f"the R-transform needs a probability measure{shown}")
    what = "a ray of this source at this precision takes"
    remedy = "lower the precision or the number of atoms"
    _check_work(_ray_work(dps, source), _RAY_BUDGET, what, "digit products", remedy)
    if ray is None:
        ray = NontangentialRay()
    count = max(3 * (p + 1), ray.first_level + 1)  # levels kept
    top = ray.first_level + count  # the shallowest level tried only after a drop
    with mp.workdps(dps):
        levels = _level_evaluators(source)
        bits = mp.mp.prec + _GUARD_BITS
        beta = _to_mpf(ray.beta)
        e0 = mp.mag(beta)  # level j has the binary exponent e0 - j
        z0 = beta * ray.direction()  # level j's grid point is z0 / 2^j
        size = abs(z0)
        rounding = mp.mpf(10) ** (1 - dps)
        z = zr, zi = _fixed_pair(z0, bits - e0)
        square = zr * zr + zi * zi
        inv_r, inv_i = (zr << 2 * bits) // square, (-zi << 2 * bits) // square
        # the rounding of G, |z| 10^(1-dps), rounded up, and the residual
        # target |z| 10^(6-dps) less it, rounded down
        g_rounding = -_fixed((-size * rounding)._mpf_, bits - e0)
        target = _fixed((size * mp.mpf(10) ** (6 - dps))._mpf_, bits - e0) - g_rounding
        k_rounding = -_fixed((-rounding)._mpf_, bits)  # the relative rounding of K
        dropped: list[int] = []

        def invert(j, r_seed):
            """(level, radius, R(z), residual, stability figure, R as an
            int pair) of level j, Newton seeded with 1/z + r_seed, an int
            pair of the level's fixed point; None if dropped."""
            e = e0 - j
            seed = (inv_r + r_seed[0], inv_i + r_seed[1])
            got = _newton(levels(e, bits), z, seed, target, bits)
            if got is None:
                dropped.append(j)
                return None
            w, res, slope = got
            res += g_rounding  # the rounding of G(w), which Newton takes as exact
            r = (w[0] - inv_r, w[1] - inv_i)
            k_shift = bits + e
            if slope:
                # what the residual induces to first order, the rounding of
                # K and the floor of 1/z
                induced = _div_up(res << bits, slope)
                stability = _unfixed(
                    induced + _div_up(_abs_up(*w) * k_rounding, 1 << bits) + 2, k_shift
                )
            else:
                stability = mp.inf
            return (
                j,
                mp.ldexp(beta, -j),
                _unfixed_pair(r, k_shift),
                _unfixed(res, bits - e),
                stability,
                r,
            )

        kept: list[tuple] = []
        run: list[tuple[int, int]] = []  # R on the latest consecutive kept levels, newest first
        carry, carry_level = (0, 0), top
        for j in range(top - 1, ray.first_level - 1, -1):
            # one level up the unit of K halves, and R's ints double
            run = [(re << 1, im << 1) for re, im in run]
            point = invert(j, _extrapolate(run) if run else _rescale(carry, carry_level - j))
            if point is None:
                run = []
                continue
            kept.append(point)
            carry, carry_level = point[-1], j
            run = [carry] + run[: len(SEED_WEIGHTS) - 1]
        kept.reverse()
        # each dropped level is made up by the next deeper one, seeded with
        # R of the deepest kept level
        for j in range(top, ray.levels):
            if len(kept) == count:
                break
            seed = _rescale(kept[-1][-1], kept[-1][0] - j) if kept else (0, 0)
            point = invert(j, seed)
            if point is not None:
                kept.append(point)
        if not kept:
            raise RegionTooLargeError(
                "no grid point of the ray could be inverted; shrink beta"
            )
        indices, radii, r_values, residuals, stability, _ = zip(*kept)
        return RayTransformSamples(
            ray=ray,
            dps=dps,
            indices=indices,
            radii=radii,
            r_values=r_values,
            residuals=residuals,
            stability=stability,
            dropped=tuple(sorted(dropped)),
        )


# ------------------------------------------------------------------- fitting


@dataclass(frozen=True)
class TaylorEstimate:
    """Leading Taylor coefficients of R at 0 fitted on ray samples.

    coefficients[i] estimates the (i+1)-st free cumulant; errors[i] is
    twice its gap to a check fit with two more powers plus what the
    samples' stability figures can move the fit and that gap by (see
    estimate_taylor_on_ray), and nonreal[i] flags an imaginary part too
    large to blame on that error.  The fit reads every kept sample."""

    order: int
    coefficients: tuple
    imag_parts: tuple
    errors: tuple
    nonreal: tuple[bool, ...]
    condition: object


def _eliminate(gram, cols: int):
    """(minors, fit, check) of the symmetric positive definite int matrix
    gram, from one fraction-free elimination (Bareiss, Math. Comp. 22
    (1968)) of [gram | I] into [U | L], U = L gram upper triangular and L
    lower triangular: minors[k] is the leading principal minor of order
    k + 1, which Sylvester's identity makes each step's divisor, so every
    division is exact and no pivot is 0.  fit and check are (det, adj) of
    the leading cols-block of gram and of all of it, adj the int rows of
    det * inverse, by back substitution in U, again exact.  Row i of U and
    L reads rows 0..i of [gram | I] only, so the leading block of [U | L]
    is the block's own elimination."""
    size = len(gram)
    rows = [list(row) + [int(i == k) for k in range(size)] for i, row in enumerate(gram)]
    previous = 1
    for k in range(size):
        pivot_row, pivot = rows[k], rows[k][k]
        for i in range(k + 1, size):
            row, factor = rows[i], rows[i][k]
            for c in range(k + 1, size + i + 1):  # row i of L is 0 past column i
                row[c] = (pivot * row[c] - factor * pivot_row[c]) // previous
        previous = pivot
    minors = tuple(rows[k][k] for k in range(size))

    def adjugate(n: int):
        det, adj = minors[n - 1], [None] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            adj[i] = [
                (det * row[size + c] - sum(row[l] * adj[l][c] for l in range(i + 1, n))) // row[i]
                for c in range(n)
            ]
        return det, adj

    return minors, adjugate(cols), adjugate(size)


def _normal_matrix(offsets: tuple[int, ...], size: int) -> list[int]:
    """h[s] = sum_i 2^(s (top - offsets[i])), s < 2 size - 1, top =
    max(offsets): the normal matrix of a[i, m] = 2^(-offsets[i] m), m <
    size, is the Hankel matrix (a^T a)[m, k] = h[m + k] / 2^((m + k) top)."""
    top = max(offsets)
    return [sum(1 << s * (top - o) for o in offsets) for s in range(2 * size - 1)]


@lru_cache(maxsize=32)
def _fit_maps(offsets: tuple[int, ...], degree: int):
    """The fit and its check fit as exact linear maps, built once per
    (offsets, degree) from one elimination (`_eliminate`) of the normal
    matrix of a[i, m] = 2^(-offsets[i] m), m <= degree + CHECK_DEGREES.

    The fit radii are t_i = beta / 2^j_i, so t_i / t_ref = 2^-(j_i - j_0)
    with offsets[i] = j_i - j_0: the matrix depends neither on the measure
    nor on beta, the direction or the precision.  Its columns times
    2^(m top), top = max(offsets), are the ints a'[i, m] =
    2^(m (top - offsets[i])), whose normal matrix is the int Hankel matrix
    of `_normal_matrix`, and the fit's normal matrix is its leading
    (degree + 1)-block.  Row m of a pseudo-inverse (a^T a)^-1 a^T is
    2^(m top) times row m of adj(a'^T a') a'^T over the determinant.
    Returns (fit, check, weights, denominators, minors): row m <= degree of
    the fit's and of the check fit's pseudo-inverse and of the error
    figure's weights 2 |fit - check| + |fit| (estimate_taylor_on_ray), as
    int rows over the least common denominator denominators[m] of the two
    rows; and the leading principal minors of a'^T a', which
    `_fit_condition` reads."""
    cols, wide = degree + 1, degree + 1 + CHECK_DEGREES
    top = max(offsets)
    nodes = [top - o for o in offsets]
    hankel = _normal_matrix(offsets, wide)
    minors, fit_inverse, check_inverse = _eliminate(
        [hankel[m : m + wide] for m in range(wide)], cols
    )

    def row_over(inverse, m):
        # row m of the pseudo-inverse as (ints, denominator) in lowest terms
        det, adj = inverse
        row = [sum(c << k * x for k, c in enumerate(adj[m])) << m * top for x in nodes]
        g = math.gcd(det, *row)
        return [v // g for v in row], det // g

    fit, check, weights, denominators = [], [], [], []
    for m in range(cols):
        (f, f_den), (c, c_den) = row_over(fit_inverse, m), row_over(check_inverse, m)
        g = math.gcd(f_den, c_den)
        f, c = [v * (c_den // g) for v in f], [v * (f_den // g) for v in c]
        fit.append(tuple(f))
        check.append(tuple(c))
        weights.append(tuple(2 * abs(u - v) + abs(u) for u, v in zip(f, c)))
        denominators.append(f_den // g * c_den)
    return tuple(fit), tuple(check), tuple(weights), tuple(denominators), minors


@lru_cache(maxsize=32)
def _fit_condition(offsets: tuple[int, ...], degree: int, dps: int):
    """The fit's condition number at dps + 10 digits, or None when the
    matrix a of `_fit_maps` is numerically singular at dps: when a squared
    diagonal entry r_m^2 of its QR factor R is at most mp.eps.  That needs
    no QR: a^T a = R^T R, so r_m^2 = minors[m] / minors[m - 1] / 4^(m top)
    of the int normal matrix's minors, an exact test.  The condition number
    is sqrt(l_max / l_min) of the eigenvalues of the fit block of a^T a, one
    mpmath eigsy, with guard bits for the l_min it loses: about log2 of
    the spread of those r_m^2, a's condition squared."""
    minors = _fit_maps(offsets, degree)[4]
    cols, top, prec = degree + 1, max(offsets), dps_to_prec(dps)
    logs, previous = [], 1
    for m, minor in enumerate(minors):
        if minor << prec - 1 <= previous << 2 * m * top:  # r_m^2 <= 2^(1 - prec)
            return None
        logs.append(minor.bit_length() - previous.bit_length() - 2 * m * top)
        previous = minor
    work = dps_to_prec(dps + 10) + max(logs[:cols]) - min(logs[:cols]) + 32
    hankel = [
        mp.mp.make_mpf(from_man_exp(h, -s * top, work, round_nearest))
        for s, h in enumerate(_normal_matrix(offsets, cols))
    ]
    with mp.workprec(work):
        eigenvalues = mp.eigsy(mp.matrix([hankel[m : m + cols] for m in range(cols)]), eigvals_only=True)
        condition = mp.sqrt(max(eigenvalues) / min(eigenvalues)) if min(eigenvalues) > 0 else mp.inf
    with mp.workdps(dps + 10):
        return +condition


@lru_cache(maxsize=32)
def _unscale(ray: NontangentialRay, j0: int, p: int, prec: int):
    """For m < p the unscaling x_m d^-m t_ref^-m of a fitted power as
    (re, im, num, den): t_ref^-m = 2^(m j0) / beta^m = num / den exactly,
    and d^-m = (tau + i)^m / (1 + tau^2)^(m/2) = (a + ic)^m / |a + ic|^m,
    tau = a / c, within two units of (re + i im) 2^-(prec + _UNSCALE_GUARD)
    in each part: one unit from the floored root, whose argument |a + ic|^m
    is at least 1, and one from the floored quotient."""
    k = prec + _UNSCALE_GUARD
    a, c = ray.tan_theta.numerator, ray.tan_theta.denominator
    beta, zr, zi, out = ray.beta, 1, 0, []
    for m in range(p):
        root = math.isqrt((a * a + c * c) ** m << 2 * k)
        num, den = beta.denominator**m << m * j0, beta.numerator**m
        out.append(((zr << 2 * k) // root, (zi << 2 * k) // root, num, den))
        zr, zi = zr * a - zi * c, zr * c + zi * a
    return tuple(out)


def _dyadic_ints(parts) -> tuple[list[int], int]:
    """(ints, shift): mpf tuples as ints of one common scale 2^-shift,
    exactly; the finest exponent among them sets it."""
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    return [(-man if sign else man) << exp - low if man else 0 for sign, man, exp, _ in parts], -low


def _dot(row, values) -> int:
    return sum(map(operator.mul, row, values))


def _above(a: int, a_exp: int, b: int, b_exp: int) -> bool:
    """a 2^a_exp > b 2^b_exp, exactly."""
    if a_exp >= b_exp:
        return a << a_exp - b_exp > b
    return a > b << b_exp - a_exp


def _rounded(num: int, den: int, exp: int, prec: int, rnd) -> mp.mpf:
    """num / den * 2^exp, den > 0, as an mpf of prec bits, rounded once
    toward rnd: the floored quotient has prec + 3 bits at least, and a
    sticky bit stands for a remainder, which no rounding boundary then
    separates from the exact value."""
    shift = max(prec + 3 + den.bit_length() - abs(num).bit_length(), 0)
    quotient, rest = divmod(num << shift, den)
    return mp.mp.make_mpf(from_man_exp(2 * quotient + bool(rest), exp - shift - 1, prec, rnd))


def estimate_taylor_on_ray(samples: RayTransformSamples, p: int) -> TaylorEstimate:
    """Fit a polynomial of degree d = p - 1 + FIT_GUARD to every kept R
    value (the ray samples only radii <= beta/100) and read off the first p
    coefficients.  Requires 3 (p + 1) points, more than the check fit's
    d + 1 + CHECK_DEGREES unknowns, over two decades of radius, for the
    powers to part.  The check fit reads the same points with the powers
    d + 1 and d + 2 added, so its gap to the fit is what they do to the
    fit.  It adds two, as a law whose odd cumulants vanish skips a power;
    the factor 2 on the gap covers the next omitted power, which the check
    fit leaves in.  The fits read r_i = R(t_i) + delta_i, |delta_i| <=
    stab_i: the fit's error is at most twice the gap on exact R values
    plus sum_i |fit[m, i]| stab_i, and that gap is off the one on r by at
    most sum_i |fit[m, i] - check[m, i]| stab_i, which the check fit's
    wider pseudo-inverse makes far larger.  So errors[m] is
    2 |x_fit[m] - x_check[m]| + sum_i w[m, i] stab_i, scaled to b_m, with
    w[m, i] = 2 |fit[m, i] - check[m, i]| + |fit[m, i]|.

    The fit runs in ints.  The maps are exact rationals, cached in
    `_fit_maps`, which with `_fit_condition` brings the condition number;
    every R value and stability figure is a dyadic mpf, so each becomes an
    int of one common scale exactly (`_dyadic_ints`).  x_fit, x_check,
    their gap and the noise sum are then exact, but for the one square
    root of the gap, rounded up, and the unscaling to b_m multiplies by
    `_unscale`'s ints.  Each output is one mpf of the working precision,
    rounded once: an error figure up, a coefficient and its imaginary part
    to within one unit of |b_m| in the last place; the non-real flag
    compares the same ints."""
    _check_ray_order(p)
    n = len(samples.indices)
    degree = p - 1 + FIT_GUARD
    if n < 3 * (p + 1):
        # a ray inverted for a lower order left its deepest levels untried
        deepest = max(samples.indices + samples.dropped, default=samples.ray.levels - 1)
        hint = "" if deepest == samples.ray.levels - 1 else f"; invert the ray with p={p}"
        raise ValidationError(
            f"{n} points kept on the ray but the fit needs at least {3 * (p + 1)}{hint}"
        )
    j0 = samples.indices[0]  # the largest radius, t_ref = beta / 2^j0
    if 2 ** (max(samples.indices) - min(samples.indices)) < 100:
        raise ValidationError("fit radii must span at least two decades")
    offsets = tuple(j - j0 for j in samples.indices)
    condition = _fit_condition(offsets, degree, samples.dps)
    if condition is None:
        raise NumericError(
            "least-squares matrix is numerically singular; lower the fit "
            "degree or raise the working precision"
        )
    fit, check, weights, denominators, _ = _fit_maps(offsets, degree)
    prec = dps_to_prec(samples.dps)
    parts = [getattr(x, "_mpc_", None) or (x._mpf_, fzero) for x in samples.r_values]
    stability = [s._mpf_ for s in samples.stability]
    values, r_shift = _dyadic_ints([part for pair in parts for part in pair])
    re, im = values[0::2], values[1::2]
    finite = all(man or not bc for _, man, _, bc in stability)
    if finite:
        stab, s_shift = _dyadic_ints(stability)
        shift = max(r_shift, s_shift)
    coeffs, imags, errors, nonreal = [], [], [], []
    for m, (ur, ui, num, den) in enumerate(_unscale(samples.ray, j0, p, prec)):
        xr, xi = _dot(fit[m], re), _dot(fit[m], im)
        den *= denominators[m]
        # b_m = x_fit[m] d^-m t_ref^-m, over den 2^(r_shift + prec + guard)
        yr, yi = xr * ur - xi * ui, xr * ui + xi * ur
        exp = -r_shift - prec - _UNSCALE_GUARD
        coeffs.append(_rounded(yr * num, den, exp, prec, round_nearest))
        imags.append(_rounded(yi * num, den, exp, prec, round_nearest))
        if not finite:
            errors.append(mp.inf)
            nonreal.append(False)
            continue
        gap = _abs_up(xr - _dot(check[m], re), xi - _dot(check[m], im))
        # the error figure of x_fit[m], over denominators[m] 2^shift
        figure = (2 * gap << shift - r_shift) + (_dot(weights[m], stab) << shift - s_shift)
        errors.append(_rounded(figure * num, den, -shift, prec, round_ceiling))
        # |Im b_m| > 10^-6 and > 10 errors[m]
        nonreal.append(
            _above(abs(yi) * num * 10**6, exp, den, 0)
            and _above(abs(yi), exp, 10 * figure, -shift)
        )
    return TaylorEstimate(
        order=p,
        coefficients=tuple(coeffs),
        imag_parts=tuple(imags),
        errors=tuple(errors),
        nonreal=tuple(nonreal),
        condition=condition,
    )


# ---------------------------------------------------------------- comparison


@dataclass(frozen=True)
class TaylorCheck:
    """Fitted Taylor coefficients against exact free cumulants."""

    order: int
    exact: tuple
    estimated: tuple
    abs_errors: tuple
    error_estimates: tuple
    max_error: object
    condition: object


def verify_taylor_cumulants(mu: Measure, p: int, dps: int = 50) -> TaylorCheck:
    """End-to-end check that the fitted ray coefficients reproduce the free
    cumulants of mu, taken exactly once the fit has accepted the order."""
    samples = invert_g_on_ray(mu, dps=dps, p=p)
    est = estimate_taylor_on_ray(samples, p)
    exact = free_cumulants_from_moments(moments(mu, p)).values
    with mp.workdps(dps):
        exact_f = [_to_mpf(v) for v in exact]
        errs = tuple(abs(e - x) for e, x in zip(est.coefficients, exact_f))
        return TaylorCheck(
            order=p,
            exact=tuple(exact),
            estimated=est.coefficients,
            abs_errors=errs,
            error_estimates=est.errors,
            max_error=max(errs),
            condition=est.condition,
        )
