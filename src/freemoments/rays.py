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
one; the factor 2 covers the power after them) plus the propagated
inversion error.  The expansion is read at 0, so only radii <= beta/100 are
sampled (the levels from NontangentialRay.first_level on), and the fit
reads every one of them: for a fit of order p <= 6 the 3 (p + 1) levels
from 7 on, but at least the 8 levels 7-14 that span two decades (7-27 at
p = 6), all 34 levels 7-40 above it (invert_g_on_ray).  The fit matrix
depends only on which grid levels were kept, the degree and the
precision, never on the measure, so both pseudo-inverses come from one QR
per such key and are cached; every fit after the first is two
matrix-vector products.

Newton gets G and G' from one evaluation per trial point and steps with
the slope that came with the point it accepted; a measure's closed form is
built once per ray, at the ray's precision.  The radii double from level to
level, so the quadratic through R at t/2, t/4 and t/8 predicts R(t) with
the integer weights 7, -14, 8, and the seed 1/z + R often needs no Newton
step at all: about 1.9 evaluations per grid point over the benchmark's
laws on 21 levels, 2.0 on the 15 of its order-4 fits (the first levels
take the most), 1.4 on semicircles, where R is linear.  All arithmetic
is mpmath at a caller-chosen working precision; every kept sample carries
a certified inversion residual |G(K(z)) - z|, and the stability figure
residual / |G'(K(z))| + |K(z)| 10^(1 - dps) bounds the error of the R
value: what the residual induces to first order, through the slope Newton
accepted the point with, plus the rounding of K ~ 1/z, which R = K - 1/z
falls below on very small radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import mpmath as mp

from .cumulants import _check_order, as_fraction, free_cumulants_from_moments
from .errors import (
    BudgetError,
    DomainError,
    NumericError,
    RegionTooLargeError,
    ValidationError,
)
from .measures import Measure, _evaluator, _to_mpf, moments

NEWTON_MAX_ITER = 80
FIT_GUARD = 2  # fit degree above the p - 1 coefficients read off
CHECK_DEGREES = 2  # powers the check fit adds (estimate_taylor_on_ray)
# A ray for a fit of order p <= SHORT_RAY_ORDER keeps max(3 (p + 1), 8)
# levels, 7-27 at p = 6 unless one drops; a higher order keeps all of 7-40.
# rtransform reports the ray of order SHORT_RAY_ORDER up to that order.
SHORT_RAY_ORDER = 6
# SEED_WEIGHTS[n - 1]: the polynomial through n values of R at radii t/2,
# t/4, ..., t/2^n (newest first), evaluated at t; the last row sets the
# degree.  A cubic row (15, -70, 120, -64) saves evaluations on discrete laws
# but not time: it amplifies R's rounding noise 269-fold.
SEED_WEIGHTS = ((1,), (3, -2), (7, -14, 8))
# The ray's work is refused up front past this many digit products (see
# _ray_work): about 3200 digits.  On a 2-core machine the costliest closed
# form, the uniform law's logarithm, takes about 6 s at 3200 digits and
# 10 s at 4000; at 100000 digits a ray would run for hours.
_RAY_BUDGET = 7 * 10**8


@dataclass(frozen=True)
class NontangentialRay:
    """Geometric grid of points t_j * e^{i(theta - pi/2)}, t_j = beta / 2^j,
    approaching 0 inside the cone |tan theta| < alpha = 1 around the
    negative imaginary axis; one ray samples one direction, so the cone's
    aperture enters no sample and only bounds the tilt.  The ray is sampled
    on the levels first_level..levels-1 (7-40) at most, the radii <=
    beta/100 (2^7 >= 100) that the fit reads; a fit of order p <= 6 reads
    only 3 (p + 1) of them, at least 8 (invert_g_on_ray).  The level
    numbering starts at beta."""

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
    """Retained inversions along a ray: K and R values with certified
    residuals; `stability[i]` bounds the error of `r_values[i]`.  The i-th
    grid point is radii[i] * ray.direction() at dps."""

    ray: NontangentialRay
    dps: int
    indices: tuple[int, ...]
    radii: tuple
    k_values: tuple
    r_values: tuple
    residuals: tuple
    stability: tuple
    dropped: tuple[int, ...]


def _transform_pair(source):
    """One callable w -> (G(w), G'(w)) at the working precision; for a
    Measure its closed form is built here, once."""
    if isinstance(source, Measure):
        return _evaluator(source)
    if isinstance(source, tuple) and len(source) == 2 and all(callable(f) for f in source):
        g, gp = source
        return lambda w: (g(w), gp(w))
    raise ValidationError("source must be a Measure or a (G, G') pair of callables")


def _newton(transform, z, seed, target) -> tuple[mp.mpc, mp.mpf, mp.mpc] | None:
    """Damped Newton on G(w) = z, where transform(w) = (G(w), G'(w)):
    returns (w, |G(w) - z|, G'(w)) once that residual is <= target, or
    None."""
    w = seed
    try:
        g, slope = transform(w)
    except (DomainError, ValueError, ZeroDivisionError):
        return None
    fw = g - z
    res = abs(fw)  # of the accepted iterate
    floor = mp.mpf(2) ** -40  # the smallest backtracking step tried
    for _ in range(NEWTON_MAX_ITER):
        if res <= target:
            return w, res, slope
        if slope == 0:
            return None
        dw = fw / slope
        lam = mp.mpf(1)
        while lam > floor:
            trial = w - lam * dw
            try:
                g, trial_slope = transform(trial)
            except (DomainError, ValueError, ZeroDivisionError):
                lam /= 2
                continue
            trial_fw = g - z
            trial_res = abs(trial_fw)
            if trial_res < res:
                w, fw, res, slope = trial, trial_fw, trial_res, trial_slope
                break
            lam /= 2
        else:
            return None
    return (w, res, slope) if res <= target else None


def _extrapolate(run) -> mp.mpc:
    """R at the next radius from its values at the latest consecutive kept
    levels, newest first: the polynomial through them, in powers of the
    radius, which halves from each of those levels to the one before it."""
    weights = SEED_WEIGHTS[min(len(run), len(SEED_WEIGHTS)) - 1]
    return mp.fsum(c * r for c, r in zip(weights, run))


def _ray_work(dps: int) -> int:
    """Estimated digit products of one ray at dps digits: two evaluations
    of G (about 1.9 over the benchmark's laws) for each of the 34 levels
    7-40, the most a ray samples at any order (an upper bound for a ray of
    order <= 6, which keeps 8-21), each counted as dps^2, the growth of one
    multiply at that precision.  The wall time grows about that fast:
    4.5-fold per doubling of dps from 1600 to 3200 digits on the uniform
    law, 2.9-fold on Marchenko-Pastur."""
    levels = NontangentialRay.levels - NontangentialRay.first_level
    return levels * 2 * dps * dps


def invert_g_on_ray(
    source, ray: NontangentialRay | None = None, dps: int = 50, p: int = 6
) -> RayTransformSamples:
    """Solve G(w) = z for the grid points z of the ray that a fit of order
    p reads, smallest radius first (there K(z) ~ 1/z, so Newton starts
    essentially converged).  For p <= SHORT_RAY_ORDER those are the
    3 (p + 1) levels from ray.first_level on, the fewest an order-p fit
    takes (7-27 at p = 6), but at least first_level + 1 = 8, levels 7-14,
    whose radii span the two decades the fit demands (2^7 >= 100): the
    deeper levels carry R = K - 1/z only to the rounding |K| 10^(1-dps) of
    K ~ 1/z and shrink no error.  For p above it they are all the levels
    ray.first_level..ray.levels-1, 7-40.  Each later radius seeds Newton
    with 1/z plus R extrapolated from the latest consecutive kept levels
    (`_extrapolate`); after one kept level, or right after a dropped one,
    the last R is carried as it is.

    Points where Newton cannot reach the residual target |z| * 10^(6-dps)
    are dropped, and each is made up by the next deeper level, up to level
    40, seeded with R of the deepest kept level.  If every point fails the
    ray does not fit inside the region where G is invertible and
    RegionTooLargeError is raised.  A measure of mass other than 1 is
    refused up front: at mass 0 G vanishes identically, and at mass c
    K(z) ~ c/z, so K(z) - 1/z keeps the pole (c - 1)/z and is the
    R-transform only for a probability measure.  So is a precision whose
    estimated work (`_ray_work`) exceeds the budget, with BudgetError.
    """
    _check_order(p)
    if isinstance(source, Measure) and source.mass == 0:
        raise ValidationError("the zero measure has G = 0, which has no inverse")
    if isinstance(source, Measure) and source.mass != 1:
        try:
            shown = f", but the mass is {source.mass}"
        except ValueError:  # more digits than the interpreter prints
            shown = ""
        raise ValidationError(f"the R-transform needs a probability measure{shown}")
    work = _ray_work(dps)
    if work > _RAY_BUDGET:
        shown = f"{work:.2e}" if work < 1e300 else "past 1e300"  # a huge int has no float
        raise BudgetError(
            f"a ray at this precision takes an estimated {shown} digit products, "
            f"past the budget of {_RAY_BUDGET:.2e}; lower the precision"
        )
    if ray is None:
        ray = NontangentialRay()
    if p <= SHORT_RAY_ORDER:
        count = max(3 * (p + 1), ray.first_level + 1)  # levels to keep
    else:
        count = ray.levels - ray.first_level
    top = ray.first_level + count  # the shallowest level tried only after a drop
    with mp.workdps(dps):
        transform = _transform_pair(source)
        d = ray.direction()
        slack = mp.mpf(10) ** (6 - dps)
        rounding = mp.mpf(10) ** (1 - dps)
        dropped: list[int] = []

        def invert(j, r_seed):
            """(level, radius, K(z), R(z), residual, stability figure) of
            level j, Newton seeded with 1/z + r_seed; None if dropped."""
            t = _to_mpf(ray.beta / 2**j)
            z = t * d
            inv_z = 1 / z
            got = _newton(transform, z, inv_z + r_seed, target=abs(z) * slack)
            if got is None:
                dropped.append(j)
                return None
            w, res, slope = got
            induced = res / abs(slope) if slope else mp.inf
            return j, t, w, w - inv_z, res, induced + abs(w) * rounding

        kept: list[tuple[int, mp.mpf, mp.mpc, mp.mpc, mp.mpf, mp.mpf]] = []
        run: list[mp.mpc] = []  # R on the latest consecutive kept levels, newest first
        carry = mp.mpc(0)
        for j in range(top - 1, ray.first_level - 1, -1):
            point = invert(j, _extrapolate(run) if run else carry)
            if point is None:
                run = []
                continue
            kept.append(point)
            carry = point[3]
            run = [carry] + run[: len(SEED_WEIGHTS) - 1]
        kept.reverse()
        # each dropped level is made up by the next deeper one, seeded with
        # R of the deepest kept level
        for j in range(top, ray.levels):
            if len(kept) == count:
                break
            point = invert(j, kept[-1][3] if kept else mp.mpc(0))
            if point is not None:
                kept.append(point)
        if not kept:
            raise RegionTooLargeError(
                "no grid point of the ray could be inverted; shrink beta"
            )
        indices, radii, k_values, r_values, residuals, stability = zip(*kept)
        return RayTransformSamples(
            ray=ray,
            dps=dps,
            indices=indices,
            radii=radii,
            k_values=k_values,
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
    twice its gap to a check fit with two more powers plus the propagated
    inversion residual (see estimate_taylor_on_ray), and nonreal[i] flags
    an imaginary part too large to blame on that error.  The fit reads
    every kept sample."""

    order: int
    coefficients: tuple
    imag_parts: tuple
    errors: tuple
    nonreal: tuple[bool, ...]
    condition: object


def _pseudo_inverse(q_rows, r, cols):
    """The rows of R^-1 Q^T, the pseudo-inverse of the leading `cols`
    columns of a = QR (rows q_rows of Q), and that block's R^-1."""
    r_inv = mp.inverse(r[:cols, :cols])
    inv_rows = r_inv.tolist()
    # R^-1 is upper triangular: row m of R^-1 Q^T sums over k >= m only
    rows = tuple(
        tuple(mp.fdot(inv_rows[m][m:], q_row[m:]) for q_row in q_rows)
        for m in range(cols)
    )
    return rows, r_inv


@lru_cache(maxsize=32)
def _fit_maps(offsets: tuple[int, ...], degree: int, dps: int):
    """The fit and its check fit as linear maps, built once per (offsets,
    degree, dps) from one skinny QR of a[i, m] = 2^(-offsets[i] m) with
    m <= degree + CHECK_DEGREES.

    The fit radii are t_i = beta / 2^j_i, so t_i / t_ref = 2^-(j_i - j_0)
    with offsets[i] = j_i - j_0: the matrix depends neither on the measure
    nor on beta or the direction.  Householder QR factors column by column,
    so the fit's QR is the leading (degree + 1)-block of this one, bit for
    bit, and the check fit takes all of it.  Returns both pseudo-inverses,
    then, for the fit, the row norms of R^-1 (those of its pseudo-inverse,
    as Q has orthonormal columns) and the condition number (a has the
    singular values of R).  None when a is numerically singular at dps."""
    cols, wide = degree + 1, degree + 1 + CHECK_DEGREES
    with mp.workdps(dps):
        eps = +mp.eps  # fixed at dps: mp.eps follows the working precision
        with mp.extradps(10):
            a = mp.matrix([[mp.ldexp(1, -o * m) for m in range(wide)] for o in offsets])
            q, r = mp.qr(a, mode="skinny")
            if any(r[m, m] ** 2 <= eps for m in range(wide)):
                return None
            q_rows = q.tolist()
            rows, r_inv = _pseudo_inverse(q_rows, r, cols)
            check = _pseudo_inverse(q_rows, r, wide)[0]
            sens = tuple(mp.norm(r_inv[m, :]) for m in range(cols))
            sv = mp.svd_r(r[:cols, :cols], compute_uv=False)
            condition = max(sv) / min(sv) if min(sv) else mp.inf
    return rows, check, sens, condition


def estimate_taylor_on_ray(samples: RayTransformSamples, p: int) -> TaylorEstimate:
    """Fit a polynomial of degree d = p - 1 + FIT_GUARD to every kept R
    value (the ray samples only radii <= beta/100) and read off the first p
    coefficients.  Requires 3 (p + 1) points, more than the check fit's
    d + 1 + CHECK_DEGREES unknowns, over two decades of radius, for the
    powers to part.  errors[m] is 2 |fit - check| + sens[m] * noise, scaled
    to b_m: the check fit reads the same points with the powers d + 1 and
    d + 2 added, so the gap is what they do to the fit.  It adds two, as a
    law whose odd cumulants vanish skips a power; the factor 2 covers the
    next omitted power, which the check fit leaves in.  noise is the
    largest stability figure, sens[m] the row norm of the fit's
    pseudo-inverse.  Each fit is one product of the R values with a cached
    pseudo-inverse (`_fit_maps`), which brings the condition number too."""
    _check_order(p)
    with mp.workdps(samples.dps):
        n = len(samples.indices)
        degree = p - 1 + FIT_GUARD
        if n < 3 * (p + 1):
            # a ray inverted for a lower order left its deepest levels untried
            deepest = max(samples.indices + samples.dropped, default=samples.ray.levels - 1)
            hint = "" if deepest == samples.ray.levels - 1 else f"; invert the ray with p={p}"
            raise ValidationError(
                f"{n} points kept on the ray but the fit needs at least {3 * (p + 1)}{hint}"
            )
        ts, vals = samples.radii, samples.r_values
        if max(ts) / min(ts) < 100:
            raise ValidationError("fit radii must span at least two decades")
        t_ref = max(ts)
        j0 = samples.indices[0]
        maps = _fit_maps(tuple(j - j0 for j in samples.indices), degree, samples.dps)
        if maps is None:
            raise NumericError(
                "least-squares matrix is numerically singular; lower the fit "
                "degree or raise the working precision"
            )
        fit, check, sens, condition = maps
        # only the first p coefficients are read off
        with mp.extradps(10):
            x_fit = [mp.fdot(row, vals) for row in fit[:p]]
            x_check = [mp.fdot(row, vals) for row in check[:p]]
        noise = max(samples.stability)

        d = samples.ray.direction()
        coeffs, imags, errors, nonreal = [], [], [], []
        for m in range(p):
            unscale = d**-m * t_ref**-m
            c = x_fit[m] * unscale
            err = (2 * abs(x_fit[m] - x_check[m]) + sens[m] * noise) * abs(unscale)
            coeffs.append(c.real)
            imags.append(c.imag)
            errors.append(err)
            nonreal.append(abs(c.imag) > max(mp.mpf(10) ** -6, 10 * err))
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
    cumulants computed exactly from the moments of mu."""
    exact = free_cumulants_from_moments(moments(mu, p)).values
    samples = invert_g_on_ray(mu, dps=dps, p=p)
    est = estimate_taylor_on_ray(samples, p)
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
