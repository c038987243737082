"""Numeric recovery of the R-transform on rays approaching the origin.

For a finite measure mu with Cauchy transform G, the compositional left
inverse K of G is defined near 0 (away from the real axis), and

    R(z) = K(z) - 1/z

extends holomorphically to z = 0 along any ray that stays inside a cone
around the negative imaginary axis.  Its Taylor coefficients at 0 are the
free cumulants of mu.  This module samples K on a geometric grid of radii
along such a ray (damped Newton with continuation from the smallest radius,
where K(z) is dominated by 1/z, each radius seeded with R extrapolated from
the radii below it), and fits a polynomial to the R values to
estimate the leading Taylor coefficients together with per-coefficient
error estimates from nested sub-grid fits.  The expansion is read at 0, so
only radii <= beta/100 are sampled (the levels from
NontangentialRay.first_level on), and the fit reads every one of them.
The fit matrix depends only on which grid levels were kept, the degree and
the precision, never on the measure, so its pseudo-inverses are built once
per such key and cached; every fit after the first is a matrix-vector
product.

Newton gets G and G' from one evaluation per trial point and steps with
the slope that came with the point it accepted; a measure's closed form is
built once per ray, at the ray's precision.  The radii double from level to
level, so the quadratic through R at t/2, t/4 and t/8 predicts R(t) with
the integer weights 7, -14, 8, and the seed 1/z + R often needs no Newton
step at all: about 1.9 evaluations per grid point over the benchmark's
laws, 1.1-1.3 on semicircles, where R is linear.  All arithmetic is mpmath
at a caller-chosen working precision; every kept sample carries a certified
inversion residual |G(K(z)) - z|, and the stability figure residual /
|G'(K(z))| + |K(z)| 10^(1 - dps) bounds the error of the R value: what the
residual induces to first order, through the slope Newton accepted the
point with, plus the rounding of K ~ 1/z, which R = K - 1/z falls below
on very small radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import mpmath as mp

from .cumulants import _check_order, as_fraction, free_cumulants_from_moments
from .errors import (
    DomainError,
    NumericError,
    RegionTooLargeError,
    ValidationError,
)
from .measures import Measure, _evaluator, _to_mpf, moments

NEWTON_MAX_ITER = 80
FIT_GUARD = 2  # fit degree above the p - 1 coefficients read off
# SEED_WEIGHTS[n - 1]: the polynomial through n values of R at radii t/2,
# t/4, ..., t/2^n (newest first), evaluated at t; the last row sets the
# degree.  A cubic row (15, -70, 120, -64) saves evaluations on discrete laws
# but not time: it amplifies R's rounding noise 269-fold.
SEED_WEIGHTS = ((1,), (3, -2), (7, -14, 8))


@dataclass(frozen=True)
class NontangentialRay:
    """Geometric grid of points t_j * e^{i(theta - pi/2)}, t_j = beta / 2^j,
    approaching 0 inside the cone |tan theta| < alpha = 1 around the
    negative imaginary axis; one ray samples one direction, so the cone's
    aperture enters no sample and only bounds the tilt.  The ray is sampled
    on the levels first_level..levels-1 only, the radii <= beta/100
    (2^7 >= 100) that the fit reads; the level numbering starts at beta."""

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


def invert_g_on_ray(
    source, ray: NontangentialRay | None = None, dps: int = 50
) -> RayTransformSamples:
    """Solve G(w) = z for the grid points z of the ray on the levels
    ray.first_level..ray.levels-1, the radii the fit reads, smallest radius
    first (there K(z) ~ 1/z, so Newton starts essentially converged).  Each
    later radius seeds Newton with 1/z plus R = K - 1/z extrapolated from
    the latest consecutive kept levels (`_extrapolate`); after one kept
    level, or right after a dropped one, the last R is carried as it is.

    Points where Newton cannot reach the residual target |z| * 10^(6-dps)
    are dropped; if every point fails the ray does not fit inside the
    region where G is invertible and RegionTooLargeError is raised.  A
    measure of mass other than 1 is refused up front: at mass 0 G vanishes
    identically, and at mass c K(z) ~ c/z, so K(z) - 1/z keeps the pole
    (c - 1)/z and is the R-transform only for a probability measure.
    """
    if isinstance(source, Measure) and source.mass == 0:
        raise ValidationError("the zero measure has G = 0, which has no inverse")
    if isinstance(source, Measure) and source.mass != 1:
        raise ValidationError(
            f"the R-transform needs a probability measure, but the mass is {source.mass}"
        )
    if ray is None:
        ray = NontangentialRay()
    with mp.workdps(dps):
        transform = _transform_pair(source)
        d = ray.direction()
        slack = mp.mpf(10) ** (6 - dps)
        rounding = mp.mpf(10) ** (1 - dps)
        # (level, radius, K(z), R(z), residual, stability figure)
        kept: list[tuple[int, mp.mpf, mp.mpc, mp.mpc, mp.mpf, mp.mpf]] = []
        dropped: list[int] = []
        run: list[mp.mpc] = []  # R on the latest consecutive kept levels, newest first
        carry = mp.mpc(0)
        for j in range(ray.levels - 1, ray.first_level - 1, -1):
            t = _to_mpf(ray.beta / 2**j)
            z = t * d
            inv_z = 1 / z
            seed = inv_z + (_extrapolate(run) if run else carry)
            got = _newton(transform, z, seed, target=abs(z) * slack)
            if got is None:
                dropped.append(j)
                run = []
                continue
            w, res, slope = got
            induced = res / abs(slope) if slope else mp.inf
            carry = w - inv_z
            kept.append((j, t, w, carry, res, induced + abs(w) * rounding))
            run = [carry] + run[: len(SEED_WEIGHTS) - 1]
        if not kept:
            raise RegionTooLargeError(
                "no grid point of the ray could be inverted; shrink beta"
            )
        kept.reverse()
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

    coefficients[i] estimates the (i+1)-st free cumulant; errors[i] is an
    empirical error figure (spread between nested sub-grid fits plus the
    propagated inversion residual), and nonreal[i] flags an imaginary part
    too large to blame on that error.  The fit reads all len(samples.indices)
    kept samples."""

    order: int
    coefficients: tuple
    imag_parts: tuple
    errors: tuple
    nonreal: tuple[bool, ...]
    condition: object


def _pseudo_inverse(offsets, degree, eps):
    """One skinny QR of a[i, m] = 2^(-offsets[i] m), a = QR: returns the
    rows of the pseudo-inverse R^-1 Q^T together with R and R^-1, or None
    when some r_mm^2 <= eps."""
    a = mp.matrix([[mp.ldexp(1, -o * m) for m in range(degree + 1)] for o in offsets])
    q, r = mp.qr(a, mode="skinny")
    if any(r[m, m] ** 2 <= eps for m in range(degree + 1)):
        return None
    r_inv = mp.inverse(r)
    # R^-1 is upper triangular: row m of R^-1 Q^T sums over k >= m only
    inv_rows, q_rows = r_inv.tolist(), q.tolist()
    rows = tuple(
        tuple(mp.fdot(inv_rows[m][m:], q_row[m:]) for q_row in q_rows)
        for m in range(degree + 1)
    )
    return rows, r, r_inv


@lru_cache(maxsize=32)
def _fit_maps(offsets: tuple[int, ...], degree: int, dps: int):
    """The fit as linear maps, built once per (offsets, degree, dps).

    The fit radii are t_i = beta / 2^j_i, so t_i / t_ref = 2^-(j_i - j_0)
    with offsets[i] = j_i - j_0: the matrix depends neither on the measure
    nor on beta or the direction.  Returns the pseudo-inverses of the full
    row set and of its even- and odd-indexed halves, then, for the full
    set, the row norms of R^-1 (Q has orthonormal columns, so they are
    those of the pseudo-inverse) and the condition number (a has the
    singular values of R).  Returns None when any of the three row sets is
    numerically singular at dps."""
    with mp.workdps(dps):
        eps = +mp.eps  # fixed at dps: mp.eps follows the working precision
        with mp.extradps(10):
            full = _pseudo_inverse(offsets, degree, eps)
            even = _pseudo_inverse(offsets[0::2], degree, eps)
            odd = _pseudo_inverse(offsets[1::2], degree, eps)
            if full is None or even is None or odd is None:
                return None
            rows, r, r_inv = full
            sens = tuple(mp.norm(r_inv[m, :]) for m in range(degree + 1))
            sv = mp.svd_r(r, compute_uv=False)
            smin, smax = min(sv), max(sv)
            condition = mp.inf if smin == 0 else smax / smin
    return rows, even[0], odd[0], sens, condition


def estimate_taylor_on_ray(samples: RayTransformSamples, p: int) -> TaylorEstimate:
    """Fit a polynomial of degree p - 1 + FIT_GUARD to every kept R value
    (the ray samples only radii <= beta/100) and read off the first p
    coefficients.  Requires at least 3 (p + 1) points spanning two decades
    of radius, so each half below holds at least p + 2 points, enough for
    the degree.  Error figures come from refitting on the even- and
    odd-indexed halves of the grid.  Each of the three fits is one product
    of the R values with a cached pseudo-inverse (`_fit_maps`); the
    condition number and the sensitivity to the inversion residuals come
    with the full fit's pseudo-inverse from the same cache entry."""
    _check_order(p)
    with mp.workdps(samples.dps):
        n = len(samples.indices)
        degree = p - 1 + FIT_GUARD
        if n < 3 * (p + 1):
            raise ValidationError(
                f"{n} points kept on the ray but the fit needs at least {3 * (p + 1)}"
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
        full, even, odd, sens, condition = maps
        # only the first p coefficients are read off
        with mp.extradps(10):
            x_full = [mp.fdot(row, vals) for row in full[:p]]
            x_even = [mp.fdot(row, vals[0::2]) for row in even[:p]]
            x_odd = [mp.fdot(row, vals[1::2]) for row in odd[:p]]
        spreads = [
            max(abs(x_full[m] - x_even[m]), abs(x_full[m] - x_odd[m])) for m in range(p)
        ]
        # sens[m] is the per-coefficient sensitivity to the inversion residuals
        noise = max(samples.stability)

        d = samples.ray.direction()
        coeffs, imags, errors, nonreal = [], [], [], []
        for m in range(p):
            unscale = d**-m * t_ref**-m
            c = x_full[m] * unscale
            err = (spreads[m] + sens[m] * noise) * abs(unscale)
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
    samples = invert_g_on_ray(mu, dps=dps)
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
