"""Numeric recovery of the R-transform on rays approaching the origin.

For a finite measure mu with Cauchy transform G, the compositional left
inverse K of G is defined near 0 (away from the real axis), and

    R(z) = K(z) - 1/z

extends holomorphically to z = 0 along any ray that stays inside a cone
around the negative imaginary axis.  Its Taylor coefficients at 0 are the
free cumulants of mu.  This module samples K on a geometric grid of radii
along such a ray (damped Newton with continuation from the smallest radius,
where K(z) is dominated by 1/z), and fits a polynomial to the R values to
estimate the leading Taylor coefficients together with per-coefficient
error estimates from nested sub-grid fits.

All arithmetic is mpmath at a caller-chosen working precision; every kept
sample carries a certified inversion residual |G(K(z)) - z|, and the
stability figure residual / |z|^2 bounds the error this residual induces in
the R value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .cumulants import as_fraction, free_cumulants_from_moments
from .errors import (
    DomainError,
    NumericError,
    RegionTooLargeError,
    ValidationError,
)
from .measures import (
    Measure,
    _to_mpf,
    cauchy_transform,
    cauchy_transform_derivative,
    moments,
)

DEFAULT_LEVELS = 41
FIT_RADIUS_SHRINK = 100  # fit only radii <= beta / this
FIT_GUARD = 2  # fit degree above the p - 1 coefficients read off


@dataclass(frozen=True)
class NontangentialRay:
    """Geometric grid of points t_j * e^{i(theta - pi/2)}, t_j = beta / 2^j,
    j = 0..levels-1, approaching 0 inside the cone |tan theta| <
    min(alpha, 1/alpha) around the negative imaginary axis."""

    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(1, 8)
    tan_theta: Fraction = Fraction(0)
    levels: int = DEFAULT_LEVELS

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "tan_theta", as_fraction(self.tan_theta))
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if not isinstance(self.levels, int) or self.levels < 10:
            raise ValidationError("levels must be an int >= 10")
        lid = min(self.alpha, 1 / self.alpha)
        if abs(self.tan_theta) >= lid:
            raise ValidationError(
                f"|tan theta| = {self.tan_theta} leaves the cone (< {lid})"
            )

    def radii(self) -> list[Fraction]:
        return [self.beta / 2**j for j in range(self.levels)]

    def direction(self) -> mp.mpc:
        """Unit vector e^{i(theta - pi/2)} at the current precision."""
        tau = _to_mpf(self.tan_theta)
        c = 1 / mp.sqrt(1 + tau * tau)
        return mp.mpc(tau * c, -c)

    def points(self) -> list[mp.mpc]:
        d = self.direction()
        return [_to_mpf(t) * d for t in self.radii()]


@dataclass(frozen=True)
class RayTransformSamples:
    """Retained inversions along a ray: K and R values with certified
    residuals; `stability[i]` bounds the error of `r_values[i]`."""

    ray: NontangentialRay
    dps: int
    indices: tuple[int, ...]
    radii: tuple
    points: tuple
    k_values: tuple
    r_values: tuple
    residuals: tuple
    stability: tuple
    dropped: tuple[int, ...]


def _transform_pair(source):
    if isinstance(source, Measure):
        return (
            lambda z: cauchy_transform(source, z, dps=mp.mp.dps),
            lambda z: cauchy_transform_derivative(source, z, dps=mp.mp.dps),
        )
    if isinstance(source, tuple) and len(source) == 2 and all(callable(f) for f in source):
        return source
    raise ValidationError("source must be a Measure or a (G, G') pair of callables")


def _newton(g, gp, z, seed, target, max_iter=80) -> tuple[mp.mpc, mp.mpf] | None:
    w = seed
    try:
        fw = g(w) - z
    except (DomainError, ValueError, ZeroDivisionError):
        return None
    for _ in range(max_iter):
        if abs(fw) <= target:
            return w, abs(fw)
        try:
            dw = fw / gp(w)
        except (DomainError, ValueError, ZeroDivisionError):
            return None
        lam = mp.mpf(1)
        improved = False
        while lam > mp.mpf(2) ** -40:
            trial = w - lam * dw
            try:
                ft = g(trial) - z
            except (DomainError, ValueError, ZeroDivisionError):
                lam /= 2
                continue
            if abs(ft) < abs(fw):
                w, fw = trial, ft
                improved = True
                break
            lam /= 2
        if not improved:
            return None
    return (w, abs(fw)) if abs(fw) <= target else None


def invert_g_on_ray(
    source, ray: NontangentialRay | None = None, dps: int = 50
) -> RayTransformSamples:
    """Solve G(w) = z for every grid point z of the ray, smallest radius
    first (there K(z) ~ 1/z, so Newton starts essentially converged) and
    warm-started by carrying the finite part K(z) - 1/z to the next radius.

    Points where Newton cannot reach the residual target |z| * 10^(6-dps)
    are dropped; if every point fails the ray does not fit inside the
    region where G is invertible and RegionTooLargeError is raised.  A
    measure of mass 0 is refused up front: its G vanishes identically.
    """
    if isinstance(source, Measure) and source.mass == 0:
        raise ValidationError("the zero measure has G = 0, which has no inverse")
    if ray is None:
        ray = NontangentialRay()
    with mp.workdps(dps):
        g, gp = _transform_pair(source)
        zs = ray.points()
        slack = mp.mpf(10) ** (6 - dps)
        kept: list[tuple[int, mp.mpc, mp.mpc, mp.mpf]] = []
        dropped: list[int] = []
        finite_part = mp.mpc(0)
        for j in range(ray.levels - 1, -1, -1):
            z = zs[j]
            seed = 1 / z + finite_part
            got = _newton(g, gp, z, seed, target=abs(z) * slack)
            if got is None:
                dropped.append(j)
                continue
            w, res = got
            kept.append((j, z, w, res))
            finite_part = w - 1 / z
        if not kept:
            raise RegionTooLargeError(
                "no grid point of the ray could be inverted; shrink beta"
            )
        kept.reverse()
        radii_exact = ray.radii()
        return RayTransformSamples(
            ray=ray,
            dps=dps,
            indices=tuple(j for j, _, _, _ in kept),
            radii=tuple(_to_mpf(radii_exact[j]) for j, _, _, _ in kept),
            points=tuple(z for _, z, _, _ in kept),
            k_values=tuple(w for _, _, w, _ in kept),
            r_values=tuple(w - 1 / z for _, z, w, _ in kept),
            residuals=tuple(res for _, _, _, res in kept),
            stability=tuple(res / abs(z) ** 2 for _, z, _, res in kept),
            dropped=tuple(sorted(dropped)),
        )


# ------------------------------------------------------------------- fitting


@dataclass(frozen=True)
class TaylorEstimate:
    """Leading Taylor coefficients of R at 0 fitted on ray samples.

    coefficients[i] estimates the (i+1)-st free cumulant; errors[i] is an
    empirical error figure (spread between nested sub-grid fits plus the
    propagated inversion residual), and nonreal[i] flags an imaginary part
    too large to blame on that error."""

    order: int
    coefficients: tuple
    imag_parts: tuple
    errors: tuple
    nonreal: tuple[bool, ...]
    condition: object
    points_used: int
    radius_range: tuple


def _fit_coefficients(ts, values, degree, t_ref):
    """Least squares on a[i, m] = (t_i / t_ref)^m by one skinny QR, a = QR:
    returns (x, R, R^-1) with x = R^-1 Q^T b.  Q has orthonormal columns, so
    the pseudo-inverse R^-1 Q^T has the row norms of R^-1 and a has the
    singular values of R."""
    rows, cols = len(ts), degree + 1
    a = mp.matrix(rows, cols)
    b = mp.matrix(rows, 1)
    for i, (t, v) in enumerate(zip(ts, values)):
        s = t / t_ref
        acc = mp.mpf(1)
        for m in range(cols):
            a[i, m] = acc
            acc *= s
        b[i] = v
    q, r = mp.qr(a, mode="skinny")
    if any(r[m, m] ** 2 <= mp.eps for m in range(cols)):
        raise NumericError(
            "least-squares matrix is numerically singular; lower the fit "
            "degree or raise the working precision"
        )
    with mp.extradps(10):
        r_inv = mp.inverse(r)
        x = r_inv * (q.T * b)
    return [x[m] for m in range(cols)], r, r_inv


def estimate_taylor_on_ray(samples: RayTransformSamples, p: int) -> TaylorEstimate:
    """Fit a polynomial of degree p - 1 + FIT_GUARD to the R values on the
    sub-grid of radii <= beta/100 and read off the first p
    coefficients.  Requires at least 3 (p + 1) points spanning two decades
    of radius, so each half below holds at least p + 2 points, enough for
    the degree.  Error figures come from refitting on the even- and
    odd-indexed halves of the grid; each of the three fits is one QR
    factorisation, and the condition number and the sensitivity to the
    inversion residuals are read off the full fit's small square R."""
    if p < 1:
        raise ValidationError("order p must be >= 1")
    with mp.workdps(samples.dps):
        cap = _to_mpf(samples.ray.beta) / FIT_RADIUS_SHRINK
        sel = [i for i, t in enumerate(samples.radii) if t <= cap]
        degree = p - 1 + FIT_GUARD
        if len(sel) < 3 * (p + 1):
            raise ValidationError(
                f"{len(sel)} points below radius {mp.nstr(cap)} but the fit "
                f"needs at least {3 * (p + 1)}"
            )
        ts = [samples.radii[i] for i in sel]
        if max(ts) / min(ts) < 100:
            raise ValidationError("fit radii must span at least two decades")
        vals = [samples.r_values[i] for i in sel]
        t_ref = max(ts)
        x_full, r, r_inv = _fit_coefficients(ts, vals, degree, t_ref)

        spreads = [mp.mpf(0)] * (degree + 1)
        for parity in (0, 1):
            sub = [i for i in range(len(sel)) if i % 2 == parity]
            x_sub, _, _ = _fit_coefficients(
                [ts[i] for i in sub], [vals[i] for i in sub], degree, t_ref
            )
            for m in range(degree + 1):
                spreads[m] = max(spreads[m], abs(x_full[m] - x_sub[m]))

        sv = mp.svd_r(r, compute_uv=False)
        smin, smax = min(sv), max(sv)
        condition = mp.inf if smin == 0 else smax / smin

        # row norms of the pseudo-inverse (those of R^-1) give the
        # per-coefficient sensitivity to the inversion residuals
        noise = max(samples.stability[i] for i in sel)
        with mp.extradps(10):
            sens = [mp.norm(r_inv[m, :]) for m in range(degree + 1)]

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
            points_used=len(sel),
            radius_range=(min(ts), max(ts)),
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
