"""Ray inversion of G and Taylor-coefficient recovery."""

from fractions import Fraction

import mpmath as mp
import pytest

from freemoments.cumulants import (
    CumulantSequence,
    MomentSequence,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from freemoments.errors import NumericError, RegionTooLargeError, ValidationError
from freemoments.measures import Measure, cauchy_transform, moments
from freemoments.rays import (
    FIT_GUARD,
    NontangentialRay,
    estimate_taylor_on_ray,
    invert_g_on_ray,
    verify_taylor_cumulants,
)

F = Fraction


@pytest.fixture(autouse=True)
def _enough_digits():
    # assertions below do arithmetic on 50-digit sample values
    with mp.workdps(50):
        yield


def arcsine_callables():
    # 1 / sqrt(w - 2) sqrt(w + 2): bounded by 1/2 on the ray, so large
    # radii are not reachable
    g = lambda w: 1 / (mp.sqrt(w - 2) * mp.sqrt(w + 2))
    gp = lambda w: -w * g(w) ** 3
    return g, gp


# ----------------------------------------------------------------- ray object


def test_ray_defaults():
    ray = NontangentialRay()
    assert ray.levels == 41
    radii = ray.radii()
    assert radii[0] == F(1, 8) and radii[1] == F(1, 16)
    assert len(radii) == 41
    with mp.workdps(30):
        d = ray.direction()
        assert abs(d - mp.mpc(0, -1)) < 1e-25
        z = ray.points()[3]
        assert abs(z + mp.mpc(0, 1) / 64) < 1e-25


def test_ray_cone_validation():
    with pytest.raises(ValidationError):
        NontangentialRay(tan_theta=1)  # alpha = 1: needs |tan| < 1
    NontangentialRay(tan_theta="99/100")
    with pytest.raises(ValidationError):
        NontangentialRay(alpha=2, tan_theta="2/3")  # cap is min(2, 1/2)
    NontangentialRay(alpha=2, tan_theta="49/100")
    with pytest.raises(ValidationError):
        NontangentialRay(alpha="1/3", tan_theta="-1/3")
    with pytest.raises(ValidationError):
        NontangentialRay(beta=0)
    with pytest.raises(ValidationError):
        NontangentialRay(levels=5)
    with pytest.raises(ValidationError):
        NontangentialRay(beta=0.125)  # floats stay out of exact fields


def test_tilted_ray_points_stay_in_cone():
    ray = NontangentialRay(tan_theta="1/2")
    with mp.workdps(30):
        for z in ray.points():
            assert z.imag < 0
            assert abs(z.real) < abs(z.imag)  # alpha = 1 cone


# ------------------------------------------------------------------ inversion


def test_dirac_inversion_matches_closed_form():
    samples = invert_g_on_ray(Measure.dirac(3))
    assert samples.indices == tuple(range(41))
    assert samples.dropped == ()
    for z, w, r, stab in zip(
        samples.points, samples.k_values, samples.r_values, samples.stability
    ):
        # the stability figure is exactly the residual-induced bound on R
        assert abs(w - (3 + 1 / z)) <= stab + mp.mpf(10) ** -45
        assert abs(r - 3) <= stab + mp.mpf(10) ** -45


def test_cauchy_r_is_constant():
    samples = invert_g_on_ray(Measure.cauchy())
    dev = max(abs(r + mp.mpc(0, 1)) for r in samples.r_values)
    assert dev < 1e-8  # the headline bound; recovery is essentially exact:
    assert dev < 1e-29


def test_semicircle_r_values_pointwise():
    # R(z) = z for the unit-variance semicircle
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    for z, r, stab in zip(samples.points, samples.r_values, samples.stability):
        assert abs(r - z) <= stab + mp.mpf(10) ** -40


def test_residuals_certified():
    samples = invert_g_on_ray(Measure.semicircle(0, 2), dps=50)
    with mp.workdps(50):
        slack = mp.mpf(10) ** -44
        for z, res in zip(samples.points, samples.residuals):
            assert res <= abs(z) * slack
    # re-evaluated at 10 extra digits, |G(K(z)) - z| certifies the inversion
    with mp.workdps(60):
        fresh = [
            abs(cauchy_transform(Measure.semicircle(0, 2), w, dps=60) - z)
            for w, z in zip(samples.k_values, samples.points)
        ]
    assert max(fresh) < 1e-40


def test_radii_are_descending_and_aligned():
    samples = invert_g_on_ray(Measure.dirac(0))
    assert all(a > b for a, b in zip(samples.radii, samples.radii[1:]))
    with mp.workdps(50):
        for t, z in zip(samples.radii, samples.points):
            assert abs(abs(z) - t) < 1e-45


def test_unreachable_radii_are_dropped():
    ray = NontangentialRay(beta=2)
    samples = invert_g_on_ray(arcsine_callables(), ray)
    assert samples.dropped and all(j <= 3 for j in samples.dropped)
    assert 0 in samples.dropped  # |G| < 1/2 makes t = 2 unreachable


def test_region_too_large():
    ray = NontangentialRay(beta=10**6, levels=10)
    with pytest.raises(RegionTooLargeError):
        invert_g_on_ray(arcsine_callables(), ray)


def test_source_validation():
    with pytest.raises(ValidationError):
        invert_g_on_ray("not a measure")
    with pytest.raises(ValidationError):
        invert_g_on_ray((lambda z: z,))


# -------------------------------------------------------------------- fitting


def test_semicircle_taylor():
    chk = verify_taylor_cumulants(Measure.semicircle(0, 2), 6)
    assert chk.exact == (0, 1, 0, 0, 0, 0)
    assert chk.max_error < 1e-12
    assert all(e <= max(b, mp.mpf(10) ** -25) for e, b in zip(chk.abs_errors, chk.error_estimates))


def test_discrete_taylor():
    mu = Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])
    chk = verify_taylor_cumulants(mu, 6)
    assert chk.max_error < 1e-9
    assert chk.exact == free_cumulants_from_moments(
        moments_from_free_cumulants(CumulantSequence(chk.exact, "free"))
    ).values


def test_marchenko_pastur_taylor():
    chk = verify_taylor_cumulants(Measure.marchenko_pastur(2), 5)
    assert chk.exact == (2, 2, 2, 2, 2)
    assert chk.max_error < 1e-10


def test_uniform_taylor():
    chk = verify_taylor_cumulants(Measure.uniform(-1, 1), 4)
    assert chk.exact == (0, F(1, 3), 0, F(-1, 45))
    assert chk.max_error < 1e-10


def _fit_on(mu, ray, p):
    """The ray-fitted coefficients and their largest error against the
    exact free cumulants of mu."""
    est = estimate_taylor_on_ray(invert_g_on_ray(mu, ray), p)
    exact = free_cumulants_from_moments(moments(mu, p)).values
    return est, max(
        abs(c - mp.mpf(k.numerator) / k.denominator)
        for c, k in zip(est.coefficients, exact)
    )


def test_tilted_ray_recovers_same_cumulants():
    ray = NontangentialRay(tan_theta="1/2")
    est, max_error = _fit_on(Measure.semicircle(0, 2), ray, 5)
    assert max_error < 1e-10
    assert not any(est.nonreal)


def test_beta_halving_is_stable():
    mu = Measure.discrete([(-2, "1/3"), (0, "1/3"), (1, "1/3")])
    a, a_error = _fit_on(mu, NontangentialRay(beta=F(1, 8)), 5)
    b, b_error = _fit_on(mu, NontangentialRay(beta=F(1, 16)), 5)
    assert a_error < 1e-10 and b_error < 1e-10
    for x, y in zip(a.coefficients, b.coefficients):
        assert abs(x - y) < 1e-9


def test_r_values_add_under_free_convolution():
    # semicircle variances add: 9/4 + 4 = 25/4
    ray = NontangentialRay()
    s3 = invert_g_on_ray(Measure.semicircle(0, 3), ray)
    s4 = invert_g_on_ray(Measure.semicircle(0, 4), ray)
    s5 = invert_g_on_ray(Measure.semicircle(0, 5), ray)
    for a, b, c in zip(s3.r_values, s4.r_values, s5.r_values):
        assert abs(a + b - c) < 1e-30


def test_arcsine_taylor_from_callables():
    samples = invert_g_on_ray(arcsine_callables(), NontangentialRay())
    est = estimate_taylor_on_ray(samples, 6)
    exact = free_cumulants_from_moments(MomentSequence((0, 2, 0, 6, 0, 20))).values
    assert exact == (0, 2, 0, -2, 0, 4)
    for got, want in zip(est.coefficients, exact):
        # growing cumulants leave ~1e-11 of truncation in the top term
        assert abs(got - mp.mpf(want.numerator) / want.denominator) < 5e-11


def test_nonreal_flag_fires_for_complex_data():
    # transform of a unit point at i/10: R is the constant i/10
    g = lambda w: 1 / (w - mp.mpc(0, 1) / 10)
    gp = lambda w: -1 / (w - mp.mpc(0, 1) / 10) ** 2
    samples = invert_g_on_ray((g, gp))
    est = estimate_taylor_on_ray(samples, 3)
    assert est.nonreal[0]
    assert abs(est.imag_parts[0] - mp.mpf(1) / 10) < 1e-20


def test_fit_validation():
    samples = invert_g_on_ray(Measure.dirac(0))
    with pytest.raises(ValidationError):
        estimate_taylor_on_ray(samples, 11)  # needs 36 points, only 34 fit
    with pytest.raises(ValidationError):
        estimate_taylor_on_ray(samples, 0)
    # 13 levels leave 6 fit radii within a factor 32 of each other
    short = invert_g_on_ray(Measure.semicircle(0, 2), NontangentialRay(levels=13))
    with pytest.raises(ValidationError, match="two decades"):
        estimate_taylor_on_ray(short, 1)


def test_estimate_metadata():
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    est = estimate_taylor_on_ray(samples, 4)
    assert est.points_used == 34
    assert est.order == 4
    lo, hi = est.radius_range
    assert lo < hi <= mp.mpf(1) / 800
    assert est.condition > 1


@pytest.mark.parametrize("dps, p", [(10, 4), (15, 5), (20, 8), (25, 6)])
def test_singular_fit_raises_numeric_error(dps, p):
    # a fit degree the working precision cannot resolve
    samples = invert_g_on_ray(Measure.semicircle(0, 2), dps=dps)
    with pytest.raises(NumericError, match="numerically singular"):
        estimate_taylor_on_ray(samples, p)


@pytest.mark.parametrize(
    "mu",
    [Measure.semicircle(0, 2), Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])],
    ids=["semicircle", "three-atom"],
)
def test_fit_agrees_with_svd_and_householder_oracles(mu):
    # rebuild the tall Vandermonde matrix of the fit and solve it by the
    # routes the production fit does not take: the singular values of the
    # whole matrix and mpmath's Householder least squares
    p = 4
    samples = invert_g_on_ray(mu)
    est = estimate_taylor_on_ray(samples, p)
    t_ref = est.radius_range[1]
    sel = [i for i, t in enumerate(samples.radii) if t <= t_ref]
    assert len(sel) == est.points_used
    a = mp.matrix(
        [[(samples.radii[i] / t_ref) ** m for m in range(p + FIT_GUARD)] for i in sel]
    )
    b = mp.matrix([samples.r_values[i] for i in sel])
    sv = mp.svd_r(a, compute_uv=False)
    condition = max(sv) / min(sv)
    assert abs(est.condition - condition) <= mp.mpf("1e-20") * condition
    x, _ = mp.qr_solve(a, b)
    d = samples.ray.direction()
    for m in range(p):
        want = x[m] * d**-m * t_ref**-m
        got = mp.mpc(est.coefficients[m], est.imag_parts[m])
        assert abs(got - want) <= mp.mpf("1e-20") * max(1, abs(want))
