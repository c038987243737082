"""Ray inversion of G and Taylor-coefficient recovery."""

import dataclasses
import functools
import inspect
import random
from fractions import Fraction

import mpmath as mp
import pytest

from freemoments import measures, rays
from freemoments.cumulants import (
    CumulantSequence,
    MomentSequence,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from freemoments.errors import (
    BudgetError,
    DomainError,
    NumericError,
    RegionTooLargeError,
    ValidationError,
)
from freemoments.measures import (
    Measure,
    cauchy_transform,
    cauchy_transform_derivative,
    moments,
)
from freemoments.rays import (
    FIT_GUARD,
    NontangentialRay,
    _RAY_BUDGET,
    _ray_work,
    estimate_taylor_on_ray,
    invert_g_on_ray,
    verify_taylor_cumulants,
)

from oracles import cauchy_exact, cauchy_log_law, cauchy_sqrt_law, least_squares_rows

F = Fraction


@pytest.fixture(autouse=True)
def _enough_digits():
    # assertions below do arithmetic on 50-digit sample values
    with mp.workdps(50):
        yield


# the per-point fields of RayTransformSamples
POINT_FIELDS = ("indices", "radii", "r_values", "residuals", "stability")
# the radii <= beta/100 that a fit of the default order 6 reads, levels 7..27
INVERTED_LEVELS = 3 * (rays.DEFAULT_ORDER + 1)
# levels a ray inverts for a fit of order p: 3 (p + 1), but the 8 levels
# 7..14 at least, whose radii span two decades; none at order 11, whose 36
# levels the 34 levels 7..40 cannot hold, so the ray refuses it up front
LEVELS_AT_ORDER = {1: 8, 2: 9, 3: 12, 4: 15, 5: 18, 6: 21, 7: 24, 10: 33, 11: 0}


def grid_points(samples):
    """The kept grid points z = radius * direction, at the samples' precision."""
    with mp.workdps(samples.dps):
        d = samples.ray.direction()
        return [t * d for t in samples.radii]


def k_values(samples, extra=0):
    """K(z) = R(z) + 1/z at the kept grid points, `extra` digits past the
    samples' precision."""
    zs = grid_points(samples)
    with mp.workdps(samples.dps + extra):
        return [r + 1 / z for z, r in zip(zs, samples.r_values)]


def arcsine_callables():
    # 1 / sqrt(w - 2) sqrt(w + 2): bounded by 1/2 on the ray, so large
    # radii are not reachable
    g = lambda w: 1 / (mp.sqrt(w - 2) * mp.sqrt(w + 2))
    gp = lambda w: -w * g(w) ** 3
    return g, gp


# ----------------------------------------------------------------- ray object


def test_ray_defaults():
    ray = NontangentialRay()
    assert ray.levels == 41 and ray.first_level == 7
    assert 2 ** (ray.first_level - 1) < 100 <= 2**ray.first_level
    assert ray.alpha == 1 and ray.beta == F(1, 8)
    d = ray.direction()
    assert abs(d - mp.mpc(0, -1)) < 1e-25
    # level j sits at radius beta / 2^j = 2^-(j + 3); the first one
    # inverted is beta / 2^7
    samples = invert_g_on_ray(Measure.dirac(3), ray)
    assert samples.indices[0] == ray.first_level
    assert samples.radii[0] == mp.ldexp(1, -10)
    for j, t in zip(samples.indices, samples.radii):
        assert t == mp.ldexp(1, -(j + 3))


def test_ray_cone_validation():
    for tilt in (1, -1):
        with pytest.raises(ValidationError):
            NontangentialRay(tan_theta=tilt)  # the cone is |tan theta| < 1
    NontangentialRay(tan_theta="99/100")
    with pytest.raises(TypeError):
        NontangentialRay(alpha=2)  # the aperture is a constant, not a field
    with pytest.raises(ValidationError):
        NontangentialRay(beta=0)
    with pytest.raises(ValidationError):
        NontangentialRay(beta=0.125)  # floats stay out of exact fields


def test_tilted_ray_points_stay_in_cone():
    samples = invert_g_on_ray(Measure.dirac(3), NontangentialRay(tan_theta="1/2"))
    for z in grid_points(samples):
        assert z.imag < 0
        assert abs(z.real) < abs(z.imag)  # alpha = 1 cone


# ------------------------------------------------------------------ inversion


def test_dirac_inversion_matches_closed_form():
    samples = invert_g_on_ray(Measure.dirac(3))
    assert samples.indices == tuple(range(7, 28))
    assert samples.dropped == ()
    # a fit of order p reads 3 (p + 1) levels, 33 of the 34 levels 7..40 at
    # order 10
    assert invert_g_on_ray(Measure.dirac(3), p=7).indices == tuple(range(7, 31))
    assert invert_g_on_ray(Measure.dirac(3), p=10).indices == tuple(range(7, 40))
    for r, stab in zip(samples.r_values, samples.stability):
        # the stability figure bounds the error of R = K - 1/z
        assert abs(r - 3) <= stab + mp.mpf(10) ** -45


def test_cauchy_r_is_constant():
    samples = invert_g_on_ray(Measure.cauchy())
    dev = max(abs(r + mp.mpc(0, 1)) for r in samples.r_values)
    assert dev < 1e-8  # the headline bound; recovery is essentially exact:
    assert dev < 1e-29


def test_semicircle_r_values_pointwise():
    # R(z) = z for the unit-variance semicircle
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    for z, r, stab in zip(grid_points(samples), samples.r_values, samples.stability):
        assert abs(r - z) <= stab + mp.mpf(10) ** -40


def test_residuals_certified():
    samples = invert_g_on_ray(Measure.semicircle(0, 2), dps=50)
    with mp.workdps(50):
        slack = mp.mpf(10) ** -44
        for z, res in zip(grid_points(samples), samples.residuals):
            assert res <= abs(z) * slack
    # re-evaluated at 10 extra digits, |G(K(z)) - z| certifies the inversion
    with mp.workdps(60):
        fresh = [
            abs(cauchy_transform(Measure.semicircle(0, 2), w, dps=60) - z)
            for w, z in zip(k_values(samples, 10), grid_points(samples))
        ]
    assert max(fresh) < 1e-40


def count_evaluations(monkeypatch):
    """Patch the ray's one seam for (G, G') (`rays._level_evaluators`) so
    that each evaluation, of a measure or of a pair of callables, is logged
    with its point as an mpc."""
    calls = []
    build = rays._level_evaluators

    def counting_build(source):
        levels = build(source)

        def counting_level(e, bits):
            evaluate = levels(e, bits)

            def counting(wr, wi):
                calls.append(rays._unfixed_pair((wr, wi), bits + e))
                return evaluate(wr, wi)

            return counting

        return counting_level

    monkeypatch.setattr(rays, "_level_evaluators", counting_build)
    return calls


def smooth_law_pair():
    """(G, G') of the density 2 / (pi (1 + x^2)^2), a probability law given
    only by its transform G(w) = 1/(w + i) + i/(w + i)^2."""
    i = mp.mpc(0, 1)
    return (
        lambda w: 1 / (w + i) + i / (w + i) ** 2,
        lambda w: -1 / (w + i) ** 2 - 2 * i / (w + i) ** 3,
    )


def _fraction(x):
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    return F(-man if sign else man) * F(2) ** exp


def independent_g(source):
    """w -> G(w) at the working precision, by none of the ray's forms: the
    rational oracle for a discrete or Cauchy law, the textbook closed form
    for a semicircle, Marchenko-Pastur or uniform law, past its cancellation
    at large |w|, the first callable of a pair."""
    if not isinstance(source, Measure):
        return source[0]
    if source.kind == "discrete" or source.density == "cauchy":

        def exact(w):
            g_re, g_im = cauchy_exact(source, _fraction(w.real), _fraction(w.imag))[:2]
            return mp.mpc(measures._to_mpf(g_re), measures._to_mpf(g_im))

        return exact
    textbook_law = cauchy_log_law if source.density == "uniform" else cauchy_sqrt_law

    def textbook(w):
        prec = mp.mp.prec + 4 * max(int(mp.mag(w)), 0) + 64
        g_re, g_im = textbook_law(source, _fraction(w.real), _fraction(w.imag), prec)[:2]
        return mp.mpc(g_re, g_im)

    return textbook


def fresh_residuals(source, samples):
    """|G(K(z)) - z| of each kept point, G evaluated at 20 more digits."""
    zs = grid_points(samples)
    ks = k_values(samples, 20)
    with mp.workdps(samples.dps + 20):
        g = independent_g(source)
        return [abs(g(w) - z) for z, w in zip(zs, ks)]


CERTIFIED_SOURCES = {
    "six-atom": Measure.discrete(
        [(-3, "1/4"), (-1, "1/8"), (0, "1/8"), ("1/2", "1/8"), (2, "1/8"), (5, "1/4")]
    ),
    "uniform": Measure.uniform(-1, 1),
    "marchenko-pastur": Measure.marchenko_pastur(2),
    "semicircle": Measure.semicircle("1/2", 3),
    "cauchy": Measure.cauchy(),
    "smooth-law-pair": smooth_law_pair(),
}
CERTIFIED_RAYS = (
    NontangentialRay(),
    NontangentialRay(beta=F(1, 5), tan_theta=F(1, 2)),
    NontangentialRay(beta=F(1, 5), tan_theta=F(-1, 2)),
    # radii of 1e-152 and below, where (Im K)^3 ~ 1e456 is past any float
    NontangentialRay(beta="1e-150"),
)


@pytest.mark.parametrize("source", CERTIFIED_SOURCES.values(), ids=CERTIFIED_SOURCES.keys())
def test_reported_residual_bounds_the_inversion_error(monkeypatch, source):
    # Newton's last step at a level is accepted on the curvature bound
    # |G''(w)| <= 2 / (Im w)^3 without evaluating G there: re-evaluated at 20
    # more digits, |G(K(z)) - z| must stay within the residual reported for
    # it, as at the evaluated points, and the residual within the target;
    # at 400 digits too, where the rounding unit is past any float.  Newton
    # returns each certified step at once, unevaluated
    certified = []
    step_certificate = rays._step_certificate

    def recording(*args):
        step = step_certificate(*args)
        certified.append(step is not None)
        return step

    monkeypatch.setattr(rays, "_step_certificate", recording)
    runs = [(ray, p, 50) for ray in CERTIFIED_RAYS for p in (2, 4, 6, 10)]
    runs.append((NontangentialRay(), 4, 400))
    unevaluated = {50: 0, 400: 0}
    for ray, p, dps in runs:
        certified.clear()
        samples = invert_g_on_ray(source, ray, dps=dps, p=p)
        unevaluated[dps] += sum(certified)
        fresh = fresh_residuals(source, samples)
        with mp.workdps(dps + 20):
            for z, res, true in zip(grid_points(samples), samples.residuals, fresh):
                assert true <= res <= abs(z) * mp.mpf(10) ** (6 - dps)
    assert unevaluated[50] > 0 and unevaluated[400] > 0


@pytest.mark.parametrize(
    "beta, dps",
    [("1/8", 50), ("1e-150", 50), ("1e-200", 50), ("1e120", 50), ("1/8", 400)],
    ids=["in-range", "beta-1e-150", "beta-1e-200", "beta-1e120", "dps-400"],
)
def test_newton_step_is_certified_only_inside_the_float_range(monkeypatch, beta, dps):
    # K(z) = 1/z for the Dirac law at 0; from a seed 1e-30 off one full
    # step reaches the target at 50 digits, and the fourth at 400.  Worked
    # out in floats, the certificate held only inside the float range, which
    # names the test: at |z| = 1e-152 (Im w)^3 ~ 1e456 overflows a float, at
    # |z| = 1e-202 the slope |z|^2 underflows too, at |z| = 1e118 (Im w)^3 ~
    # 1e-354 underflows, and at 400 digits the rounding unit 1e-399 does.
    # In the fixed point of the level every one of them is an int of about
    # mp.prec bits: the last step is certified in all five cases, so G is
    # not evaluated at the point returned, and its residual still bounds
    # |G(K) - z| at 20 more digits
    evaluated = count_evaluations(monkeypatch)
    dirac = Measure.dirac(0)
    with mp.workdps(dps):
        z = mp.mpc(0, -1) * measures._to_mpf(F(beta) / 100)
        e, bits = mp.mag(z), mp.mp.prec + rays._GUARD_BITS
        evaluate = rays._level_evaluators(dirac)(e, bits)
        seed = rays._fixed_pair((1 + mp.mpf(10) ** -30) / z, bits + e)
        target = rays._fixed((abs(z) * mp.mpf(10) ** (6 - dps))._mpf_, bits - e)
        w, res, _ = rays._newton(evaluate, rays._fixed_pair(z, bits - e), seed, target, bits)
        k = rays._unfixed_pair(w, bits + e)
        assert len(evaluated) == (1 if dps == 50 else 4) and k not in evaluated
        g_rounding = abs(z) * mp.mpf(10) ** (1 - dps)  # added by invert_g_on_ray
        bound = rays._unfixed(res, bits - e) + g_rounding
    with mp.workdps(dps + 20):
        assert abs(independent_g(dirac)(k) - z) <= bound


def test_certificate_rounds_each_bound_the_safe_way():
    # at 6 fraction bits every rounding of _step_certificate shows.  With
    # f, s, dw and m = min(Im w, Im(w - dw)) the reals its ints stand for
    # (units u = 2^-bits) and C = _CURVATURE, each bound must lie on its
    # safe side of the real value of its formula,
    #   residual >= |f - s dw| + (C/2) |dw|^2 / m^3 + (3 + 2 |dw|) u,
    #   slope <= |s| - 2 u - C |dw| / m^3,
    # and within a few units of it once |dw| is rounded up to whole units
    bits, unit = 6, mp.mpf(2) ** -6
    rng = random.Random(7)
    checked = 0

    def bounds(f, s, dw, adw, m):
        curvature = mp.mpf(rays._CURVATURE)
        linear = abs(mp.mpc(*f) * unit - mp.mpc(*s) * unit * mp.mpc(*dw) * unit)
        residual = linear + curvature / 2 * adw**2 / m**3 + (rays._FLOOR_SLACK + 2 * adw) * unit
        return residual, abs(mp.mpc(*s)) * unit - 2 * unit - curvature * adw / m**3

    with mp.workdps(60):
        for _ in range(400):
            w = (rng.randint(-300, 300), rng.randint(40, 600))
            # |dw| is a whole number on the axes: then only the other
            # roundings remain
            dw = (rng.randint(-20, 20), rng.choice([0, rng.randint(-20, 20)]))
            f = (rng.randint(-90, 90), rng.randint(-90, 90))
            s = (rng.randint(-300, 300), rng.randint(-300, 300))
            got = rays._step_certificate(w, dw, f, s, 10**9, bits)
            m = min(w[1], w[1] - dw[1]) * unit
            adw = abs(mp.mpc(*dw)) * unit
            residual, slope = bounds(f, s, dw, adw, m)
            if got is None:
                assert slope <= 0
                continue
            _, res, lower = got
            assert residual <= res * unit and lower * unit <= slope
            residual, slope = bounds(f, s, dw, mp.ceil(adw / unit) * unit, m)
            assert res * unit <= residual + 3 * unit and slope - 2 * unit <= lower * unit
            checked += 1
    assert checked > 200


EDGE_LAWS = (
    Measure.discrete([(-1, "1/2"), (1, "1/2")]),
    Measure.semicircle(0, 2),
    Measure.uniform(-1, 1),
    Measure.cauchy(),
    # irrational edges (1 -+ sqrt(3/2))^2: the int form's domain check
    # stays exact on the negative-exponent levels of beta = 10^320
    Measure.marchenko_pastur("3/2"),
)


def test_rays_from_beta_1e_320_to_1e320_keep_only_points_within_target():
    # beta = 10^k for k = -320..320 in steps of 40 at 15, 50 and 305 digits,
    # on two tilts and five laws, is 510 rays and takes about 15 s; this
    # samples each (k, dps) once, with the law and the tilt turning so that
    # every pair of them meets every precision: 51 rays in about 1 s.  Each
    # raises RegionTooLargeError, where beta is too large for G to reach the
    # grid points, or keeps only points within the residual target
    outcomes = {"inverted": 0, "too-large": 0}
    laws = len(EDGE_LAWS)
    for i, k in enumerate(range(-320, 321, 40)):
        for j, dps in enumerate((15, 50, 305)):
            mu = EDGE_LAWS[(i + j) % laws]
            ray = NontangentialRay(beta=F(10) ** k, tan_theta=(F(0), F(-1, 2))[i // laws % 2])
            try:
                samples = invert_g_on_ray(mu, ray, dps=dps, p=2)
            except RegionTooLargeError:
                outcomes["too-large"] += 1
                continue
            outcomes["inverted"] += 1
            with mp.workdps(dps):
                for z, res in zip(grid_points(samples), samples.residuals):
                    assert res <= abs(z) * mp.mpf(10) ** (6 - dps)
    assert outcomes["inverted"] > 20 and outcomes["too-large"] > 20


def test_radii_are_descending_and_aligned():
    samples = invert_g_on_ray(Measure.dirac(0))
    assert all(a > b for a, b in zip(samples.radii, samples.radii[1:]))
    with mp.workdps(50):
        for t, z in zip(samples.radii, grid_points(samples)):
            assert abs(abs(z) - t) < 1e-45


def test_unreachable_radii_are_dropped():
    # level 7, the largest radius inverted, sits at t = 2^8 / 2^7 = 2
    ray = NontangentialRay(beta=2**8)
    samples = invert_g_on_ray(arcsine_callables(), ray)
    assert samples.dropped and all(j <= 10 for j in samples.dropped)
    assert 7 in samples.dropped  # |G| < 1/2 makes t = 2 unreachable


def test_region_too_large():
    # the smallest of the 41 radii is 2^40 / 2^40 = 1, and no z = -it with
    # t >= 1/2 is a value of the arcsine G
    ray = NontangentialRay(beta=2**40)
    with pytest.raises(RegionTooLargeError):
        invert_g_on_ray(arcsine_callables(), ray)


RAYS = {
    "default": NontangentialRay(),
    "tilted": NontangentialRay(beta=F(1, 5), tan_theta=F(-1, 2)),
}
# order 6 is the default, which the ids "default" and "tilted" run
EXPLICIT_ORDERS = [p for p in LEVELS_AT_ORDER if p != 6]


@pytest.mark.parametrize(
    "ray, p",
    [(ray, None) for ray in RAYS.values()]
    + [(ray, p) for p in EXPLICIT_ORDERS for ray in RAYS.values()],
    ids=list(RAYS) + [f"{name}-p{p}" for p in EXPLICIT_ORDERS for name in RAYS],
)
def test_newton_solves_only_radii_the_fit_reads(monkeypatch, ray, p):
    # Newton runs once per level, in the fixed point of the level's binary
    # exponent mag(beta) - j, each level's evaluator built through the seam
    exponents = []
    level_evaluators = rays._level_evaluators

    def recording(source):
        levels = level_evaluators(source)

        def level(e, bits):
            exponents.append(e)
            return levels(e, bits)

        return level

    monkeypatch.setattr(rays, "_level_evaluators", recording)
    mu = Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])
    if not LEVELS_AT_ORDER[6 if p is None else p]:
        with pytest.raises(ValidationError, match="at most 10"):
            invert_g_on_ray(mu, ray, p=p)
        assert exponents == []
        return
    samples = invert_g_on_ray(mu, ray) if p is None else invert_g_on_ray(mu, ray, p=p)
    assert len(exponents) == LEVELS_AT_ORDER[6 if p is None else p]
    assert samples.dropped == () and samples.indices[0] == ray.first_level
    beta = mp.mpf(ray.beta.numerator) / ray.beta.denominator
    levels = [mp.mag(beta) - e for e in exponents]
    assert max(mp.ldexp(beta, -j) for j in levels) <= beta / 100
    # Newton solved for exactly the kept levels, smallest radius first
    assert levels[::-1] == list(samples.indices)


def test_source_validation():
    with pytest.raises(ValidationError):
        invert_g_on_ray("not a measure")
    with pytest.raises(ValidationError):
        invert_g_on_ray((lambda z: z,))


FIVE_SHAPES = {
    "discrete": Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")]),
    "semicircle": Measure.semicircle(0, 2),
    "marchenko-pastur": Measure.marchenko_pastur(2),
    "uniform": Measure.uniform(-1, 1),
    "cauchy": Measure.cauchy(),
}


@pytest.mark.parametrize("mu", FIVE_SHAPES.values(), ids=FIVE_SHAPES.keys())
def test_measure_and_callable_pair_sources_agree(mu):
    # a Measure runs the joint (G, G') evaluation; the pair of its two
    # components must follow the same Newton path.  Every law takes its int
    # form at each level's fixed point on the ray, and through
    # cauchy_transform at the fixed point of |w|, rounded to 50 digits: the
    # two R values agree within their stability figures
    pair = (
        functools.partial(cauchy_transform, mu, dps=50),
        functools.partial(cauchy_transform_derivative, mu, dps=50),
    )
    direct = invert_g_on_ray(mu, dps=50)
    wrapped = invert_g_on_ray(pair, dps=50)
    assert direct.dropped == wrapped.dropped
    assert direct.indices == wrapped.indices
    for a, b, stab_a, stab_b in zip(
        direct.r_values, wrapped.r_values, direct.stability, wrapped.stability
    ):
        assert abs(a - b) <= stab_a + stab_b


def test_one_transform_evaluation_per_newton_point(monkeypatch):
    calls = count_evaluations(monkeypatch)
    for mu, bound in (
        # R(z) = z: the line through two R values is exact; 23 evaluations
        (Measure.semicircle(0, 2), 1.15),
        # 35 evaluations, 56 when the last step at each level was evaluated
        (Measure.discrete([(-8, "1/3"), (-2, "1/3"), ("7/2", "1/3")]), 1.75),
    ):
        calls.clear()
        samples = invert_g_on_ray(mu)
        assert samples.dropped == ()
        # one evaluation per Newton point, few points once the seed
        # extrapolates R from the levels below, and none at the step that
        # the curvature bound accepts; each counted through the seam
        assert 0 < len(calls) < bound * INVERTED_LEVELS


@pytest.mark.parametrize("n", [1, 2, 3])
def test_seed_extrapolation_is_exact_on_low_degree_polynomials(n):
    # the seed table alone sets the degree: n values of R at t/2, ...,
    # t/2^n, newest first, give R(t) exactly when R has degree below n;
    # R is an int pair, as in a level's fixed point
    assert len(rays.SEED_WEIGHTS) == 3
    t = 2**n  # every radius below is a whole number
    for degree in range(n):
        coeffs = [(3 - 2 * m, m + 1) for m in range(degree + 1)]

        def r(x):
            return (
                sum(a * x**m for m, (a, _) in enumerate(coeffs)),
                sum(b * x**m for m, (_, b) in enumerate(coeffs)),
            )

        run = [r(t // 2**k) for k in range(1, n + 1)]
        assert rays._extrapolate(run) == r(t)


def test_constants_converted_once_per_ray(monkeypatch):
    conversions = []
    to_mpf = measures._to_mpf

    def counting(q):
        conversions.append(q)
        return to_mpf(q)

    monkeypatch.setattr(measures, "_to_mpf", counting)
    monkeypatch.setattr(rays, "_to_mpf", counting)
    calls = count_evaluations(monkeypatch)
    six_atoms = Measure.discrete(
        [(-3, "1/4"), (-1, "1/8"), (0, "1/8"), ("1/2", "1/8"), (2, "1/8"), (5, "1/4")]
    )
    # the ray's beta and tilt; the int forms of a discrete law, a
    # semicircle and a uniform law convert nothing.  None per level or per
    # evaluation, of which there are more than that
    allowed = 2
    for mu in (six_atoms, Measure.semicircle("1/2", 3), Measure.uniform(-1, 1)):
        conversions.clear()
        calls.clear()
        samples = invert_g_on_ray(mu)
        assert samples.dropped == ()
        assert len(calls) > allowed and len(samples.indices) > allowed
        assert len(conversions) <= allowed


def with_a_hole(mu, lo: int, hi: int):
    """(G, G') of mu raising DomainError near K(z) on the levels lo..hi of
    the default ray, where |K(z)| ~ 1/|z| = 8 * 2^j."""
    band = (8 * mp.mpf(2) ** (lo - mp.mpf(1) / 2), 8 * mp.mpf(2) ** (hi + mp.mpf(1) / 2))

    def checked(w):
        if band[0] < abs(w) < band[1]:
            raise DomainError("inside the hole")
        return measures._transform(mu, w, 50)

    return (lambda w: checked(w)[0], lambda w: checked(w)[1])


def test_level_dropped_mid_ray():
    dps = 50
    samples = invert_g_on_ray(with_a_hole(Measure.semicircle(0, 2), 20, 22), dps=dps)
    assert samples.dropped == (20, 21, 22)
    # the three levels past 27 make up for the dropped ones
    assert samples.indices == tuple(j for j in range(7, 31) if j not in (20, 21, 22))
    assert len(samples.indices) == INVERTED_LEVELS
    slack = mp.mpf(10) ** (6 - dps)
    for z, r, res, stab in zip(
        grid_points(samples), samples.r_values, samples.residuals, samples.stability
    ):
        assert res <= abs(z) * slack
        # R(z) = z, also on levels 19 and 18, whose seeds carry R from below;
        # |G'(K)| = |z|^2 / |1 - z^2| here, and the figure divides the
        # residual by it
        assert abs(r - z) <= stab


def test_a_level_made_up_deeper_is_seeded_with_the_deepest_r(monkeypatch):
    # R = 3 for the point mass at 3, so each deeper level's seed is 1/z + 3;
    # the first point each Newton call evaluates is its seed
    calls = count_evaluations(monkeypatch)
    seeds = []
    newton = rays._newton

    def recording(*args):
        seeds.append(len(calls))
        return newton(*args)

    monkeypatch.setattr(rays, "_newton", recording)
    samples = invert_g_on_ray(with_a_hole(Measure.dirac(3), 20, 22))
    assert samples.indices[-3:] == (28, 29, 30)
    for z, first in zip(grid_points(samples)[-3:], seeds[-3:]):
        assert abs(calls[first] - 1 / z - 3) < 1e-40


@pytest.mark.parametrize(
    "mu",
    [Measure.marchenko_pastur(2), Measure.discrete([(-8, "1/3"), (-2, "1/3"), ("7/2", "1/3")])],
    ids=["marchenko-pastur-2", "three-atoms"],
)
def test_stability_figure_bounds_r_against_a_higher_precision_run(mu):
    # |G'(K)| is |z|^2 only to leading order; on these laws the difference
    # is larger than the margin between the error of R and its figure
    at_50 = invert_g_on_ray(mu, dps=50)
    at_80 = invert_g_on_ray(mu, dps=80)
    assert at_50.dropped == at_80.dropped == ()
    with mp.workdps(80):
        for r, stab, r_80 in zip(at_50.r_values, at_50.stability, at_80.r_values):
            assert abs(r - r_80) <= stab


def test_evaluator_follows_the_precision_of_each_call():
    # a form left over from the 50-digit run would evaluate the later runs
    # at 50 digits: R off by ~1e-51
    mu = Measure.semicircle("1/3", "5/7")  # R(z) = 1/3 + (5/14)^2 z
    invert_g_on_ray(mu, dps=50)
    at_80 = invert_g_on_ray(mu, dps=80)
    at_100 = invert_g_on_ray(mu, dps=100)
    assert at_80.indices == at_100.indices
    with mp.workdps(100):
        for z, r, stab, r_100 in zip(
            grid_points(at_80), at_80.r_values, at_80.stability, at_100.r_values
        ):
            exact = mp.mpf(1) / 3 + (mp.mpf(5) / 14) ** 2 * z
            # the stability figure is first order in the residual: a factor
            # 2 covers the higher orders on these radii
            assert abs(r - exact) <= 2 * stab
            if stab < 1e-71:
                assert abs(r - r_100) < 1e-70


def test_tiny_beta_error_covers_the_rounding_of_k():
    # on radii <= 1e-30, R = K - 1/z ~ z lies below the rounding of K ~ 1/z
    # at 50 digits, and G(K) rounds to z exactly: the error figure must
    # still cover the distance to the true k_2 = 1
    ray = NontangentialRay(beta="1e-30")
    samples = invert_g_on_ray(Measure.semicircle(0, 2), ray)
    est = estimate_taylor_on_ray(samples, 2)
    assert abs(est.coefficients[1] - 1) <= est.errors[1]
    for w, stab in zip(k_values(samples), samples.stability):
        assert stab >= abs(w) * mp.mpf(10) ** -49


@pytest.mark.parametrize(
    "mu",
    [
        Measure.semicircle(0, 2, mass=2),
        Measure.discrete([(0, "1/2")]),
        # a mass of about 6000 digits, more than the interpreter prints
        Measure.discrete([(0, F(1, 10**3000 + 7)), (1, F(1, 10**3000 + 9))]),
    ],
    ids=["mass-2-semicircle", "half-mass-atom", "unprintable-mass"],
)
def test_non_probability_measure_is_refused(mu):
    # at mass c, K(z) ~ c/z and K(z) - 1/z keeps the pole (c - 1)/z
    with pytest.raises(ValidationError, match="probability measure"):
        invert_g_on_ray(mu)
    with pytest.raises(ValidationError, match="probability measure"):
        verify_taylor_cumulants(mu, 3)


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
    for p in (11, 10**400):
        # 3 (p + 1) levels, more than the ray's 34, whatever it kept
        with pytest.raises(ValidationError, match="at most 10"):
            estimate_taylor_on_ray(samples, p)
    with pytest.raises(ValidationError, match="invert the ray with p=7"):
        estimate_taylor_on_ray(samples, 7)  # the ray read 7..27 only
    full = invert_g_on_ray(Measure.dirac(0), p=10)
    assert full.indices == tuple(range(7, 40))
    # level 39 dropped and level 40, which makes it up, dropped too: the
    # ray tried every level, so no order would do better
    tried = dataclasses.replace(
        full, dropped=(39, 40), **{field: getattr(full, field)[:-1] for field in POINT_FIELDS}
    )
    with pytest.raises(ValidationError) as refused:
        estimate_taylor_on_ray(tried, 10)
    assert "invert" not in str(refused.value)
    with pytest.raises(ValidationError):
        estimate_taylor_on_ray(samples, 0)
    # a ray inverted for order 2 keeps 9 levels, 7..15, too few for order 4
    low = invert_g_on_ray(Measure.dirac(0), p=2)
    assert low.indices == tuple(range(7, 16))
    with pytest.raises(ValidationError, match="invert the ray with p=4"):
        estimate_taylor_on_ray(low, 4)
    # the first 6 kept levels are 6 fit radii within a factor 32 of each other
    short = dataclasses.replace(
        samples, **{field: getattr(samples, field)[:6] for field in POINT_FIELDS}
    )
    with pytest.raises(ValidationError, match="two decades"):
        estimate_taylor_on_ray(short, 1)


def test_verify_refuses_an_order_past_the_ray_before_any_moment(monkeypatch):
    # order 200 of this semicircle took 20 s of exact moments and cumulants
    # before the fit refused it: 34 levels are too few above order 10.  The
    # ray refuses it before it evaluates G
    def refuse(*args, **kwargs):
        raise AssertionError("a moment was computed")

    monkeypatch.setattr(rays, "moments", refuse)
    calls = count_evaluations(monkeypatch)
    with pytest.raises(ValidationError, match="at most 10"):
        verify_taylor_cumulants(Measure.semicircle(F(1, 3), F(5, 7)), 200)
    assert calls == []


def test_estimate_metadata():
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    est = estimate_taylor_on_ray(samples, 4)
    assert len(samples.indices) == 21  # the fit reads every kept sample
    assert est.order == 4
    lo, hi = min(samples.radii), max(samples.radii)
    assert lo < hi <= mp.mpf(1) / 800
    assert est.condition > 1


@pytest.mark.parametrize("dps, p", [(10, 4), (15, 5), (20, 8), (25, 7)])
def test_singular_fit_raises_numeric_error(dps, p):
    # a fit degree, with the check fit's two more powers, that the working
    # precision cannot resolve
    samples = invert_g_on_ray(Measure.semicircle(0, 2), dps=dps, p=p)
    with pytest.raises(NumericError, match="numerically singular"):
        estimate_taylor_on_ray(samples, p)
    # the cached verdict raises again on the same key
    with pytest.raises(NumericError, match="numerically singular"):
        estimate_taylor_on_ray(samples, p)


def _svd_pseudo_inverse(a):
    """The rows of V Sigma^-1 U^T, the pseudo-inverse of a, and a's
    singular values."""
    u, sv, vt = mp.svd_r(a, full_matrices=False)
    # mpmath returns V^T: column m of it is row m of V
    rows = [
        [mp.fsum(vt[k, m] / sv[k] * u[i, k] for k in range(a.cols)) for i in range(a.rows)]
        for m in range(a.cols)
    ]
    return rows, sv


def _oracle_fit(samples, p):
    """The fit solved by the routes the production fit does not take: the
    tall Vandermonde matrix on the kept radii <= beta/100, rebuilt from the
    radii themselves, its SVD and mpmath's Householder least squares.
    Returns the Taylor coefficients b_0..b_(p-1), the condition number and
    the error figure's weights 2 |fit - check| + |fit| of the SVD
    pseudo-inverses of the fit and of the check fit."""
    cap = mp.mpf(samples.ray.beta.numerator) / samples.ray.beta.denominator / 100
    sel = [i for i, t in enumerate(samples.radii) if t <= cap]
    t_ref = samples.radii[sel[0]]
    cols = p + FIT_GUARD
    with mp.extradps(10):
        scaled = [samples.radii[i] / t_ref for i in sel]
        a = mp.matrix([[t**m for m in range(cols + rays.CHECK_DEGREES)] for t in scaled])
        fit, sv = _svd_pseudo_inverse(a[:, :cols])
        check, _ = _svd_pseudo_inverse(a)
        weights = [
            [2 * abs(f - c) + abs(f) for f, c in zip(fit_row, check_row)]
            for fit_row, check_row in zip(fit, check)
        ]
    b = mp.matrix([samples.r_values[i] for i in sel])
    x, _ = mp.qr_solve(a[:, :cols], b)
    d = samples.ray.direction()
    coefficients = [x[m] * d**-m * t_ref**-m for m in range(p)]
    return coefficients, max(sv) / min(sv), weights


def _assert_matches_oracle(samples, p):
    """The fit against `_oracle_fit`; returns both."""
    est = estimate_taylor_on_ray(samples, p)
    oracle = want, condition, _ = _oracle_fit(samples, p)
    assert abs(est.condition - condition) <= mp.mpf("1e-20") * condition
    for m in range(p):
        got = mp.mpc(est.coefficients[m], est.imag_parts[m])
        assert abs(got - want[m]) <= mp.mpf("1e-20") * max(1, abs(want[m]))
    return est, oracle


@pytest.mark.parametrize(
    "mu",
    [Measure.semicircle(0, 2), Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])],
    ids=["semicircle", "three-atom"],
)
def test_fit_agrees_with_svd_and_householder_oracles(mu):
    p = 4
    samples = invert_g_on_ray(mu)
    est, (_, _, want) = _assert_matches_oracle(samples, p)
    t_ref = max(samples.radii)
    sel = [i for i, t in enumerate(samples.radii) if t <= t_ref]
    assert len(sel) == len(samples.indices)
    # the cached weights, exact rows over a common denominator from one
    # elimination of the check fit's normal matrix, are those of the two
    # fits' SVD pseudo-inverses
    offsets = tuple(samples.indices[i] - samples.indices[sel[0]] for i in sel)
    _, _, weights, denominators, _ = rays._fit_maps(offsets, p - 1 + FIT_GUARD)
    assert len(weights) == len(denominators) == len(want) == p + FIT_GUARD
    for got_row, den, ref_row in zip(weights, denominators, want):
        assert len(got_row) == len(ref_row) == len(sel)
        for got, ref in zip(got_row, ref_row):
            assert abs(mp.mpf(got) / den - ref) <= mp.mpf("1e-20") * ref


def clear_fit_caches():
    rays._fit_maps.cache_clear()
    rays._fit_condition.cache_clear()


def test_fit_cache_keys_on_precision():
    # the exact maps hold at every precision, so rays at 30 and 50 digits
    # share them; the condition number and the singular verdict are per
    # precision
    mu = Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])
    at_30 = invert_g_on_ray(mu, dps=30)
    at_50 = invert_g_on_ray(mu, dps=50)
    assert at_30.indices == at_50.indices
    clear_fit_caches()
    fresh = estimate_taylor_on_ray(at_50, 4)
    clear_fit_caches()
    low = estimate_taylor_on_ray(at_30, 4)
    after_30 = estimate_taylor_on_ray(at_50, 4)
    assert after_30 == fresh
    assert rays._fit_maps.cache_info().misses == 1
    assert rays._fit_condition.cache_info().misses == 2
    # each condition number carries its own precision's dps + 10 digits
    assert low.condition != fresh.condition
    assert abs(low.condition - fresh.condition) <= mp.mpf("1e-38") * fresh.condition


def test_fit_with_a_dropped_level_matches_oracle():
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    gone = samples.indices.index(20)  # inside the fit range j >= 7
    keep = [i for i in range(len(samples.indices)) if i != gone]

    def without(field):
        return tuple(getattr(samples, field)[i] for i in keep)

    holed = dataclasses.replace(
        samples, dropped=(20,), **{field: without(field) for field in POINT_FIELDS}
    )
    _assert_matches_oracle(holed, 4)
    assert len(holed.indices) == 20


def test_fit_cache_is_shared_across_beta_and_direction():
    mu = Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])
    _assert_matches_oracle(invert_g_on_ray(mu), 4)
    misses = rays._fit_maps.cache_info().misses
    other = invert_g_on_ray(mu, NontangentialRay(beta=F(1, 5), tan_theta=F(1, 3)))
    assert other.dropped == ()
    _assert_matches_oracle(other, 4)
    assert rays._fit_maps.cache_info().misses == misses


def test_warm_fit_runs_no_factorisation(monkeypatch):
    estimate_taylor_on_ray(invert_g_on_ray(Measure.semicircle(0, 2)), 4)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm fit factorised a matrix")

    for name in ("qr", "inverse", "svd_r", "eigsy"):
        monkeypatch.setattr(mp, name, refuse)
    monkeypatch.setattr(rays, "_eliminate", refuse)
    samples = invert_g_on_ray(Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")]))
    est = estimate_taylor_on_ray(samples, 4)
    assert est.condition > 1


def test_cold_fit_factorises_once(monkeypatch):
    # the fit's normal matrix is the leading block of the check fit's, so
    # one elimination per (offsets, degree) gives both maps, at every
    # precision
    samples = invert_g_on_ray(Measure.semicircle(0, 2))
    other = invert_g_on_ray(Measure.semicircle(0, 2), dps=30)
    assert other.indices == samples.indices
    sizes = []
    eliminate = rays._eliminate

    def counting(gram, cols):
        sizes.append((len(gram), cols))
        return eliminate(gram, cols)

    monkeypatch.setattr(rays, "_eliminate", counting)
    clear_fit_caches()
    estimate_taylor_on_ray(samples, 4)
    estimate_taylor_on_ray(other, 4)
    assert sizes == [(4 + FIT_GUARD + rays.CHECK_DEGREES, 4 + FIT_GUARD)]


# ----------------------------------------------------- error figure coverage

# the presets of scripts/ray_recovery_demo.py
DEMO_PRESETS = {
    "semicircle": Measure.semicircle(0, 2),
    "marchenko-pastur": Measure.marchenko_pastur(2),
    "uniform": Measure.uniform(-1, 1),
    "two-atom": Measure.discrete([(-1, "1/2"), (1, "1/2")]),
}


def random_atomic_fits(seed, count, low, high):
    """`count` laws of 2-6 atoms on the 1/4 grid in [-8, 8], weights
    k / sum(k) with k in 1..9, drawn from Random(seed), as (law, ray samples
    at dps 50 inverted for the order p, order p in low..high)."""
    rng = random.Random(seed)
    fits = []
    for _ in range(count):
        atoms = rng.sample(range(-32, 33), rng.randint(2, 6))
        ks = [rng.randint(1, 9) for _ in atoms]
        p = rng.randint(low, high)
        mu = Measure.discrete([(F(a, 4), F(k, sum(ks))) for a, k in zip(atoms, ks)])
        fits.append((mu, invert_g_on_ray(mu, dps=50, p=p), p))
    return fits


@pytest.fixture(scope="module")
def random_law_fits():
    """60 random atomic laws (`random_atomic_fits`) at orders 4..6."""
    return random_atomic_fits(20261018, 60, 4, 6)


@pytest.fixture(scope="module")
def preset_samples():
    """The presets' ray samples at dps 50 by the order p = 1..10 the ray was
    inverted for: 3 (p + 1) levels, but at least 8."""
    return {
        p: [(mu, invert_g_on_ray(mu, dps=50, p=p)) for mu in DEMO_PRESETS.values()]
        for p in range(1, 11)
    }


FOUR_ATOMS = Measure.discrete(
    [(-6, F(1, 5)), (F(-5, 4), F(1, 4)), (F(-1, 2), F(3, 10)), (F(5, 2), F(1, 4))]
)


def figure_misses(fits):
    """(p, m, |fitted - exact| / figure) of each coefficient whose error
    figure misses its exact free cumulant, or which is flagged non-real,
    over (law, samples, p) triples."""
    misses = []
    for mu, samples, p in fits:
        est = estimate_taylor_on_ray(samples, p)
        exact = free_cumulants_from_moments(moments(mu, p)).values
        for m, (c, err, k) in enumerate(zip(est.coefficients, est.errors, exact)):
            off = abs(c - mp.mpf(k.numerator) / k.denominator)
            if off > err or est.nonreal[m]:
                misses.append((p, m, off / err))
    return misses


def test_error_figures_cover_random_atomic_laws(random_law_fits):
    assert sum(p for _, _, p in random_law_fits) == 307
    assert figure_misses(random_law_fits) == []


def test_error_figures_cover_random_atomic_laws_at_low_orders():
    # rays of 8, 9 and 12 levels, each fitted at the order it was inverted for
    fits = random_atomic_fits(20261020, 30, 1, 3)
    assert {p for _, _, p in fits} == {1, 2, 3}
    assert figure_misses(fits) == []


@pytest.mark.parametrize(
    "seed, count, low, high, coefficients",
    [(202, 40, 7, 8, 298), (203, 40, 9, 10, 376), (303, 120, 7, 10, 1022)],
    ids=["random-202-orders-7-8", "random-203-orders-9-10", "random-303-orders-7-10"],
)
def test_error_figures_cover_random_atomic_laws_above_order_6(
    seed, count, low, high, coefficients
):
    # rays of 24-33 levels, each fitted at the order it was inverted for;
    # with all 34 levels at every order above 6, 4 coefficients of the first
    # set missed their figures (worst 2.26-fold) and 3 of the last (3.79-fold)
    fits = random_atomic_fits(seed, count, low, high)
    assert sum(p for _, _, p in fits) == coefficients
    assert figure_misses(fits) == []


@pytest.mark.parametrize(
    "inverted_at, orders",
    [(6, range(2, 7)), (None, (9, 10)), (None, range(1, 9))],
    ids=["orders-2-6", "orders-9-10", "per-order"],
)
def test_error_figures_cover_the_demo_presets(preset_samples, inverted_at, orders):
    # "orders-2-6" fits on the default ray, which rtransform reports up to
    # order 6; the others fit each order on the ray inverted for it.  Orders
    # 9 and 10 need the check fit's 13 powers to resolve at dps 50
    fits = [(mu, s, p) for p in orders for mu, s in preset_samples[inverted_at or p]]
    assert figure_misses(fits) == []


@pytest.mark.parametrize(
    "mu, ray, inverted_at, orders",
    [
        # b_0 sits at the rounding floor of the stability figure, about 3e-37
        (Measure.dirac(3), RAYS["tilted"], 6, range(2, 7)),
        # each order on the ray inverted for it; b_0 at order 10 reads level
        # 39, where |K| 10^(1-dps) is about 3e-37, and missed its figure
        # 1.27-fold while the stability figures entered it only through
        # their largest one
        (Measure.dirac(3), RAYS["tilted"], None, range(7, 11)),
        # fitted on all 34 levels, b_3 misses its figure 1.6-fold
        (Measure.uniform(F(11, 4), F(13, 4)), NontangentialRay(), 6, (4,)),
        # on all 34 levels b_5 missed its figure 7.57-fold
        (FOUR_ATOMS, NontangentialRay(), None, (7,)),
        # and b_3 of this law 1.51-fold
        (
            Measure.discrete(
                [(F(-7, 2), F(7, 34)), (0, F(7, 34)), (F(13, 4), F(1, 17)),
                 (4, F(9, 34)), (F(25, 4), F(5, 34)), (7, F(2, 17))]
            ),
            NontangentialRay(),
            None,
            (7, 8),
        ),
    ],
    ids=[
        "dirac-tilted-ray",
        "dirac-tilted-ray-orders-7-10",
        "uniform-window-order-4",
        "four-atom-order-7",
        "six-atom-orders-7-8",
    ],
)
def test_error_figures_cover_hard_cases(mu, ray, inverted_at, orders):
    # inverted_at None inverts each order's own ray
    fits = [(mu, invert_g_on_ray(mu, ray, dps=50, p=inverted_at or p), p) for p in orders]
    assert figure_misses(fits) == []


def mutated_fit_maps(monkeypatch, mutate):
    """Patch the fit's cached maps with mutate(fit, check, weights,
    denominators), which returns the four the error figure reads instead:
    int rows over a common denominator per row."""
    fit_maps = rays._fit_maps

    def mutated(offsets, degree):
        *maps, minors = fit_maps(offsets, degree)
        return (*mutate(*maps), minors)

    monkeypatch.setattr(rays, "_fit_maps", mutated)


def test_weights_without_the_check_gap_miss(monkeypatch, preset_samples):
    # the gap of the check fit, read on noisy R values, carries noise of its
    # own: the check fit's wider pseudo-inverse turns stability figures of at
    # most 2e-39 into about 1e-13 on b_5 of the two-atom preset at order 7,
    # where the fit itself takes 3e-16.  Weights |fit| alone leave b_5 at
    # 1.32 times its figure
    two_atom = DEMO_PRESETS["two-atom"]
    fits = [(mu, s, 7) for mu, s in preset_samples[7] if mu == two_atom]
    assert figure_misses(fits) == []

    def fit_alone(fit, check, weights, denominators):
        return fit, check, tuple(tuple(abs(f) for f in row) for row in fit), denominators

    mutated_fit_maps(monkeypatch, fit_alone)
    assert [(p, m) for p, m, _ in figure_misses(fits)] == [(7, 5)]


def test_a_halved_check_gap_misses(monkeypatch):
    # the fit's error is mostly the gap itself, as the check fit reproduces
    # the two omitted powers that dominate it: a factor 1 in place of 2, in
    # the gap and in the weights, misses only where the later powers add to
    # it.  Near R's radius of convergence they add most; the widest margin a
    # search over some 9000 rays found is this one, 1.8 %
    mu = Measure.discrete([(-1, F(1, 3)), (2, F(2, 3))])
    fits = [(mu, invert_g_on_ray(mu, NontangentialRay(beta=80), dps=50, p=6), 6)]
    assert figure_misses(fits) == []

    def halved(fit, check, weights, denominators):
        # check' = (fit + check) / 2 halves every fit - check: over twice
        # the denominators, fit' = 2 fit and check' = fit + check
        check = tuple(
            tuple(f + c for f, c in zip(fit_row, check_row))
            for fit_row, check_row in zip(fit, check)
        )
        fit = tuple(tuple(2 * f for f in row) for row in fit)
        return fit, check, tuple(
            tuple(2 * abs(f - c) + abs(f) for f, c in zip(fit_row, check_row))
            for fit_row, check_row in zip(fit, check)
        ), tuple(2 * den for den in denominators)

    mutated_fit_maps(monkeypatch, halved)
    misses = figure_misses(fits)
    assert [(p, m) for p, m, _ in misses] == [(6, 5)]
    assert misses[0][2] > 1.015


def test_a_check_fit_one_power_wider_is_blind_to_two_powers(monkeypatch):
    # with one power d + 1 past the fit's degree d, the check fit's gap on
    # b_0 vanishes on R = s^(d+1) + c s^(d+2), s the radius over the
    # largest, for one c: the fit misses b_0 = 0 by c times what the check
    # fit makes of s^(d+2), and the figure holds only the tiny noise term.
    # The check fit's second power reproduces both.  No law has shown this:
    # every coverage set here and some 9000 rays of random and scanned laws
    # at orders 2-10 kept their figures with one power
    p, degree = 4, 4 - 1 + FIT_GUARD
    samples = invert_g_on_ray(Measure.dirac(0), p=p)
    offsets = tuple(j - samples.indices[0] for j in samples.indices)
    powers = {k: [mp.ldexp(1, -o * k) for o in offsets] for k in (degree + 1, degree + 2)}
    clear_fit_caches()  # their keys do not hold CHECK_DEGREES
    with monkeypatch.context() as patch:
        patch.setattr(rays, "CHECK_DEGREES", 1)
        # rows over one denominator, which cancels in c
        fit, check = rays._fit_maps(offsets, degree)[:2]
        c = -mp.fdot(fit[0], powers[degree + 1]) / (
            mp.fdot(fit[0], powers[degree + 2]) - mp.fdot(check[0], powers[degree + 2])
        )
        blind = dataclasses.replace(
            samples,
            r_values=tuple(a + c * b for a, b in zip(powers[degree + 1], powers[degree + 2])),
        )
        one_wider = estimate_taylor_on_ray(blind, p)
        clear_fit_caches()
    est = estimate_taylor_on_ray(blind, p)
    assert one_wider.coefficients[0] == est.coefficients[0] != 0
    assert abs(one_wider.coefficients[0]) > 10**20 * one_wider.errors[0]
    assert abs(est.coefficients[0]) <= est.errors[0]


# --------------------------------------- the fit against exact least squares


@functools.lru_cache(maxsize=None)
def exact_fit_rows(offsets, degree):
    """The exact pseudo-inverses of the fit and of the check fit
    (`oracles.least_squares_rows`)."""
    return (
        least_squares_rows(offsets, degree + 1),
        least_squares_rows(offsets, degree + 1 + rays.CHECK_DEGREES),
    )


def dyadic(x) -> Fraction:
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def at_most_root(c, t, s) -> bool:
    """c <= t / sqrt(s), s > 0, exactly."""
    if t >= 0:
        return c <= 0 or c * c * s <= t * t
    return c < 0 and c * c * s >= t * t


def exact_fit_misses(fits):
    """(kind, detail) of each output of `rays.estimate_taylor_on_ray` that
    misses the exact least squares on the samples' own R values and
    stability figures, over (samples, p) pairs: "coefficient" for a
    coefficient more than one unit in the last place of |b_m|, at the
    working precision, off the exact fit's b_m = x_fit[m] d^-m t_ref^-m,
    "error" for an error figure below the exact (2 |x_fit[m] - x_check[m]|
    + sum_i w[m, i] stab_i) |t_ref^-m|.  With tan theta = a / c, d^-m =
    (a + ic)^m / (a^2 + c^2)^(m/2); every comparison is exact."""
    misses = []
    for samples, p in fits:
        est = rays.estimate_taylor_on_ray(samples, p)
        j0 = samples.indices[0]
        fit, check = exact_fit_rows(tuple(j - j0 for j in samples.indices), p - 1 + FIT_GUARD)
        values = [(dyadic(r.real), dyadic(r.imag)) for r in samples.r_values]
        stability = [dyadic(s) for s in samples.stability]
        a, c = samples.ray.tan_theta.numerator, samples.ray.tan_theta.denominator
        prec = mp.libmp.dps_to_prec(samples.dps)
        zr, zi = 1, 0  # (a + ic)^m
        for m in range(p):
            where = f"p = {p}, b_{m}, tan theta = {samples.ray.tan_theta}"
            xf = [sum(f * v[k] for f, v in zip(fit[m], values)) for k in (0, 1)]
            xc = [sum(f * v[k] for f, v in zip(check[m], values)) for k in (0, 1)]
            size = Fraction(2 ** (m * j0)) / samples.ray.beta**m  # |t_ref^-m|
            # Re b_m = t / sqrt(root)
            t = (xf[0] * zr - xf[1] * zi) * size / (a * a + c * c) ** (m // 2)
            root = a * a + c * c if m % 2 else 1
            modulus2 = (xf[0] ** 2 + xf[1] ** 2) * size**2  # |b_m|^2
            unit = 0
            if modulus2:
                k = modulus2.numerator.bit_length() - modulus2.denominator.bit_length()
                k -= modulus2 < Fraction(2) ** k  # 2^k <= |b_m|^2 < 2^(k + 1)
                unit = Fraction(2) ** (k // 2 + 1 - prec)
            got = dyadic(est.coefficients[m])
            if not (at_most_root(got - unit, t, root) and at_most_root(-got - unit, -t, root)):
                misses.append(("coefficient", where))
            zr, zi = zr * a - zi * c, zr * c + zi * a
            if not mp.isfinite(est.errors[m]):
                continue
            noise = sum(
                (2 * abs(f - g) + abs(f)) * s for f, g, s in zip(fit[m], check[m], stability)
            )
            left = dyadic(est.errors[m]) / size - noise  # must be >= 2 |x_fit - x_check|
            if left < 0 or left * left < 4 * ((xf[0] - xc[0]) ** 2 + (xf[1] - xc[1]) ** 2):
                misses.append(("error", where))
    return misses


@pytest.fixture(scope="module")
def exact_fit_cases(preset_samples):
    """The presets' rays at orders 4 and 10, and two laws on the tilted ray
    and on one of tan theta = 1/3, whose d^-m is irrational at odd m, at
    orders 4 and 7: (samples, p) pairs."""
    cases = [(s, p) for p in (4, 10) for _, s in preset_samples[p]]
    rays_ = (RAYS["tilted"], NontangentialRay(beta=F(1, 5), tan_theta=F(1, 3)))
    laws = (Measure.semicircle(0, 2), Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")]))
    cases += [(invert_g_on_ray(mu, ray, p=p), p) for ray in rays_ for mu in laws for p in (4, 7)]
    return cases


def test_fit_is_within_a_unit_of_the_exact_least_squares(exact_fit_cases):
    assert exact_fit_misses(exact_fit_cases) == []


def fit_mutant(name: str, old: str, new: str):
    """`rays.<name>` compiled from the module's source with `old` replaced
    by `new`, which must occur once."""
    source = inspect.getsource(rays)
    assert source.count(old) == 1, old
    namespace = {"__name__": rays.__name__, "__package__": "freemoments"}
    exec(compile(source.replace(old, new), rays.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "name, old, new, kinds",
    [
        # the error figure rounded down: below the exact figure by up to a
        # unit, as the gap's square root rounded up adds far less
        ("estimate_taylor_on_ray", "prec, round_ceiling)", "prec, mp.libmp.round_floor)", {"error"}),
        # the samples whose exponent sets the common scale shifted one bit
        # too far: each such R value doubled
        ("_dyadic_ints", "<< exp - low if man", "<< (exp - low or 1) if man", {"coefficient"}),
    ],
    ids=["error-rounded-down", "common-scale-shift-off-by-one"],
)
def test_fit_mutants_break_the_exact_least_squares(monkeypatch, exact_fit_cases, name, old, new, kinds):
    monkeypatch.setattr(rays, name, fit_mutant(name, old, new))
    misses = exact_fit_misses(exact_fit_cases)
    assert misses and {kind for kind, _ in misses} == kinds


def test_ray_work_estimate_accepts_every_working_precision():
    # the default, the battery's 30 and 50 digits and every precision the
    # tests, the demos and the benchmark use fit the budget; 100000 digits,
    # which ran past 20 s on a one-atom law, does not
    import inspect

    default = inspect.signature(invert_g_on_ray).parameters["dps"].default
    for dps in (default, 1, 15, 30, 50, 60, 80, 3000):
        assert _ray_work(dps) <= _RAY_BUDGET
    assert _ray_work(100_000) > _RAY_BUDGET
    # two evaluations per sampled level, each growing like dps^2
    levels = NontangentialRay.levels - NontangentialRay.first_level
    assert _ray_work(50) == 2 * levels * 50**2
    assert _ray_work(6400) == 4 * _ray_work(3200)


def atomic_law(n: int, seed: int = 5):
    """n atoms on the 1/4 grid in [-2n, 2n] (at least [-8, 8]), weights
    k / sum(k) with k in 1..9."""
    rng = random.Random(seed)
    reach = max(32, 8 * n)
    atoms = rng.sample(range(-reach, reach + 1), n)
    ks = [rng.randint(1, 9) for _ in atoms]
    return Measure.discrete([(F(a, 4), F(k, sum(ks))) for a, k in zip(atoms, ks)])


def test_ray_work_counts_the_atoms_and_their_heights(monkeypatch):
    # at 3200 digits and order 4 the earlier code took 1.57 s on 10 atoms
    # and 4.96 s on 40, about 0.11 s per atom: a 1000-atom law would run
    # for about 2 minutes, and a precision alone did not refuse it.  Judged
    # by the estimate alone, never run
    assert _ray_work(50, atomic_law(6)) < _RAY_BUDGET // 1000
    admitted = [(atomic_law(n), 50) for n in range(2, 7)] + [
        (Measure.discrete([(-1, "1/2"), (1, "1/2")]), 400),  # the CI demo's preset
        (atomic_law(6), 3200),
        (atomic_law(40), 3200),
        (atomic_law(1000), 50),
    ]
    for mu, dps in admitted:
        assert _ray_work(dps, mu) <= _RAY_BUDGET
    assert _ray_work(3200, atomic_law(1000)) > _RAY_BUDGET
    # each term counts (max(dps, 200) + h/3)^2 / 48, h its bits: more atoms,
    # wider atoms and more digits each cost more
    levels = 2 * (NontangentialRay.levels - NontangentialRay.first_level)
    assert _ray_work(3200, Measure.discrete([(F(k, 4), F(1, 50)) for k in range(50)])) > _RAY_BUDGET
    assert _ray_work(400, atomic_law(100)) > _ray_work(400, atomic_law(50)) > _ray_work(400)
    # one small atom costs dps^2 per evaluation, as any law
    assert _ray_work(10**5, Measure.dirac(F(3, 4))) == levels * 10**10
    # an atom of 3000-digit numbers costs what about 6600 digits do, one of
    # 30000-digit numbers more than the budget
    for digits, admitted in ((3000, True), (30000, False)):
        wide = F(10**digits + 1, 10**digits)
        for mu in (Measure.dirac(wide), Measure.cauchy(wide)):
            assert (_ray_work(50, mu) <= _RAY_BUDGET) == admitted
    calls = count_evaluations(monkeypatch)
    with pytest.raises(BudgetError, match="the number of atoms"):
        invert_g_on_ray(atomic_law(1000), dps=3200)
    assert calls == []


def test_ray_work_counts_the_heights_of_a_square_root_law():
    # a semicircle's or Marchenko-Pastur law's ints carry its constants'
    # bits: at 50 digits, order 10, a semicircle of center 1/3 + 10^-D and
    # radius 2 + 10^-D took 0.05 s at D = 3000 and 1.4 s at D = 30000,
    # which the estimate counted as dps^2 whatever D.  Judged by the
    # estimate alone, never run
    def wide(base, digits):
        return base + F(1, 10**digits)

    for mu in (Measure.semicircle(0, 2), Measure.marchenko_pastur(2)):
        # the CI demo's presets at the most digits the budget admits
        assert _ray_work(3200, mu) == _ray_work(3200) <= _RAY_BUDGET
    for digits, admitted in ((3000, True), (10_000, True), (100_000, False)):
        for mu in (
            Measure.semicircle(wide(F(1, 3), digits), wide(2, digits)),
            Measure.marchenko_pastur(wide(2, digits)),
        ):
            assert _ray_work(50, mu) > _ray_work(50)
            assert (_ray_work(50, mu) <= _RAY_BUDGET) == admitted
    # a wider constant costs more, and at 3200 digits a rate of 4000-digit
    # parts, which took 1.6 s at order 4, counts as dps^2 still
    mp_wide = Measure.marchenko_pastur(wide(2, 4000))
    assert _ray_work(50, Measure.marchenko_pastur(wide(2, 8000))) > _ray_work(50, mp_wide)
    assert _ray_work(3200, mp_wide) == _ray_work(3200)
    with pytest.raises(BudgetError, match="digit products"):
        invert_g_on_ray(Measure.semicircle(0, wide(2, 100_000)))


def test_ray_work_counts_the_heights_of_a_uniform_law(monkeypatch):
    # the uniform law's int form carries its ends' and mass's bits: at 50
    # digits, order 10, the window [-1/3 + 10^-D, 2 + 10^-D] took 0.04 s at
    # D = 3000, 0.25 s at 10^4 and 1.3 s at 3 10^4, where its mpmath form,
    # which converted the ends once per ray, took 0.03 s.  Judged by the
    # estimate alone, never run
    def wide(base, digits):
        return base + F(1, 10**digits)

    # the CI demo's preset at the most digits the budget admits
    assert _ray_work(3200, Measure.uniform(-1, 1)) == _ray_work(3200) <= _RAY_BUDGET
    for digits, admitted in ((3000, True), (10_000, True), (30_000, True), (100_000, False)):
        mu = Measure.uniform(wide(F(-1, 3), digits), wide(2, digits))
        assert _ray_work(50, mu) > _ray_work(50)
        assert (_ray_work(50, mu) <= _RAY_BUDGET) == admitted
    # a wider end costs more, and so does a mass of many digits
    assert _ray_work(50, Measure.uniform(-1, wide(2, 8000))) > _ray_work(50, Measure.uniform(-1, wide(2, 4000)))
    assert _ray_work(50, Measure.uniform(-1, 1, mass=wide(0, 8000))) > _ray_work(50)
    calls = count_evaluations(monkeypatch)
    with pytest.raises(BudgetError, match="digit products"):
        invert_g_on_ray(Measure.uniform(-1, wide(2, 100_000)))
    assert calls == []


@pytest.mark.parametrize("dps", [100_000, 10**400], ids=["1e5", "1e400"])
def test_precision_past_the_budget_is_refused_before_any_evaluation(dps):
    calls = []

    def g(w):
        calls.append(w)
        return 1 / w

    with pytest.raises(BudgetError):
        invert_g_on_ray((g, lambda w: -1 / w**2), dps=dps)
    with pytest.raises(BudgetError):
        verify_taylor_cumulants(Measure.discrete([(0, 1)]), 2, dps=dps)
    assert calls == []
