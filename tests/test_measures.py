"""Measures: exact moments, Cauchy transforms, JSON."""

import inspect
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import measures, rays
from freemoments.cumulants import CumulantSequence, moments_from_free_cumulants
from freemoments.errors import (
    DomainError,
    MomentDoesNotExistError,
    ValidationError,
)
from freemoments.measures import (
    Measure,
    absolute_moments,
    cauchy_transform,
    cauchy_transform_derivative,
    measure_from_json,
    measure_to_json,
    moments,
)

from oracles import (
    cauchy_exact,
    cauchy_log_law,
    cauchy_quad,
    cauchy_sqrt_law,
    density_integral,
    numeric_moment,
)

F = Fraction


@pytest.fixture(autouse=True)
def _enough_digits():
    # reference values below are computed inline; keep them well above the
    # precision the library itself is asked for
    with mp.workdps(40):
        yield


# ---------------------------------------------------------------- validation


def test_discrete_sorted_and_mass():
    mu = Measure.discrete([(2, "1/3"), (-1, F(2, 3))])
    assert mu.atoms == ((F(-1), F(2, 3)), (F(2), F(1, 3)))
    assert mu.mass == 1


def test_discrete_rejects_duplicates_and_bad_weights():
    with pytest.raises(ValidationError):
        Measure.discrete([(1, 1), (1, 2)])
    with pytest.raises(ValidationError):
        Measure.discrete([(0, 0)])
    with pytest.raises(ValidationError):
        Measure.discrete([(0, -1)])


def test_floats_rejected_everywhere():
    with pytest.raises(ValidationError):
        Measure.discrete([(0.5, 1)])
    with pytest.raises(ValidationError):
        Measure.semicircle(center=0.0, radius=2)
    with pytest.raises(ValidationError):
        Measure.semicircle(mass=1.5)


def test_density_param_validation():
    with pytest.raises(ValidationError):
        Measure(kind="density", density="gaussian", params=(("s", 1),))
    with pytest.raises(ValidationError):
        Measure.semicircle(radius=0)
    with pytest.raises(ValidationError):
        Measure.marchenko_pastur(rate="1/2")
    with pytest.raises(ValidationError):
        Measure.uniform(1, 1)
    with pytest.raises(ValidationError):
        Measure.cauchy(scale=0)
    with pytest.raises(ValidationError):
        Measure(kind="blob")


def test_support_radius():
    assert Measure.semicircle(1, 2).support_radius() == 3
    assert Measure.uniform(-3, 1).support_radius() == 3
    assert Measure.cauchy().support_radius() is None
    assert Measure.discrete([(-5, 1), (2, 1)]).support_radius() == 5
    r = Measure.marchenko_pastur(1).support_radius()
    assert abs(r - 4) < mp.mpf(10) ** -20


def test_support_radius_follows_the_working_precision():
    # the Marchenko-Pastur edge is irrational: a radius computed at a fixed
    # 30 digits would be off by ~1e-30 here
    with mp.workdps(60):
        r = Measure.marchenko_pastur(2).support_radius()
        assert abs(r - (1 + mp.sqrt(2)) ** 2) < mp.mpf(10) ** -55


def test_scaled():
    mu = Measure.semicircle(0, 2).scaled(3)
    assert mu.mass == 3
    assert moments(mu, 2)[2] == 3
    nu = Measure.dirac(2).scaled("1/2")
    assert nu.atoms == ((F(2), F(1, 2)),)
    with pytest.raises(ValidationError):
        mu.scaled(0)


# ------------------------------------------------------------------- moments


def test_semicircle_moments_are_catalan():
    m = moments(Measure.semicircle(0, 2), 8)
    assert m.values == (0, 1, 0, 2, 0, 5, 0, 14)


def test_mp_moments_rate_one_are_catalan():
    m = moments(Measure.marchenko_pastur(1), 6)
    assert m.values == (1, 2, 5, 14, 42, 132)


def test_mp_moments_rate_two():
    assert moments(Measure.marchenko_pastur(2), 3).values == (2, 6, 22)


def test_mp_moments_match_constant_free_cumulants():
    # this law is the one whose free cumulants are all equal to the rate
    for rate in (F(1), F(2), F(7, 4)):
        k = CumulantSequence((rate,) * 8, kind="free")
        assert moments(Measure.marchenko_pastur(rate), 8) == moments_from_free_cumulants(k)


def test_semicircle_matches_quadratic_free_cumulants():
    k = CumulantSequence((F(1), F(9, 4), 0, 0, 0, 0), kind="free")
    assert moments(Measure.semicircle(1, 3), 6) == moments_from_free_cumulants(k)


def test_uniform_moments():
    m = moments(Measure.uniform(0, 1), 4)
    assert m.values == (F(1, 2), F(1, 3), F(1, 4), F(1, 5))


def test_discrete_moments():
    m = moments(Measure.discrete([(-1, "1/2"), (1, "1/2")]), 4)
    assert m.values == (0, 1, 0, 1)


def test_cauchy_moments_do_not_exist():
    # no moment of order >= 1 exists, and the empty prefix of order 0 does
    for f in (moments, absolute_moments):
        with pytest.raises(MomentDoesNotExistError):
            f(Measure.cauchy(), 1)
    assert moments(Measure.cauchy(), 0).values == ()
    assert absolute_moments(Measure.cauchy(), 0) == ()


@pytest.mark.parametrize(
    "mu",
    [
        Measure.semicircle(0, 2),
        Measure.semicircle(-1, "3/2"),
        Measure.marchenko_pastur(1),
        Measure.marchenko_pastur("5/2"),
        Measure.uniform("-1/2", 3),
    ],
    ids=["sc", "sc-shift", "mp1", "mp52", "unif"],
)
def test_closed_moments_match_quadrature(mu):
    exact = moments(mu, 8)
    for k in range(1, 9):
        num = numeric_moment(mu, k, dps=30)
        target = mp.mpf(exact[k].numerator) / exact[k].denominator
        assert abs(num - target) <= 1e-10 * (1 + abs(target))


@pytest.mark.parametrize(
    "mu, pieces",
    [
        (Measure.uniform("1/2", 3), [Measure.uniform("1/2", 3)]),
        (Measure.uniform(-3, "-1/2"), [Measure.uniform(-3, "-1/2")]),
        # |x| has a kink at 0, so the oracle integrates each side on its own
        (
            Measure.uniform(-3, 1),
            [Measure.uniform(-3, 0, "3/4"), Measure.uniform(0, 1, "1/4")],
        ),
        (Measure.semicircle(-3, 2), [Measure.semicircle(-3, 2)]),
    ],
    ids=["unif-right", "unif-left", "unif-straddle", "sc-left"],
)
def test_absolute_moments_match_quadrature(mu, pieces):
    exact = absolute_moments(mu, 6)
    for k, value in enumerate(exact, start=1):
        num = sum(
            density_integral(piece, lambda x: abs(x) ** k, dps=25)
            for piece in pieces
        )
        target = mp.mpf(value.numerator) / value.denominator
        assert abs(num - target) <= mp.mpf(10) ** -25 * (1 + abs(target))


# ---------------------------------------------------------- Cauchy transform


def close(a, b, tol):
    return abs(a - b) <= tol


def test_dirac_transform():
    g = cauchy_transform(Measure.dirac(0), 1j)
    assert close(g, mp.mpc(0, -1), 1e-25)


def test_cauchy_density_transform():
    # 1/(z + i*scale) up to centering
    mu = Measure.cauchy(0, 1)
    for y in (1, 2, 10):
        g = cauchy_transform(mu, mp.mpc(0, y))
        assert close(g, mp.mpc(0, -1) / (y + 1), 1e-25)
    g = cauchy_transform(Measure.cauchy(2, "1/2"), mp.mpc(1, 1))
    assert close(g, 1 / mp.mpc(-1, mp.mpf(3) / 2), 1e-25)


def test_semicircle_transform_pinned():
    mu = Measure.semicircle(0, 2)
    g = cauchy_transform(mu, mp.mpc(0, 2), dps=30)
    assert close(g, mp.mpc(0, 1) * (1 - mp.sqrt(2)), 1e-12)
    g3 = cauchy_transform(mu, 3, dps=30)
    assert close(g3, (3 - mp.sqrt(5)) / 2, 1e-25)
    assert abs(g3.imag) == 0


def test_semicircle_transform_vs_quadrature():
    # closed form against direct integration of the density
    mu = Measure.semicircle("1/2", 3, mass="2/3")
    for z in (mp.mpc(0, 1), mp.mpc(2, 0.25), mp.mpc(-4, 5), mp.mpc(7, 0)):
        closed = cauchy_transform(mu, z, dps=30)
        with mp.workdps(45):
            r = mp.mpf(3)
            c = mp.mpf(1) / 2

            def f(theta):
                x = c + r * mp.sin(theta)
                return 2 / mp.pi * mp.cos(theta) ** 2 / (z - x)

            direct = mp.mpf(2) / 3 * mp.quad(f, [-mp.pi / 2, mp.pi / 2])
        assert close(closed, direct, 1e-25)


def test_mp_transform_vs_quadrature_oracle():
    # the production closed form against certified quadrature of the density
    for rate in (F(1), F(2), F(5, 2)):
        mu = Measure.marchenko_pastur(rate)
        b = mu.support_radius()
        for z in (mp.mpc(2, 1), mp.mpc(-1, 0.5), mp.mpc(0, 3), mp.mpc(b + 2, 0.5)):
            want = cauchy_quad(mu, z, 30)
            assert close(cauchy_transform(mu, z, dps=30), want, 1e-20)


def test_uniform_transform_vs_quadrature_oracle():
    # the production closed form against certified quadrature of the density
    mu = Measure.uniform(-1, 2)
    for z in (mp.mpc(0, 1), mp.mpc(3, 2), mp.mpc(-5, 0.5)):
        want = cauchy_quad(mu, z, 30)
        assert close(cauchy_transform(mu, z, dps=30), want, 1e-20)


# Marchenko-Pastur at the hard-edge rate 1 and above; uniform across 0 and
# to one side of it
CLOSED_FORM_SHAPES = [
    Measure.marchenko_pastur(1),
    Measure.marchenko_pastur("3/2"),
    Measure.marchenko_pastur("5/2", mass="2/3"),
    Measure.uniform(-1, 2),
    Measure.uniform("1/2", 3, mass=3),
]
CLOSED_FORM_IDS = ["mp1", "mp32", "mp52", "unif-across-0", "unif-right"]
TRANSFORMS = (cauchy_transform, cauchy_transform_derivative)


# every compact shape: the ones above, the semicircle and atoms
COMPACT_SHAPES = CLOSED_FORM_SHAPES + [
    Measure.semicircle("1/2", 3, mass="2/3"),
    Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")]),
]
COMPACT_IDS = CLOSED_FORM_IDS + ["semicircle", "three-atom"]


@pytest.mark.parametrize("mu", COMPACT_SHAPES, ids=COMPACT_IDS)
def test_closed_form_reflection_outside_support(mu):
    # a compact closed form is G itself off the support's hull, below the
    # axis too: it meets G(conj z) = conj G(z) bit for bit, and quadrature,
    # which knows no branch, pins a density's values there
    r = mu.support_radius()
    tiny = mp.mpf(10) ** -30
    below = (mp.mpc(r + 1, -1), mp.mpc(-r - 0.5, -2), mp.mpc(0, -r - 1),
             mp.mpc(r + 0.5, -tiny), mp.mpc(-r - 0.5, -tiny))
    for z in below:
        for transform in TRANSFORMS:
            assert transform(mu, z) == mp.conj(transform(mu, mp.conj(z)))
        if mu.kind == "density":
            assert close(cauchy_transform(mu, z), cauchy_quad(mu, z, 30), 1e-20)


@pytest.mark.parametrize("mu", CLOSED_FORM_SHAPES, ids=CLOSED_FORM_IDS)
def test_closed_form_real_outside_support(mu):
    r = mu.support_radius()
    big = mp.mpf(10) ** 12
    for x in (r + mp.mpf(1) / 1000, r + 1, -r - 1, big, -big):
        g = cauchy_transform(mu, x)
        assert g.imag == 0 and (g.real > 0) == (x > 0)
        assert cauchy_transform_derivative(mu, x).imag == 0


@pytest.mark.parametrize("mu", CLOSED_FORM_SHAPES, ids=CLOSED_FORM_IDS)
def test_closed_form_has_no_cancellation_at_large_z(mu):
    # z G(z) = sum_k m_k z^-k with m_0 the mass; at |z| = 1e12 the truncation
    # after m_3 is far below 10^(5 - dps), while the textbook forms
    # (z + 1 - rate - s) / (2z) and log((z - a) / (z - b)) lose 12 digits
    dps = 30
    z = mp.mpc(0, mp.mpf(10) ** 12)
    m = (mu.mass,) + moments(mu, 3).values
    with mp.workdps(60):
        g_series = sum(mp.mpf(v.numerator) / v.denominator / z**k for k, v in enumerate(m))
        dg_series = sum(
            (k + 1) * mp.mpf(v.numerator) / v.denominator / z**k for k, v in enumerate(m)
        )
    tol = mp.mpf(10) ** (5 - dps) * mu.mass.numerator / mu.mass.denominator
    assert abs(z * cauchy_transform(mu, z, dps=dps) - g_series) <= tol
    assert abs(-(z**2) * cauchy_transform_derivative(mu, z, dps=dps) - dg_series) <= tol


def _exact_parts(z):
    """The real and imaginary parts of an mpc as the Fractions they are."""
    return [Fraction(man * (-1) ** sign) * Fraction(2) ** exp if man else Fraction(0)
            for sign, man, exp, _ in (z.real._mpf_, z.imag._mpf_)]


# each compact shape at 10^-28, 10^-100 and 10^-1000 from its singular
# point; the 10^-28 cases are named by the shape alone
NEAR_DIGITS = (28, 100, 1000)
NEAR_CASES = [(mu, digits) for digits in NEAR_DIGITS for mu in COMPACT_SHAPES]
NEAR_IDS = [name if digits == 28 else f"{name}-1e-{digits}" for digits in NEAR_DIGITS for name in COMPACT_IDS]


@pytest.mark.parametrize("mu, digits", NEAR_CASES, ids=NEAR_IDS)
def test_transform_keeps_a_point_near_its_singular_point(mu, digits):
    # z = t + 10^-digits i above the right end, edge or atom t of the
    # support, where G' grows like 1 / (z - t): rounded to the fixed point
    # of |z| at 15 digits, 2^-(prec + 20) |z| ~ 1e-22, z would move far past
    # its distance to t.  It goes in exactly, at a point scale of its own,
    # and G and G' keep 13 digits of the oracle's values at that very point
    with mp.workdps(15):
        z = mp.mpc(mu.support_radius(), mp.mpf(10) ** -digits)
        got = cauchy_transform(mu, z, dps=15), cauchy_transform_derivative(mu, z, dps=15)
    re, im = _exact_parts(z)
    prec = 600 + 4 * digits
    if mu.kind == "discrete":
        want = [measures._to_mpf(v) for v in cauchy_exact(mu, re, im)]
    else:
        oracle = cauchy_log_law if mu.density == "uniform" else cauchy_sqrt_law
        want = oracle(mu, re, im, prec)
    with mp.workprec(prec):
        for g, (w_re, w_im) in zip(got, (want[:2], want[2:])):
            w = mp.mpc(w_re, w_im)
            assert abs(g - w) <= abs(w) * mp.mpf(10) ** -13


def test_transform_rounds_a_point_past_the_point_bits(monkeypatch):
    # above the end 1 of uniform(-1, 1), G = (log 2 - log(10^-d i)) / 2
    # reads 115.47583 - 0.78539816i at d = 100 and 1151.6391 - 0.78539816i
    # at d = 1000; a point more than _POINT_BITS finer than the level's
    # scale goes in rounded, its imaginary part away from 0, so every
    # nearer point takes the value of one point on its own side of the axis
    mu = Measure.uniform(-1, 1)
    for digits in (100, 1000):
        with mp.workdps(15):
            got = cauchy_transform(mu, mp.mpc(1, mp.mpf(10) ** -digits), dps=15)
        want = mp.mpc((mp.log(2) + digits * mp.log(10)) / 2, -mp.pi / 4)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -13
    monkeypatch.setattr(measures, "_POINT_BITS", 64)
    with mp.workdps(15):
        above, below = (
            [cauchy_transform(mu, mp.mpc(1, sign * mp.mpf(10) ** -digits), dps=15) for digits in (100, 1000)]
            for sign in (1, -1)
        )
    assert above[0] == above[1] == mp.conj(below[0]) == mp.conj(below[1])


def test_mp_rate_one_near_the_hard_edge():
    # the density blows up like x^(-1/2) at 0, so G is large but finite near 0
    mu = Measure.marchenko_pastur(1)
    z = mp.mpc(0, mp.mpf(10) ** -6)
    g = cauchy_transform(mu, z)
    assert mp.isfinite(g) and g.imag < 0
    assert mp.isfinite(cauchy_transform_derivative(mu, z))
    with mp.workdps(60):
        # no cancellation in the textbook form this close to 0
        want = (z - mp.sqrt(z) * mp.sqrt(z - 4)) / (2 * z)
    assert abs(g - want) <= abs(want) * mp.mpf(10) ** -25


def test_herglotz_sign_on_grid():
    candidates = [
        Measure.semicircle(0, 2),
        Measure.marchenko_pastur(2),
        Measure.uniform(0, 1),
        Measure.cauchy(),
        Measure.discrete([(-1, 1), (3, "1/2")]),
    ]
    points = [mp.mpc(x, y) for x in (-2, 0, 0.5, 3) for y in (0.25, 1, 10)]
    for mu in candidates:
        for z in points:
            assert cauchy_transform(mu, z).imag < 0


def test_mass_recovered_at_infinity():
    for mu in (
        Measure.semicircle(0, 2),
        Measure.marchenko_pastur(2),
        Measure.cauchy(),
        Measure.discrete([(-1, 2), (5, 1)]),
        Measure.semicircle(0, 2, mass="7/2"),
    ):
        m1 = 0 if mu.density == "cauchy" else float(moments(mu, 1)[1])
        for y in (1e2, 1e3, 1e4):
            val = mp.mpc(0, y) * cauchy_transform(mu, mp.mpc(0, y))
            assert abs(val - float(mu.mass)) <= 10 * (1 + abs(m1)) / y


def test_lower_half_plane_reflection():
    # compactly supported: outside the disk the closed form holds below the
    # axis, where G(conj z) = conj G(z)
    mu = Measure.semicircle(0, 2)
    z = mp.mpc(3, -1)
    assert close(cauchy_transform(mu, z), mp.conj(cauchy_transform(mu, mp.conj(z))), 1e-25)


def test_domain_errors():
    mu = Measure.semicircle(0, 2)
    with pytest.raises(DomainError):
        cauchy_transform(mu, mp.mpc(0, -1))  # inside the disk, lower half
    with pytest.raises(DomainError):
        cauchy_transform(mu, 1)  # real, inside the disk
    with pytest.raises(DomainError):
        cauchy_transform(Measure.cauchy(), mp.mpc(5, -1))  # no escape region
    with pytest.raises(DomainError):
        cauchy_transform(Measure.dirac(2), 2)  # at the atom
    for z in (mp.inf, mp.mpc(0, mp.inf), mp.nan):
        with pytest.raises(DomainError):
            cauchy_transform(Measure.cauchy(), z)  # no fixed point holds it


def test_derivative_discrete_exact_form():
    mu = Measure.discrete([(-1, "1/2"), (2, "3/2")])
    z = mp.mpc(1, 1)
    want = -mp.mpf(1) / 2 * (z + 1) ** -2 - mp.mpf(3) / 2 * (z - 2) ** -2
    assert close(cauchy_transform_derivative(mu, z), want, 1e-25)


@pytest.mark.parametrize(
    "mu",
    [
        Measure.semicircle(0, 2),
        Measure.marchenko_pastur(2),
        Measure.uniform(-1, 2),
        Measure.cauchy(1, 2),
    ],
    ids=["sc", "mp", "unif", "cauchy"],
)
def test_derivative_matches_difference_quotient(mu):
    z = mp.mpc(0.5, 1.5)
    with mp.workdps(40):
        h = mp.mpf(10) ** -10
        diff = (
            cauchy_transform(mu, z + h, dps=40) - cauchy_transform(mu, z - h, dps=40)
        ) / (2 * h)
    got = cauchy_transform_derivative(mu, z, dps=40)
    assert close(got, diff, 1e-15)


@given(
    atoms=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.fractions(min_value=F(1, 4), max_value=F(3)),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda a: a[0],
    ),
    re=st.fractions(min_value=F(-3), max_value=F(3)),
    im=st.fractions(min_value=F(1, 2), max_value=F(4)),
)
@settings(max_examples=60, deadline=None)
def test_exact_discrete_transform_matches_mpc(atoms, re, im):
    mu = Measure.discrete(atoms)
    ere, eim, _, _ = cauchy_exact(mu, re, im)
    z = mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)
    g = cauchy_transform(mu, z, dps=35)
    target = mp.mpc(mp.mpf(ere.numerator) / ere.denominator, mp.mpf(eim.numerator) / eim.denominator)
    assert close(g, target, 1e-28)
    assert eim < 0


# ------------------------------------------------------ the int form of G


def random_rational_laws(rng):
    """Four laws of 1-6 atoms on the 1/4 grid in [-8, 8] with weights
    k / sum(k), k in 1..9, and four Cauchy laws."""
    laws = []
    for _ in range(4):
        atoms = rng.sample(range(-32, 33), rng.randint(1, 6))
        ks = [rng.randint(1, 9) for _ in atoms]
        laws.append(Measure.discrete([(F(a, 4), F(k, sum(ks))) for a, k in zip(atoms, ks)]))
        center, scale = F(rng.randint(-24, 24), rng.randint(1, 4)), F(rng.randint(1, 32), 4)
        laws.append(Measure.cauchy(center, scale))
    return laws


def contract_points(mu, s, bits, rng):
    """Int points W of a level, w = W / 2^s: one in each half-plane at
    |w| ~ 2^(bits - s), one just above each atom (or above the Cauchy
    law's center), and, where the level's grid holds them, each atom and
    the three points of |w| = max |t| on the axis and below it."""
    top, unit = 1 << bits, F(2) ** s
    points = [(rng.randint(-top, top), rng.randint(1, top)), (rng.randint(-top, top), -rng.randint(1, top))]
    poles = [t for t, _ in mu.atoms] if mu.kind == "discrete" else [mu.param("center")]
    for t in poles:
        near = rng.randint(1, 1 << (bits // 2))
        points.append((math.floor(t * unit) + rng.randint(-near, near), near))
    if mu.kind == "discrete":
        radius = max(abs(t) for t in poles)
        on_grid = [x * unit for x in poles + [radius, -radius] if (x * unit).denominator == 1]
        points += [(int(x), 0) for x in on_grid]
        if (radius * unit).denominator == 1:
            points.append((0, -int(radius * unit)))
    return points


def rational_form_misses(seed=20261020, stats=None):
    """(kind, detail) of each point where `measures._rational_form` breaks
    its contract, over random discrete and Cauchy laws at 15, 50 and 400
    digits on levels of beta = 1/8 and 10^(+-320), where bits + e takes
    both signs: each of the four ints must lie within one unit of the exact
    value (`cauchy_exact`), "G" or "G'" if not, and a point is refused with
    DomainError exactly when it lies neither in the upper half-plane nor
    outside the support disk, "domain" if not.  `stats` counts what the
    points covered."""
    rng, fine = random.Random(seed), random.Random(seed + 1)
    stats = {} if stats is None else stats
    misses = []
    for dps in (15, 50, 400):
        with mp.workdps(dps):
            bits = mp.mp.prec + rays._GUARD_BITS
        for beta in (F(1, 8), F(10) ** 320, F(10) ** -320):
            for mu in random_rational_laws(rng):
                e = beta.numerator.bit_length() - beta.denominator.bit_length() - rng.randint(7, 40)
                s = bits + e
                stats["negative shift" if s < 0 else "positive shift"] = 1
                evaluate = measures._rational_form(mu)(e, bits)
                for w in contract_points(mu, s, bits, rng):
                    misses += _contract_miss(mu, evaluate, w, s, e, bits, stats)
        laws = random_rational_laws(fine)[:2]
        misses += finer_scale_misses(measures._rational_form, laws, contract_points, _contract_miss, bits, fine, stats)
    return misses


def finer_scale_misses(form, laws, points, miss, bits, rng, stats):
    """The misses of a form's contract on levels of beta = 1/8 at points of
    a scale s finer than the level's own, bits + e, by up to 2 bits bits:
    form(mu)(e, bits, s) must keep each int within one unit at any such
    scale, as `cauchy_transform` takes a point near a singular point at the
    scale of its finest bit.  `stats` counts the points."""
    misses = []
    for mu in laws:
        e = -3 - rng.randint(7, 40)
        s = bits + e + rng.randint(1, 2 * bits)
        evaluate = form(mu)(e, bits, s)
        for w in points(mu, s, bits, rng):
            stats["finer scale"] = stats.get("finer scale", 0) + 1
            misses += miss(mu, evaluate, w, s, e, bits, stats)
    return misses


def _contract_miss(mu, evaluate, w, s, e, bits, stats):
    """The misses of `rational_form_misses` at the int point w."""
    wr, wi = w
    re, im = F(wr) / F(2) ** s, F(wi) / F(2) ** s
    if mu.kind == "discrete":
        radius = max(abs(t) for t, _ in mu.atoms)
        outside = re * re + im * im > radius * radius
    else:
        outside = False
    refused = im <= 0 and not outside
    try:
        got = evaluate(wr, wi)
    except DomainError:
        stats["refused"] = stats.get("refused", 0) + 1
        return [] if refused else [("domain", f"{w} refused")]
    except (ValueError, ZeroDivisionError) as exc:
        return [("domain", f"{w} raised {exc!r}")]
    if refused:
        return [("domain", f"{w} evaluated")]
    stats["evaluated"] = stats.get("evaluated", 0) + 1
    exact = cauchy_exact(mu, re, im)
    scales = (F(2) ** (bits - e),) * 2 + (F(2) ** (bits - 2 * e),) * 2
    offs = [abs(x - v * scale) for x, v, scale in zip(got, exact, scales)]
    return [
        ("G" if i < 2 else "G'", f"{mu}, e = {e}, bits = {bits}: off by {float(min(off, 10**300))}")
        for i, off in enumerate(offs)
        if not off < 1
    ]


def test_rational_form_is_within_a_unit_of_the_exact_transform():
    stats = {}
    assert rational_form_misses(stats=stats) == []
    assert stats["positive shift"] and stats["negative shift"]
    assert stats["evaluated"] > 200 and stats["refused"] > 200
    assert stats["finer scale"] > 30


def test_a_trial_point_on_an_atom_is_an_evaluation_error_newton_catches():
    mu = Measure.discrete([(-1, "1/2"), (2, "1/2")])
    e, bits = -10, 120
    evaluate = measures._rational_form(mu)(e, bits)
    on_atom = (2 << (bits + e), 0)
    with pytest.raises(rays._EVALUATION_ERRORS):
        evaluate(*on_atom)
    z = (0, -(1 << bits))
    assert rays._newton(evaluate, z, on_atom, 1, bits) is None


def form_mutant(name: str, old: str, new: str):
    """`measures.<name>` compiled from the module's source with `old`
    replaced by `new`, which must occur once."""
    source = inspect.getsource(measures)
    assert source.count(old) == 1, old
    namespace = {"__name__": measures.__name__, "__package__": "freemoments"}
    exec(compile(source.replace(old, new), measures.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "old, new, kind",
    [
        # the reciprocal that G' squares, without the guard bits grown with
        # |w| / |w - t|: near an atom G' is off by many units
        ("g = h + 3 + max(grow, 0)", "g = h + 3", "G'"),
        # a point on the support's circle below the axis, and the atom of
        # largest |t| among them, pass the domain check
        ("* outer > inner", "* outer >= inner", "domain"),
    ],
    ids=["guard-bits-not-grown", "domain-check-ge"],
)
def test_rational_form_mutants_break_the_contract(monkeypatch, old, new, kind):
    monkeypatch.setattr(measures, "_rational_form", form_mutant("_rational_form", old, new))
    misses = rational_form_misses()
    assert misses and {k for k, _ in misses} == {kind}


# ------------------------------------ the int form of a square-root law


def random_sqrt_laws(rng):
    """Three semicircles of center and radius on the 1/4 grid, one of mass
    k / 9, and three Marchenko-Pastur laws: rate 1, whose G has a pole at
    the hard edge 0, a square rate and a rate k / 4 that is not a square,
    whose edges (1 -+ sqrt(rate))^2 are irrational."""
    laws = [
        Measure.semicircle(F(rng.randint(-24, 24), 4), F(rng.randint(1, 32), 4), mass=mass)
        for mass in (1, 1, F(rng.randint(1, 17), 9))
    ]
    square = F(rng.randint(2, 6), rng.randint(1, 2)) ** 2
    rate = F(rng.choice([k for k in range(5, 41) if math.isqrt(k) ** 2 != k]), 4)
    return laws + [Measure.marchenko_pastur(r) for r in (1, square, rate)]


def _sqrt_law_edges(mu):
    """The support's edges and |mid| + h, the radius of its disk, as mpf at
    the working precision."""
    if mu.density == "semicircle":
        c, r = mu.param("center"), mu.param("radius")
        lo, hi = measures._to_mpf(c - r), measures._to_mpf(c + r)
        return lo, hi, max(abs(lo), abs(hi))
    root = mp.sqrt(measures._to_mpf(mu.param("rate")))
    return (1 - root) ** 2, (1 + root) ** 2, (1 + root) ** 2


def sqrt_contract_points(mu, s, bits, rng):
    """Int points W of a level, w = W / 2^s: one in each half-plane at
    |w| ~ 2^(bits - s), on both signs of Re w; around each edge, above,
    below and on the axis, from one unit to 2^(bits / 2) units away; near
    0, where Marchenko-Pastur's G at rate 1 has its pole; two below the
    axis just outside the support disk, one on each side; and, where the
    level's grid holds them, the points of the disk's circle on the axis
    and below it."""
    top = 1 << bits
    sign = rng.choice((-1, 1))
    points = [(sign * rng.randint(1, top), rng.randint(1, top)), (-sign * rng.randint(1, top), -rng.randint(1, top))]
    with mp.workprec(bits + abs(s) + 64):
        lo, hi, radius = _sqrt_law_edges(mu)
        corner = int(mp.ceil(radius * mp.ldexp(4, s) / 5))  # |w| ~ 1.13 |mid| + h
        edges = [int(mp.floor(mp.ldexp(x, s))) for x in (lo, hi)]
    for x in edges:
        for im in (1, -1, 0):
            near = rng.randint(1, 1 << rng.randint(0, bits // 2))
            points.append((x + rng.randint(-near, near), im * rng.randint(1, near)))
    near = rng.randint(1, 1 << rng.randint(0, bits // 2))
    points.append((rng.randint(-near, near), rng.randint(1, near)))
    points += [(corner + rng.randint(0, 4), -corner - rng.randint(0, 4)),
               (-corner - rng.randint(0, 4), -corner - rng.randint(0, 4))]
    if mu.density == "semicircle":
        c, r = mu.param("center"), mu.param("radius")
        x = (abs(c) + r) * F(2) ** s
        if x.denominator == 1:
            points += [(int(x), 0), (-int(x), 0), (0, -int(x))]
    return points


def outside_support_disk(mu, re, im):
    """|w| > the support disk's radius, exactly: |c| + r for a semicircle,
    (1 + sqrt(rate))^2 for Marchenko-Pastur, whose fourth power is
    1 + 6 rate + rate^2 + 4 (1 + rate) sqrt(rate)."""
    size = re * re + im * im
    if mu.density == "semicircle":
        return size > (abs(mu.param("center")) + mu.param("radius")) ** 2
    rate = mu.param("rate")
    rest = size - 1 - 6 * rate - rate * rate
    return rest > 0 and rest * rest > 16 * (1 + rate) ** 2 * rate


def sqrt_form_misses(seed=20261021, stats=None):
    """(kind, detail) of each point where `measures._sqrt_form` breaks its
    contract, over random semicircle and Marchenko-Pastur laws at 15, 50 and
    400 digits on levels of beta = 1/8 and 10^(+-320): each of the four ints
    must lie within one unit of `cauchy_sqrt_law` at more than twice the
    working bits and past its cancellation, "G" or "G'" if not, and a point
    is refused with DomainError exactly when it lies neither in the upper
    half-plane nor outside the support disk, "domain" if not.  `stats`
    counts what the points covered."""
    rng, fine = random.Random(seed), random.Random(seed + 1)
    stats = {} if stats is None else stats
    misses = []
    for dps in (15, 50, 400):
        with mp.workdps(dps):
            bits = mp.mp.prec + rays._GUARD_BITS
        for beta in (F(1, 8), F(10) ** 320, F(10) ** -320):
            for mu in random_sqrt_laws(rng):
                e = beta.numerator.bit_length() - beta.denominator.bit_length() - rng.randint(7, 40)
                s = bits + e
                stats["negative shift" if s < 0 else "positive shift"] = 1
                evaluate = measures._sqrt_form(mu)(e, bits)
                for w in sqrt_contract_points(mu, s, bits, rng):
                    misses += _sqrt_contract_miss(mu, evaluate, w, s, e, bits, stats)
        laws = random_sqrt_laws(fine)[::3]  # a semicircle and Marchenko-Pastur at rate 1
        misses += finer_scale_misses(measures._sqrt_form, laws, sqrt_contract_points, _sqrt_contract_miss, bits, fine, stats)
    return misses


def _sqrt_contract_miss(mu, evaluate, w, s, e, bits, stats):
    """The misses of `sqrt_form_misses` at the int point w."""
    wr, wi = w
    re, im = F(wr) / F(2) ** s, F(wi) / F(2) ** s
    refused = im <= 0 and not outside_support_disk(mu, re, im)
    try:
        got = evaluate(wr, wi)
    except DomainError:
        stats["refused"] = stats.get("refused", 0) + 1
        return [] if refused else [("domain", f"{w} refused")]
    except (ValueError, ZeroDivisionError) as exc:
        return [("domain", f"{w} raised {exc!r}")]
    if refused:
        return [("domain", f"{w} evaluated")]
    stats["evaluated"] = stats.get("evaluated", 0) + 1
    if wr < 0 and wi > 0:
        stats["negative real part"] = stats.get("negative real part", 0) + 1
    if wi < 0:
        stats["lower half-plane"] = stats.get("lower half-plane", 0) + 1
    # the textbook forms lose 4 log2 |w| bits at large |w|, and the edges'
    # rounding 1 / |w - edge| <= 2^s near them
    reach = max(max(abs(wr), abs(wi)).bit_length() - s, 0)
    prec = 3 * (bits + abs(s) + abs(e)) + 4 * reach + 64
    exact = cauchy_sqrt_law(mu, re, im, prec)
    with mp.workprec(prec):
        shifts = (bits - e,) * 2 + (bits - 2 * e,) * 2
        offs = [abs(x - mp.ldexp(v, shift)) for x, v, shift in zip(got, exact, shifts)]
        return [
            ("G" if i < 2 else "G'", f"{mu}, e = {e}, bits = {bits}, w = {w}: off by {mp.nstr(min(off, mp.mpf(10) ** 300), 5)}")
            for i, off in enumerate(offs)
            if not off < 1
        ]


def test_sqrt_form_is_within_a_unit_of_the_transform():
    stats = {}
    assert sqrt_form_misses(stats=stats) == []
    assert stats["positive shift"] and stats["negative shift"] and stats["finer scale"] > 30
    assert stats["evaluated"] > 200 and stats["refused"] > 100
    assert stats["negative real part"] > 20 and stats["lower half-plane"] > 50


@pytest.mark.parametrize(
    "old, new, kinds",
    [
        # the principal root, Re s >= 0, for every point: left of the
        # support G and G' come from the wrong branch, and on the axis
        # zeta + s cancels to d = 0, which raises
        ("(u if zr >= 0 else -u)", "u", {"G", "G'", "domain"}),
        # k without the guard bits that 1 / |s| grows near an edge: there
        # G' ~ 1 / s is off by many units
        ("upper - ls - 2 * ld - lo", "upper - 2 * ld - lo", {"G'"}),
        # the points of the support disk's circle pass the domain check
        ("beyond * beyond > 4 * mid2 * big", "beyond * beyond >= 4 * mid2 * big", {"domain"}),
    ],
    ids=["principal-root", "guard-bits-not-grown-at-edges", "domain-check-ge"],
)
def test_sqrt_form_mutants_break_the_contract(monkeypatch, old, new, kinds):
    monkeypatch.setattr(measures, "_sqrt_form", form_mutant("_sqrt_form", old, new))
    misses = sqrt_form_misses()
    assert misses and {k for k, _ in misses} == kinds


# ---------------------------------------------------- the int form of a uniform law


def random_uniform_laws(rng):
    """Uniform windows on the 1/4 grid left of 0, across 0 (one of mass
    k / 9) and right of 0, and one across 0 whose ends have numerators and
    denominators of about 100 bits."""
    left = -F(rng.randint(0, 8), 4)
    right = F(rng.randint(0, 8), 4)
    across = -F(rng.randint(1, 24), 4), F(rng.randint(1, 24), 4)
    high = F(-1, 3) + F(1, 10**30 + rng.randint(1, 99)), 2 + F(rng.randint(1, 99), 10**30)
    return [
        Measure.uniform(left - F(rng.randint(1, 24), 4), left),
        Measure.uniform(*across),
        Measure.uniform(*across, mass=F(rng.randint(1, 17), 9)),
        Measure.uniform(right, right + F(rng.randint(1, 24), 4)),
        Measure.uniform(*high),
    ]


def log_contract_points(mu, s, bits, rng):
    """Int points W of a level, w = W / 2^s: one in each half-plane at
    |w| ~ 2^(bits - s), on both signs of Re w; around each end, above,
    below and on the axis, from one unit to 2^(bits / 2) units away; two
    just above the interior of [a, b], where arg q is near -pi; two below
    the axis just outside the support disk, one on each side; and, where
    the level's grid holds them, the points of the disk's circle on the
    axis and below it."""
    top = 1 << bits
    sign = rng.choice((-1, 1))
    points = [(sign * rng.randint(1, top), rng.randint(1, top)), (-sign * rng.randint(1, top), -rng.randint(1, top))]
    a, b = mu.param("a"), mu.param("b")
    unit = F(2) ** s
    for x in (a, b):
        for im in (1, -1, 0):
            near = rng.randint(1, 1 << rng.randint(0, bits // 2))
            points.append((math.floor(x * unit) + rng.randint(-near, near), im * rng.randint(1, near)))
    for _ in range(2):
        inside = a + (b - a) * F(rng.randint(1, 15), 16)
        points.append((math.floor(inside * unit), rng.randint(1, 1 << rng.randint(0, bits // 2))))
    radius = max(abs(a), abs(b))
    corner = math.ceil(radius * unit * 4 / 5)  # |w| ~ 1.13 radius
    points += [(corner + rng.randint(0, 4), -corner - rng.randint(0, 4)),
               (-corner - rng.randint(0, 4), -corner - rng.randint(0, 4))]
    x = radius * unit
    if x.denominator == 1:
        points += [(int(x), 0), (-int(x), 0), (0, -int(x))]
    return points


def log_form_misses(seed=20261022, stats=None):
    """(kind, detail) of each point where `measures._log_form` breaks its
    contract, over random uniform windows at 15, 50 and 400 digits on
    levels of beta = 1/8 and 10^(+-320): each of the four ints must lie
    within one unit of `cauchy_log_law` at more than twice the working
    bits past each unit, "G" or "G'" if not, and a point is
    refused with DomainError exactly when it lies neither in the upper
    half-plane nor outside the support disk, "domain" if not.  `stats`
    counts what the points covered."""
    rng, fine = random.Random(seed), random.Random(seed + 1)
    stats = {} if stats is None else stats
    misses = []
    for dps in (15, 50, 400):
        with mp.workdps(dps):
            bits = mp.mp.prec + rays._GUARD_BITS
        for beta in (F(1, 8), F(10) ** 320, F(10) ** -320):
            for mu in random_uniform_laws(rng):
                e = beta.numerator.bit_length() - beta.denominator.bit_length() - rng.randint(7, 40)
                s = bits + e
                stats["negative shift" if s < 0 else "positive shift"] = 1
                evaluate = measures._log_form(mu)(e, bits)
                for w in log_contract_points(mu, s, bits, rng):
                    misses += _log_contract_miss(mu, evaluate, w, s, e, bits, stats)
        laws = random_uniform_laws(fine)[1:3]  # across 0, of mass 1 and k / 9
        misses += finer_scale_misses(measures._log_form, laws, log_contract_points, _log_contract_miss, bits, fine, stats)
    return misses


def _log_contract_miss(mu, evaluate, w, s, e, bits, stats):
    """The misses of `log_form_misses` at the int point w."""
    wr, wi = w
    re, im = F(wr) / F(2) ** s, F(wi) / F(2) ** s
    a, b = mu.param("a"), mu.param("b")
    refused = im <= 0 and re * re + im * im <= max(a * a, b * b)
    try:
        got = evaluate(wr, wi)
    except DomainError:
        stats["refused"] = stats.get("refused", 0) + 1
        return [] if refused else [("domain", f"{w} refused")]
    except (ValueError, ZeroDivisionError) as exc:
        return [("domain", f"{w} raised {exc!r}")]
    if refused:
        return [("domain", f"{w} evaluated")]
    stats["evaluated"] = stats.get("evaluated", 0) + 1
    if wi < 0:
        stats["lower half-plane"] = stats.get("lower half-plane", 0) + 1
    if (re - a) * (re - b) + im * im < 0:  # Re q < 0: |arg q| > pi / 2
        stats["arg past pi / 2"] = stats.get("arg past pi / 2", 0) + 1
    # G needs bits - e bits past its unit, and |G'| <= 2^(s + 3) / (b - a)
    # near an end s + bits - 2e past its unit 2^(2e - bits)
    prec = 2 * bits + abs(e) + (s - bits - e) + 64
    exact = cauchy_log_law(mu, re, im, prec)
    with mp.workprec(prec):
        shifts = (bits - e,) * 2 + (bits - 2 * e,) * 2
        offs = [abs(x - mp.ldexp(v, shift)) for x, v, shift in zip(got, exact, shifts)]
        return [
            ("G" if i < 2 else "G'", f"{mu}, e = {e}, bits = {bits}, w = {w}: off by {mp.nstr(min(off, mp.mpf(10) ** 300), 5)}")
            for i, off in enumerate(offs)
            if not off < 1
        ]


def test_log_form_is_within_a_unit_of_the_transform():
    stats = {}
    assert log_form_misses(stats=stats) == []
    assert stats["positive shift"] and stats["negative shift"] and stats["finer scale"] > 30
    assert stats["evaluated"] > 300 and stats["refused"] > 100
    assert stats["lower half-plane"] > 50 and stats["arg past pi / 2"] > 50


@pytest.mark.parametrize(
    "old, new, kind",
    [
        # the points of the support disk's circle pass the domain check,
        # and the end of largest |x| among them raises
        ("(wr * wr + wi * wi) * rd2 > rn2", "(wr * wr + wi * wi) * rd2 >= rn2", "domain"),
        # the guard bits without the reductions' count: log q loses 2^j
        # to j halvings and |n| units to n log 2 / 2, near an end
        ("((7 << max(jr, ji)) + 2 * abs(n) + 3)", "(10)", "G"),
    ],
    ids=["domain-check-ge", "guard-bits-without-reductions"],
)
def test_log_form_mutants_break_the_contract(monkeypatch, old, new, kind):
    monkeypatch.setattr(measures, "_log_form", form_mutant("_log_form", old, new))
    misses = log_form_misses()
    assert misses and {k for k, _ in misses} == {kind}


# ---------------------------------------------------------------------- JSON


def test_json_round_trip_discrete():
    mu = Measure.discrete([("-1/3", "1/2"), (4, "1/2")])
    data = measure_to_json(mu)
    assert data == {"kind": "discrete", "atoms": [["-1/3", "1/2"], ["4", "1/2"]]}
    assert measure_from_json(data) == mu


def test_json_round_trip_density():
    mu = Measure.marchenko_pastur("3/2", mass=2)
    data = measure_to_json(mu)
    assert data == {
        "kind": "density",
        "name": "marchenko_pastur",
        "params": {"rate": "3/2"},
        "mass": "2",
    }
    assert measure_from_json(data) == mu


def test_json_rejects_floats_and_junk():
    with pytest.raises(ValidationError):
        measure_from_json({"kind": "discrete", "atoms": [[0.5, 1]]})
    with pytest.raises(ValidationError):
        measure_from_json({"kind": "discrete", "atoms": [[1, 1]], "mass": "2"})
    with pytest.raises(ValidationError):
        measure_from_json({"kind": "density", "name": "semicircle"})
    with pytest.raises(ValidationError):
        measure_from_json(["not", "a", "measure"])
    with pytest.raises(ValidationError):
        measure_from_json({"kind": "spectral"})


_SEMICIRCLE_JSON = {
    "kind": "density",
    "name": "semicircle",
    "params": {"center": "0", "radius": "2"},
}


@pytest.mark.parametrize(
    "data",
    [
        # a misspelt field must not fall back to its default
        dict(_SEMICIRCLE_JSON, Mass="3"),
        dict(_SEMICIRCLE_JSON, atoms=[]),
        {"kind": "discrete", "atoms": [[1, 1]], "weights": [1]},
        {"kind": "discrete", "atoms": [[1, 1]], "name": "semicircle"},
        # malformed shapes are validation errors, not TypeErrors
        {"kind": "discrete", "atoms": [5]},
        dict(_SEMICIRCLE_JSON, name=["semicircle"]),
        {"kind": ["discrete"], "atoms": []},
    ],
)
def test_json_rejects_unknown_fields_and_shapes(data):
    with pytest.raises(ValidationError):
        measure_from_json(data)
