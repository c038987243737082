"""Measures: exact moments, Cauchy transforms, JSON."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import cauchy_exact, cauchy_quad, density_integral, numeric_moment

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
    ere, eim = cauchy_exact(mu, re, im)
    z = mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)
    g = cauchy_transform(mu, z, dps=35)
    target = mp.mpc(mp.mpf(ere.numerator) / ere.denominator, mp.mpf(eim.numerator) / eim.denominator)
    assert close(g, target, 1e-28)
    assert eim < 0


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
