from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freemoments.cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    free_convolve,
    free_cumulants_from_moments,
)
from freemoments.errors import (
    CompositionDomainError,
    KindMismatchError,
    NonInvertibleSeriesError,
    PoleError,
    ValidationError,
)
from freemoments.noncrossing import catalan
from freemoments.series import (
    TruncatedSeries,
    _int_nth_root_floor,
    g_series_from_moments,
    moments_from_r_series,
    r_series_from_moments,
    support_bound_from_cumulants,
)

F = Fraction


def S(*coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


# ------------------------------------------------------------------ basic ops


def test_validation():
    with pytest.raises(ValidationError):
        TruncatedSeries(())
    with pytest.raises(ValidationError):
        TruncatedSeries((0.5,))


def test_mul_truncates_to_min_order():
    a = S(1, 2, 3)
    b = S(1, 1, 1, 1, 1)
    assert (a * b).coeffs == (F(1), F(3), F(6))


def test_mul_example():
    assert (S(1, 1) * S(1, -1)).coeffs == (F(1), F(0))
    assert (S(0, 1, 1) * S(0, 1)).coeffs == (F(0), F(0))
    assert (S(0, 1, 1) * S(0, 1, 0)).coeffs == (F(0), F(0), F(1))


def test_reciprocal_geometric():
    assert S(1, 1).reciprocal().coeffs == (F(1), F(-1))
    assert S(1, 1, 0, 0).reciprocal().coeffs == (F(1), F(-1), F(1), F(-1))
    s = S(1, 1, 1)
    assert (s * s.reciprocal()).coeffs == (F(1), F(0), F(0))


def test_reciprocal_pole():
    with pytest.raises(PoleError):
        S(0, 1).reciprocal()


def test_compose_requires_zero_constant():
    with pytest.raises(CompositionDomainError):
        S(1, 1).compose(S(1, 1))


def test_compose_horner():
    # (1 + x + x^2) at x = z + z^2
    out = S(1, 1, 1).compose(S(0, 1, 1))
    assert out.coeffs == (F(1), F(1), F(2))


def test_comp_inverse_example():
    inv = S(0, 1, 1, 0).comp_inverse()
    assert inv.coeffs == (F(0), F(1), F(-1), F(2))


def test_comp_inverse_geometric_pair():
    f = S(0, 1, 1, 1, 1, 1)  # z/(1-z)
    g = S(0, 1, -1, 1, -1, 1)  # z/(1+z)
    assert f.comp_inverse() == g
    assert g.comp_inverse() == f


def test_comp_inverse_requires_simple_zero():
    with pytest.raises(NonInvertibleSeriesError):
        S(1, 1).comp_inverse()
    with pytest.raises(NonInvertibleSeriesError):
        S(0, 0, 1).comp_inverse()


def test_comp_inverse_catalan_order_40():
    # z - z^2 inverts to (1 - sqrt(1 - 4z))/2 = sum catalan(n-1) z^n
    inv = TruncatedSeries((F(0), F(1), F(-1)) + (F(0),) * 38).comp_inverse()
    assert inv.coeffs == (F(0),) + tuple(F(catalan(n - 1)) for n in range(1, 41))


@settings(max_examples=60, deadline=None)
@given(
    rationals.filter(lambda a: a != 0),
    st.lists(rationals, min_size=0, max_size=8),
)
def test_comp_inverse_involution(lead, tail):
    f = TruncatedSeries((F(0), lead) + tuple(tail))
    g = f.comp_inverse()
    assert g.comp_inverse() == f
    # and f(g(z)) = z exactly
    assert f.compose(g).coeffs == (F(0), F(1)) + (F(0),) * len(tail)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=8))
def test_reciprocal_identity(tail):
    s = TruncatedSeries((F(1),) + tuple(tail))
    one = TruncatedSeries((F(1),) + tuple(F(0) for _ in tail))
    assert s * s.reciprocal() == one


# ------------------------------------------------------- moment/R-chain level


def test_g_series_semicircle():
    m = MomentSequence(tuple(F(v) for v in (0, 1, 0, 2, 0, 5)))
    g = g_series_from_moments(m)
    assert g.coeffs == tuple(F(v) for v in (0, 1, 0, 1, 0, 2, 0, 5))


def test_g_series_trivial():
    assert g_series_from_moments(MomentSequence(())).coeffs == (F(0), F(1))


def test_r_series_free_poisson():
    m = MomentSequence(tuple(F(v) for v in (1, 2, 5, 14)))
    assert r_series_from_moments(m).coeffs == (F(1), F(1), F(1), F(1))


def test_r_series_semicircle():
    m = MomentSequence(tuple(F(v) for v in (0, 1, 0, 2)))
    assert r_series_from_moments(m).coeffs == (F(0), F(1), F(0), F(0))


def test_r_series_point_mass():
    a = F(-2, 3)
    m = MomentSequence((a, a**2, a**3))
    assert r_series_from_moments(m).coeffs == (a, F(0), F(0))


def test_moments_from_r_series_round_trip():
    r = S("1/2", 1, "-1/3")
    m = moments_from_r_series(r)
    assert r_series_from_moments(m) == r


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=9))
def test_series_route_equals_partition_route(values):
    m = MomentSequence(tuple(values))
    via_series = r_series_from_moments(m).coeffs
    via_partitions = free_cumulants_from_moments(m).values
    assert via_series == via_partitions


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=7), rationals)
def test_shift_rule(values, a):
    """Free convolution with a point mass adds a to the R-series constant
    term and leaves higher coefficients alone."""
    m = MomentSequence(tuple(values))
    delta = MomentSequence(tuple(a**i for i in range(1, m.p + 1)))
    r_base = r_series_from_moments(m)
    r_shift = r_series_from_moments(free_convolve(m, delta))
    assert r_shift.coeffs[0] == r_base.coeffs[0] + a
    assert r_shift.coeffs[1:] == r_base.coeffs[1:]


# --------------------------------------------------------------- support bound


def bound_of(values, kind=FREE):
    return support_bound_from_cumulants(CumulantSequence(tuple(values), kind))


def test_support_bound_semicircle():
    assert bound_of((F(0), F(1), F(0), F(0), F(0), F(0))) == 16


def test_support_bound_free_poisson():
    assert bound_of((F(1), F(1), F(1), F(1))) == 16


def test_support_bound_point_mass():
    a = F(-7, 3)
    assert bound_of((a, F(0), F(0))) == 16 * abs(a)


def test_support_bound_zero():
    assert bound_of((F(0), F(0))) == 0


def test_support_bound_irrational_root_certified():
    b = bound_of((F(0), F(2)))  # C = sqrt(2)
    assert (b / 16) ** 2 >= 2
    assert (b / 16) ** 2 <= 2 * (1 + F(1, 10**10))


def test_support_bound_argmax_over_n():
    # |k_3| = 64 -> C = 4 beats |k_1| = 3
    assert bound_of((F(3), F(0), F(64))) == 64


def test_int_nth_root_floor_is_exact():
    for n in (1, 2, 3, 5, 20):
        for x in (0, 1, 2, 7, 8, 9, 3 ** (5 * n) - 1, 3 ** (5 * n), 10**400 + 1):
            r = _int_nth_root_floor(x, n)
            assert r**n <= x < (r + 1) ** n


def test_support_bound_past_float_range():
    # both radicands used to overflow a float seed of the integer root
    huge = 10**400 + 1
    b = bound_of((F(0), F(huge)))
    assert huge <= (b / 16) ** 2 <= huge * (1 + F(1, 10**10))
    # order 20 scales the radicand by 10^(18 * 20)
    b = bound_of((F(0),) * 19 + (F(2),))
    assert 2 <= (b / 16) ** 20 <= 2 * (1 + F(1, 10**10))


def test_support_bound_kind_check():
    with pytest.raises(KindMismatchError):
        bound_of((F(1),), CLASSICAL)
