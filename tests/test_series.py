from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freemoments.acceptance import (
    _g_expansion,
    _lagrange_cumulants,
    _series_comp_inverse,
    _series_product,
    _series_reciprocal,
)
from freemoments.cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    free_convolve,
)
from freemoments.errors import KindMismatchError, ValidationError
from freemoments.noncrossing import catalan
from freemoments.series import (
    TruncatedSeries,
    _int_nth_root_floor,
    moments_from_r_series,
    r_series_from_moments,
    support_bound_from_cumulants,
)

F = Fraction


def S(*coeffs):
    """Coefficient tuple of a truncated series, as the Lagrange oracle takes."""
    return tuple(F(c) for c in coeffs)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


# ------------------------------------------------------------------ container


def test_validation():
    with pytest.raises(ValidationError):
        TruncatedSeries(())
    with pytest.raises(ValidationError):
        TruncatedSeries((0.5,))


# ---------------------------------- Lagrange-inversion oracle (acceptance.py)


def test_mul_truncates_to_min_order():
    a = S(1, 2, 3)
    b = S(1, 1, 1, 1, 1)
    assert _series_product(a, b) == (F(1), F(3), F(6))


def test_mul_example():
    assert _series_product(S(1, 1), S(1, -1)) == (F(1), F(0))
    assert _series_product(S(0, 1, 1), S(0, 1)) == (F(0), F(0))
    assert _series_product(S(0, 1, 1), S(0, 1, 0)) == (F(0), F(0), F(1))


def test_reciprocal_geometric():
    assert _series_reciprocal(S(1, 1)) == (F(1), F(-1))
    assert _series_reciprocal(S(1, 1, 0, 0)) == (F(1), F(-1), F(1), F(-1))
    s = S(1, 1, 1)
    assert _series_product(s, _series_reciprocal(s)) == (F(1), F(0), F(0))


def test_reciprocal_pole():
    with pytest.raises(ZeroDivisionError):
        _series_reciprocal(S(0, 1))


def test_comp_inverse_example():
    inv = _series_comp_inverse(S(0, 1, 1, 0))
    assert inv == (F(0), F(1), F(-1), F(2))


def test_comp_inverse_geometric_pair():
    f = S(0, 1, 1, 1, 1, 1)  # z/(1-z)
    g = S(0, 1, -1, 1, -1, 1)  # z/(1+z)
    assert _series_comp_inverse(f) == g
    assert _series_comp_inverse(g) == f


def test_comp_inverse_requires_simple_zero():
    with pytest.raises(ValueError):
        _series_comp_inverse(S(1, 1))
    with pytest.raises(ValueError):
        _series_comp_inverse(S(0, 0, 1))


def test_comp_inverse_catalan_order_40():
    # z - z^2 inverts to (1 - sqrt(1 - 4z))/2 = sum catalan(n-1) z^n
    inv = _series_comp_inverse((F(0), F(1), F(-1)) + (F(0),) * 38)
    assert inv == (F(0),) + tuple(F(catalan(n - 1)) for n in range(1, 41))


@settings(max_examples=60, deadline=None)
@given(
    rationals.filter(lambda a: a != 0),
    st.lists(rationals, min_size=0, max_size=8),
)
def test_comp_inverse_involution(lead, tail):
    f = (F(0), lead) + tuple(tail)
    g = _series_comp_inverse(f)
    assert _series_comp_inverse(g) == f


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=8))
def test_reciprocal_identity(tail):
    s = (F(1),) + tuple(tail)
    one = (F(1),) + tuple(F(0) for _ in tail)
    assert _series_product(s, _series_reciprocal(s)) == one


def test_g_series_semicircle():
    m = MomentSequence(tuple(F(v) for v in (0, 1, 0, 2, 0, 5)))
    assert _g_expansion(m) == tuple(F(v) for v in (0, 1, 0, 1, 0, 2, 0, 5))


def test_g_series_trivial():
    assert _g_expansion(MomentSequence(())) == (F(0), F(1))


# ------------------------------------------------------- moment/R-chain level


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
    r = TruncatedSeries(S("1/2", 1, "-1/3"))
    m = moments_from_r_series(r)
    assert r_series_from_moments(m) == r


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=9))
def test_series_route_equals_partition_route(values):
    """The production R series (the functional-relation sweep) equals the
    Lagrange-inversion chain, which shares no code with it."""
    m = MomentSequence(tuple(values))
    assert r_series_from_moments(m).coeffs == _lagrange_cumulants(m)


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
