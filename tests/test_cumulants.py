import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from freemoments.cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    as_fraction,
    classical_cumulants_from_moments,
    free_convolve,
    free_cumulants_from_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
)
from freemoments.errors import KindMismatchError, ValidationError
from freemoments.noncrossing import (
    NCInterval,
    NCPartition,
    catalan,
    enumerate_nc,
    mobius_nc,
)

from oracles import product_over_blocks, set_partitions


F = Fraction


def frac_seq(values):
    return tuple(F(v) for v in values)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


# ------------------------------------------------------------------ validation


def test_float_inputs_rejected():
    with pytest.raises(ValidationError):
        MomentSequence((0.5,))
    with pytest.raises(ValidationError):
        CumulantSequence((F(1), 2.0))
    with pytest.raises(ValidationError):
        CumulantSequence((True,))


@pytest.mark.parametrize(
    "value, want",
    [
        ("3/4", F(3, 4)),
        ("1.25", F(5, 4)),
        (" -2 ", F(-2)),
        (7, F(7)),
        (F(2, 3), F(2, 3)),
        ("-3/4", F(-3, 4)),
        ("1.25e3", F(1250)),
    ],
)
def test_as_fraction_accepts_exact_values(value, want):
    got = as_fraction(value)
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("value", ["1/0", "abc", "0.5.1", 0.5, True, None, [1]])
def test_as_fraction_rejects_everything_else(value):
    with pytest.raises(ValidationError):
        as_fraction(value)


def test_as_fraction_bounds_decimal_exponents():
    # 10^e is built only when it has no more digits than int() converts,
    # so a huge exponent is refused at once
    limit = sys.get_int_max_str_digits()
    assert as_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
    for text in ("1e1000000", "1e-1000000", f"1E+{limit}", f"1e-{limit}"):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="exponent"):
            as_fraction(text)
        assert time.perf_counter() - start < 0.1


def test_sequences_accept_rational_strings():
    m = MomentSequence(("0", "1/2", "1.5"))
    assert m.values == (F(0), F(1, 2), F(3, 2))
    assert all(type(v) is Fraction for v in m.values)
    assert free_cumulants_from_moments(m).values == (F(0), F(1, 2), F(3, 2))
    assert CumulantSequence(("1/3", 2)).values == (F(1, 3), F(2))
    with pytest.raises(ValidationError):
        MomentSequence(("1/2", 0.5))


def test_kind_checks():
    free = CumulantSequence(frac_seq([0, 1]), FREE)
    classical = CumulantSequence(frac_seq([0, 1]), CLASSICAL)
    with pytest.raises(KindMismatchError):
        moments_from_free_cumulants(classical)
    with pytest.raises(KindMismatchError):
        moments_from_classical_cumulants(free)
    with pytest.raises(ValidationError):
        CumulantSequence(frac_seq([1]), "weird")


def test_free_transforms_have_no_order_ceiling():
    # order 30 is far past the lattice enumeration ceiling of 14
    k = CumulantSequence(frac_seq([1] * 30), FREE)
    m = moments_from_free_cumulants(k)
    assert m.values == tuple(F(catalan(n)) for n in range(1, 31))
    assert free_cumulants_from_moments(m) == k


# ------------------------------------------------------------ pinned examples


def test_semicircle_free_cumulants_to_moments():
    k = CumulantSequence(frac_seq([0, 1, 0, 0, 0, 0]), FREE)
    assert moments_from_free_cumulants(k).values == frac_seq([0, 1, 0, 2, 0, 5])


def test_semicircle_moments_to_free_cumulants():
    m = MomentSequence(frac_seq([0, 1, 0, 2, 0, 5]))
    assert free_cumulants_from_moments(m).values == frac_seq([0, 1, 0, 0, 0, 0])


def test_free_poisson_both_directions():
    k = CumulantSequence(frac_seq([1, 1, 1, 1]), FREE)
    m = moments_from_free_cumulants(k)
    assert m.values == frac_seq([1, 2, 5, 14])
    assert free_cumulants_from_moments(m).values == k.values


def test_point_mass_powers():
    a = F(3, 2)
    k = CumulantSequence((a, F(0), F(0), F(0)), FREE)
    m = moments_from_free_cumulants(k)
    assert m.values == (a, a**2, a**3, a**4)


def test_second_cumulant_is_variance():
    m = MomentSequence((F(2, 3), F(7, 4)))
    k = free_cumulants_from_moments(m)
    assert k.values[1] == F(7, 4) - F(2, 3) ** 2
    c = classical_cumulants_from_moments(m)
    assert c.values == k.values  # orders 1 and 2 agree across kinds


def test_gaussian_classical():
    c = CumulantSequence(frac_seq([0, 1, 0, 0]), CLASSICAL)
    m = moments_from_classical_cumulants(c)
    assert m.values == frac_seq([0, 1, 0, 3])
    assert classical_cumulants_from_moments(m).values == c.values


def test_classical_poisson():
    c = CumulantSequence(frac_seq([1, 1, 1, 1]), CLASSICAL)
    assert moments_from_classical_cumulants(c).values == frac_seq([1, 2, 5, 15])


def test_semicircle_classical_fourth_cumulant():
    m = MomentSequence(frac_seq([0, 1, 0, 2]))
    c = classical_cumulants_from_moments(m)
    k = free_cumulants_from_moments(m)
    assert c.values[3] == F(-1)
    assert k.values[3] == F(0)


def test_bernoulli_free_cumulants():
    m = MomentSequence(frac_seq([0, 1, 0, 1]))
    assert free_cumulants_from_moments(m).values == frac_seq([0, 1, 0, -1])


# --------------------------------------------------------------- convolution


def test_free_convolve_semicircles():
    m = MomentSequence(frac_seq([0, 1, 0, 2]))
    assert free_convolve(m, m).values == frac_seq([0, 2, 0, 8])


def test_free_convolve_bernoulli_arcsine():
    m = MomentSequence(frac_seq([0, 1, 0, 1]))
    assert free_convolve(m, m).values == frac_seq([0, 2, 0, 6])


def test_free_convolve_order_mismatch():
    with pytest.raises(ValidationError):
        free_convolve(
            MomentSequence(frac_seq([0, 1])), MomentSequence(frac_seq([0]))
        )


def test_free_convolve_point_mass_is_shift():
    a = F(1, 2)
    mu = MomentSequence(frac_seq([1, 3, 9]))  # arbitrary
    delta = MomentSequence((a, a**2, a**3))
    shifted = free_convolve(mu, delta)
    k_mu = free_cumulants_from_moments(mu)
    k_sh = free_cumulants_from_moments(shifted)
    assert k_sh.values[0] == k_mu.values[0] + a
    assert k_sh.values[1:] == k_mu.values[1:]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
)
def test_free_convolve_commutes(xs, ys):
    n = min(len(xs), len(ys))
    a = MomentSequence(tuple(xs[:n]))
    b = MomentSequence(tuple(ys[:n]))
    assert free_convolve(a, b) == free_convolve(b, a)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)
def test_free_convolve_associates(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = (MomentSequence(tuple(v[:n])) for v in (xs, ys, zs))
    assert free_convolve(free_convolve(a, b), c) == free_convolve(
        a, free_convolve(b, c)
    )


# ------------------------------------------------------------- round tripping


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8))
def test_free_round_trip(values):
    m = MomentSequence(tuple(values))
    k = free_cumulants_from_moments(m)
    assert moments_from_free_cumulants(k) == m
    assert free_cumulants_from_moments(moments_from_free_cumulants(k)) == k


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8))
def test_classical_round_trip(values):
    m = MomentSequence(tuple(values))
    c = classical_cumulants_from_moments(m)
    assert moments_from_classical_cumulants(c) == m


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6), rationals)
def test_moment_shift_covariance(values, a):
    """Shifting the underlying variable by a changes m_i to the binomial
    convolution; equivalently free convolution with a point mass."""
    from math import comb

    m = MomentSequence(tuple(values))
    p = m.p
    delta = MomentSequence(tuple(a**i for i in range(1, p + 1)))
    shifted = free_convolve(m, delta)
    full = (F(1),) + m.values  # m_0 = 1
    expected = tuple(
        sum(comb(i, j) * a ** (i - j) * full[j] for j in range(i + 1))
        for i in range(1, p + 1)
    )
    assert shifted.values == expected


# ----------------------------------------------- tables vs direct enumeration


@pytest.mark.parametrize("p", range(1, 8))
def test_forward_free_sum_matches_direct_enumeration(p):
    k = tuple(F(2 * i - 3, i + 1) for i in range(1, p + 1))
    fast = moments_from_free_cumulants(CumulantSequence(k, FREE))
    direct = [
        sum(
            (product_over_blocks(q.blocks, list(k)) for q in enumerate_nc(i)),
            F(0),
        )
        for i in range(1, p + 1)
    ]
    assert list(fast.values) == direct


@pytest.mark.parametrize("p", range(1, 7))
def test_inverse_free_sum_matches_direct_enumeration(p):
    m = tuple(F(i * i - 2, 3) for i in range(1, p + 1))
    fast = free_cumulants_from_moments(MomentSequence(m))
    direct = []
    for i in range(1, p + 1):
        top = NCPartition.full(i)
        direct.append(
            sum(
                (
                    mobius_nc(NCInterval(q, top))
                    * product_over_blocks(q.blocks, list(m))
                    for q in enumerate_nc(i)
                ),
                F(0),
            )
        )
    assert list(fast.values) == direct


@pytest.mark.parametrize("p", range(1, 7))
def test_classical_sums_match_set_partition_enumeration(p):
    c = tuple(F(3 - i, 2) for i in range(1, p + 1))
    fast = moments_from_classical_cumulants(CumulantSequence(c, CLASSICAL))
    direct = [
        sum(
            (product_over_blocks(q, list(c)) for q in set_partitions(i)),
            F(0),
        )
        for i in range(1, p + 1)
    ]
    assert list(fast.values) == direct


# ------------------------------------------------------- classical recursion


def test_classical_recursion_agrees_with_partition_path():
    """Both classical directions against the set-partition sums, the
    inverse weighted by the partition-lattice Mobius value
    (-1)^(r-1) (r-1)! of an r-block partition."""
    m = tuple(F(i, i + 2) for i in range(1, 9))
    c = tuple(F(3 - 2 * i, i + 1) for i in range(1, 9))
    by_partitions_c, by_partitions_m = [], []
    for i in range(1, 9):
        parts = set_partitions(i)
        by_partitions_c.append(sum(
            (
                (-1) ** (len(q) - 1) * factorial(len(q) - 1)
                * product_over_blocks(q, list(m))
                for q in parts
            ),
            F(0),
        ))
        by_partitions_m.append(
            sum((product_over_blocks(q, list(c)) for q in parts), F(0))
        )
    by_recursion_c = classical_cumulants_from_moments(MomentSequence(m))
    by_recursion_m = moments_from_classical_cumulants(
        CumulantSequence(c, CLASSICAL)
    )
    assert list(by_recursion_c.values) == by_partitions_c
    assert list(by_recursion_m.values) == by_partitions_m


def bell_numbers(count):
    """B_1..B_count by the Bell triangle: each row starts with the last
    entry of the row above, and each next entry is the one before it plus
    the entry above that one."""
    row, out = [1], []
    for _ in range(count):
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        out.append(row[0])
    return out


def test_high_order_classical_bell_numbers():
    c = CumulantSequence(tuple(F(1) for _ in range(30)), CLASSICAL)
    m = moments_from_classical_cumulants(c)
    # Poisson(1) moments are the Bell numbers
    assert m.values[:6] == frac_seq([1, 2, 5, 15, 52, 203])
    assert m.values == frac_seq(bell_numbers(30))
    assert classical_cumulants_from_moments(m).values == c.values
