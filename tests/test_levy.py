"""Drift/jump pairs: cumulant maps, pair arithmetic, moment bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments.cumulants import (
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from freemoments.cumulants import CLASSICAL
from freemoments.errors import (
    BudgetError,
    MomentDoesNotExistError,
    UnsupportedOperationError,
    ValidationError,
)
from freemoments.levy import (
    _LEVY_BUDGET,
    LevyPair,
    _check_budget,
    _levy_work,
    _moments_work,
    cumulants_from_levy,
    diagnose_moment_transfer,
    dilate_levy,
    levy_add,
    moment_growth_bound,
    moments_of_classical_id,
    moments_of_free_id,
)
from freemoments.measures import Measure

from oracles import shifted_poisson_model

F = Fraction


def pair(gamma, atoms) -> LevyPair:
    return LevyPair(gamma, Measure.discrete(atoms))


def atom_strategy():
    return st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.fractions(min_value=F(1, 4), max_value=F(2)),
        ),
        min_size=0,
        max_size=3,
        unique_by=lambda a: a[0],
    )


# ------------------------------------------------------------- cumulant maps


def test_atom_at_zero_gives_semicircle():
    p = pair(0, [(0, 1)])
    k = cumulants_from_levy(p, 6)
    assert k.values == (0, 1, 0, 0, 0, 0)
    assert moments_of_free_id(p, 6).values == (0, 1, 0, 2, 0, 5)
    assert moments_of_classical_id(p, 6).values == (0, 1, 0, 3, 0, 15)


def test_free_poisson_pair():
    # gamma = rate/2 and a half-rate atom at 1 give constant cumulants
    p = pair("1/2", [(1, "1/2")])
    assert cumulants_from_levy(p, 5).values == (1, 1, 1, 1, 1)
    assert moments_of_free_id(p, 4).values == (1, 2, 5, 14)
    assert moments_of_classical_id(p, 4).values == (1, 2, 5, 15)


def test_unit_atom_cumulants():
    k = cumulants_from_levy(pair(0, [(1, 1)]), 5)
    assert k.values == (1, 2, 2, 2, 2)


def test_general_formula_small_order():
    # k_1 = gamma + m_1, k_2 = mass + m_2, k_3 = m_1 + m_3
    p = pair(2, [(-1, "1/2"), (2, "1/4")])
    m1 = F(-1, 2) + F(1, 2)
    m2 = F(1, 2) + 1
    m3 = F(-1, 2) + 2
    k = cumulants_from_levy(p, 3)
    assert k.values == (2 + m1, F(3, 4) + m2, m1 + m3)


def test_classical_and_free_share_values():
    p = pair("-1/3", [(1, 1), (-2, "1/5")])
    kf = cumulants_from_levy(p, 6)
    kc = cumulants_from_levy(p, 6, "classical")
    assert kf.values == kc.values
    assert kf.kind == "free" and kc.kind == "classical"


def test_empty_sigma_is_a_point_mass():
    p = LevyPair("7/3", Measure.discrete([]))
    assert moments_of_free_id(p, 3).values == (F(7, 3), F(49, 9), F(343, 27))


def test_density_sigma():
    # semicircle jump measure: exact sigma-moments feed straight through
    sigma = Measure.semicircle(0, 2)
    p = LevyPair(0, sigma)
    k = cumulants_from_levy(p, 5)
    assert k.values == (0, 2, 0, 3, 0)  # m = (1, 0, 1, 0, 2, 0)


def test_cauchy_sigma_has_no_cumulants():
    p = LevyPair(0, Measure.cauchy())
    with pytest.raises(MomentDoesNotExistError):
        cumulants_from_levy(p, 2)


def test_kind_tag_flows_through():
    k = cumulants_from_levy(pair(0, [(1, 1)]), 3, kind="classical")
    assert k.kind == "classical"
    assert k.values == cumulants_from_levy(pair(0, [(1, 1)]), 3).values


def test_validation():
    with pytest.raises(ValidationError):
        LevyPair(0.5, Measure.discrete([]))
    with pytest.raises(ValidationError):
        LevyPair(0, "not a measure")
    with pytest.raises(ValidationError):
        cumulants_from_levy(pair(0, [(1, 1)]), 0)


# ------------------------------------------------------------ pair arithmetic


@given(
    g1=st.fractions(min_value=F(-2), max_value=F(2)),
    g2=st.fractions(min_value=F(-2), max_value=F(2)),
    a1=atom_strategy(),
    a2=atom_strategy(),
)
@settings(max_examples=60, deadline=None)
def test_superposition_adds_cumulants(g1, g2, a1, a2):
    p1, p2 = pair(g1, a1), pair(g2, a2)
    total = levy_add(p1, p2)
    k1 = cumulants_from_levy(p1, 5).values
    k2 = cumulants_from_levy(p2, 5).values
    kt = cumulants_from_levy(total, 5).values
    assert kt == tuple(x + y for x, y in zip(k1, k2))


def test_superposition_merges_coincident_atoms():
    total = levy_add(pair(1, [(2, 1)]), pair(0, [(2, "1/2"), (3, 1)]))
    assert total.sigma.atoms == ((F(2), F(3, 2)), (F(3), F(1)))


def test_superposition_of_matching_densities():
    p1 = LevyPair(0, Measure.semicircle(0, 2))
    p2 = LevyPair(1, Measure.semicircle(0, 2, mass=2))
    total = levy_add(p1, p2)
    assert total.sigma.mass == 3
    p3 = LevyPair(0, Measure.semicircle(1, 2))
    with pytest.raises(UnsupportedOperationError):
        levy_add(p1, p3)
    assert levy_add(p1, LevyPair(1, Measure.discrete([]))).sigma == p1.sigma


@given(
    g=st.fractions(min_value=F(-2), max_value=F(2)),
    atoms=atom_strategy(),
    t=st.fractions(min_value=F(-3), max_value=F(3)).filter(lambda t: t != 0),
)
@settings(max_examples=60, deadline=None)
def test_dilation_scales_cumulants(g, atoms, t):
    p = pair(g, atoms)
    k = cumulants_from_levy(p, 6).values
    kd = cumulants_from_levy(dilate_levy(p, t), 6).values
    assert kd == tuple(t**q * k[q - 1] for q in range(1, 7))


def test_dilation_guards():
    with pytest.raises(ValidationError):
        dilate_levy(pair(0, [(1, 1)]), 0)
    with pytest.raises(UnsupportedOperationError):
        dilate_levy(LevyPair(0, Measure.semicircle(0, 2)), 2)


@given(
    t=st.fractions(min_value=F(-2), max_value=F(2)).filter(lambda t: t != 0),
    c=st.fractions(min_value=F(1, 4), max_value=F(4)),
)
@settings(max_examples=40, deadline=None)
def test_shifted_poisson_matches_any_single_atom(t, c):
    # the matrix model's cumulants: scale^q * rate at every order q, plus
    # the shift at order 1
    params = shifted_poisson_model(t, c)
    k = cumulants_from_levy(pair(0, [(t, c)]), 6).values
    model = [params["scale"] ** q * params["rate"] for q in range(1, 7)]
    model[0] += params["shift"]
    assert k == tuple(model)


# ------------------------------------------------------------- moment bounds


def test_growth_bound_unit_atom_is_tight():
    # all cumulants positive, so the triangle inequality is an equality
    p = pair(0, [(1, 1)])
    bounds = moment_growth_bound(p, 4)
    assert bounds == (1, 3, 9, 31)
    assert moments_of_free_id(p, 4).values == (1, 3, 9, 31)


def test_diagnose_report_shape():
    report = diagnose_moment_transfer(pair(0, [(1, 1)]), 4)
    assert [r["order"] for r in report] == [1, 2, 3, 4]
    assert report[3]["moment"] == 31 and report[3]["bound"] == 31
    assert report[3]["ratio"] == 1
    assert all(r["within"] for r in report)


def test_bound_strict_for_signed_atoms():
    # odd sigma-moments cancel in the cumulants but add in the bound
    report = diagnose_moment_transfer(pair(0, [(-1, 1), (1, 1)]), 4)
    assert all(r["within"] for r in report)
    assert any(r["ratio"] < 1 for r in report)


@given(
    g=st.fractions(min_value=F(-2), max_value=F(2)),
    atoms=atom_strategy(),
)
@settings(max_examples=60, deadline=None)
def test_bound_dominates_moments(g, atoms):
    report = diagnose_moment_transfer(pair(g, atoms), 6)
    assert all(r["within"] for r in report)


def test_bound_with_density_sigma():
    p = LevyPair(0, Measure.marchenko_pastur(1))
    assert all(r["within"] for r in diagnose_moment_transfer(p, 5))
    straddling = LevyPair(0, Measure.semicircle(0, 2))
    with pytest.raises(UnsupportedOperationError):
        moment_growth_bound(straddling, 3)
    shifted = LevyPair(0, Measure.semicircle(3, 2))
    assert all(r["within"] for r in diagnose_moment_transfer(shifted, 5))


# --------------------------------------------------- consistency with moments


@given(g=st.fractions(min_value=F(-1), max_value=F(1)), atoms=atom_strategy())
@settings(max_examples=40, deadline=None)
def test_cumulants_of_generated_law_round_trip(g, atoms):
    p = pair(g, atoms)
    k = cumulants_from_levy(p, 5)
    m = moments_from_free_cumulants(k)
    assert free_cumulants_from_moments(m) == k
    assert moments_of_free_id(p, 5) == m


def test_self_convolution_power():
    # adding a pair to itself doubles every cumulant: the law is the free
    # self-convolution, whose fourth moment we can pin by hand
    p = pair(0, [(0, "1/2")])  # semicircle, variance 1/2
    doubled = levy_add(p, p)
    m = moments_of_free_id(doubled, 4)
    assert m.values == (0, 1, 0, 2)


def test_levy_budget_refuses_by_its_estimate():
    # the free moments of this pair took 2.2 s at order 100 and 37 s at
    # order 200; the estimate reads only the order and the input's sizes
    slow = pair(F(1, 3), [(F(1, 3), F(1, 7)), (F(-5, 11), F(2, 13))])
    assert _levy_work(slow, 100) <= _LEVY_BUDGET < _levy_work(slow, 200)
    _check_budget(_levy_work(slow, 100), 100)
    with pytest.raises(BudgetError, match="lower the order"):
        _check_budget(_levy_work(slow, 200), 200)
    with pytest.raises(BudgetError, match="past 1e300"):
        _check_budget(_levy_work(slow, 10**400), 10**400)
    # the classical sweep is p^2 products: order 200 fits
    _check_budget(_levy_work(slow, 200, CLASSICAL), 200)
    # p^3/6 products of about p h / 64 words, h = 3 + 3 + 7 bits of the atoms
    assert _levy_work(slow, 128) == 128**3 // 6 * (1 + 2 * 13)
    # wider atoms make each product longer
    wide = pair(F(1, 3), [(F(12345678901, 98765432107), F(1, 7)), (F(-5, 11), F(2, 13))])
    assert _levy_work(wide, 100) > _LEVY_BUDGET


def test_levy_budget_admits_the_orders_the_command_line_runs():
    # jump measures of up to three atoms in [-8, 8] with denominators up to
    # 4, as the benchmark's levy calls draw them, at orders 3-8
    widest = pair(F(-6, 7), [(F(-7, 3), F(7, 8)), (F(5, 3), F(8, 7)), (F(-5, 4), F(5, 7))])
    for p in range(3, 9):
        for kind in ("free", CLASSICAL):
            assert _levy_work(widest, p, kind) < _LEVY_BUDGET // 1000


def test_moments_budget_refuses_by_its_estimate():
    # the moments of the semicircle (1/3, 5/7) took 4.0 s at order 500 and
    # 23 s at order 1000, those of Marchenko-Pastur (3/2) 1.9 and 20 s; a
    # uniform window and a two-atom law take at most 0.04 s at order 1000.
    # The estimate reads only the order, the kind and the input's sizes
    semicircle = Measure.semicircle(F(1, 3), F(5, 7))
    marchenko_pastur = Measure.marchenko_pastur(F(3, 2))
    for mu in (semicircle, marchenko_pastur):
        _check_budget(_moments_work(mu, 300), 300)
        for p in (500, 1000):
            with pytest.raises(BudgetError, match="lower the order"):
                _check_budget(_moments_work(mu, p), p)
        with pytest.raises(BudgetError, match="past 1e300"):
            _check_budget(_moments_work(mu, 10**400), 10**400)
    for mu in (Measure.uniform(-1, 1), Measure.discrete([(-1, F(1, 2)), (1, F(1, 2))])):
        _check_budget(_moments_work(mu, 1000), 1000)
    # p^2 products of about p h / 64 words, h = 3 + 3 + 6 bits of 1/3 and 5/7
    assert _moments_work(semicircle, 128) == 128**2 * (1 + 2 * 12)
    # p products per atom, p for a uniform window; the Cauchy law has none
    assert _moments_work(Measure.discrete([(-1, F(1, 2)), (1, F(1, 2))]), 64) == 2 * 64 * 8
    assert _moments_work(Measure.uniform(-1, 1), 64) == 64 * 8
    assert _moments_work(Measure.cauchy(), 10**6) == 0


def test_moments_budget_admits_the_orders_the_command_line_runs():
    # the benchmark's moments --measure calls run orders 3-10
    for mu in (
        Measure.semicircle(F(-7, 3), F(13, 4)),
        Measure.marchenko_pastur(F(13, 4)),
        Measure.uniform(F(-7, 3), F(13, 4)),
        Measure.discrete([(F(-7, 3), F(7, 23)), (F(5, 3), F(8, 23)), (F(-5, 4), F(8, 23))]),
    ):
        assert _moments_work(mu, 10) < _LEVY_BUDGET // 1000
