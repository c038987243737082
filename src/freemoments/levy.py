"""Infinitely divisible laws described by a drift/jump pair (gamma, sigma):
a real drift gamma and a finite positive measure sigma on the real line.

One pair describes two laws at once.  On the free side its R-transform is

    R(z) = gamma + integral of (z + x) / (1 - x z) dsigma(x),

so the free cumulants come straight from the moments of sigma:

    k_1 = gamma + m_1(sigma),   k_p = m_{p-2}(sigma) + m_p(sigma)  (p >= 2),

with m_0 = total mass.  On the classical side the log characteristic
function has the same canonical integral structure, and the classical
cumulants are given by the *same* numbers.  The two laws differ only in how
cumulants combine into moments, which the cumulants module already handles;
this module supplies the pair arithmetic (superposition, dilation), the
cumulant/moment maps, and an a priori growth bound on moments in terms of
absolute moments of sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    _WORD_BUDGET,
    _check_order,
    _exact_bits,
    as_fraction,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
)
from .errors import UnsupportedOperationError, ValidationError, _check_work
from .measures import (
    DENSITY,
    DISCRETE,
    MARCHENKO_PASTUR,
    SEMICIRCLE,
    UNIFORM,
    Measure,
    absolute_moments,
    moments,
)


@dataclass(frozen=True)
class LevyPair:
    """Drift gamma plus jump-intensity measure sigma."""

    gamma: Fraction
    sigma: Measure

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if not isinstance(self.sigma, Measure):
            raise ValidationError("sigma must be a Measure")


def _canonical_cumulants(drift: Fraction, m: tuple) -> tuple[Fraction, ...]:
    """k_1 = drift + m_1 and k_q = m_(q-2) + m_q (q >= 2) from
    m = (m_0, m_1, ..., m_p), m_0 the total mass."""
    return (drift + m[1],) + tuple(m[q - 2] + m[q] for q in range(2, len(m)))


def cumulants_from_levy(pair: LevyPair, p: int, kind: str = FREE) -> CumulantSequence:
    """Cumulants of order 1..p of the law generated by the pair.  The free
    and classical readings share the same numbers; only the kind tag
    changes."""
    _check_order(p)
    m = (pair.sigma.mass,) + moments(pair.sigma, p).values
    return CumulantSequence(_canonical_cumulants(pair.gamma, m), kind=kind)


def _levy_work(pair: LevyPair, p: int, kind: str = FREE) -> int:
    """Estimated word products of the cumulants and moments of order <= p
    of the law of the pair (`_moments_work`): p^3/6 for the free sweep, p^2
    for the classical one, whose p^2/2 carry a binomial of up to p bits."""
    return _moments_work(pair.sigma, p, p**3 // 6 if kind == FREE else p * p)


def _moments_work(mu: Measure, p: int, products: int | None = None) -> int:
    """Estimated word products of `products` products of Fractions over
    mu's moments of order <= p, by default those of the moments alone: p^2
    for the semicircle's binomial and Marchenko-Pastur's Narayana sums, p
    per atom, p for a uniform window, none for the Cauchy law.  Each counts
    as its size in 64-bit words, which the time follows up to 8000 bits at
    least: about p h bits at most, as m_p holds the p-th powers of mu's
    atoms (or density parameters), whose denominators multiply, so h sums
    their bits, plus 3 for the counting factors (Catalan numbers and
    binomials).  From the input's sizes alone."""
    by_kind = {SEMICIRCLE: p * p, MARCHENKO_PASTUR: p * p, UNIFORM: p}
    products = by_kind.get(mu.density, p * len(mu.atoms)) if products is None else products
    numbers = [t for t, _ in mu.atoms] + [v for _, v in mu.params]
    h = 3 + sum(_exact_bits(x) for x in numbers)
    return products * (1 + p * h // 64)


def _check_budget(work: int, p: int) -> None:
    """The budget of `_levy_work` and `_moments_work`, for order p."""
    _check_work(
        work, _WORD_BUDGET, f"the moments of order {p} take", "word products", "lower the order"
    )


def moments_of_free_id(pair: LevyPair, p: int) -> MomentSequence:
    """Moments of the freely infinitely divisible law of the pair."""
    return moments_from_free_cumulants(cumulants_from_levy(pair, p))


def moments_of_classical_id(pair: LevyPair, p: int) -> MomentSequence:
    """Moments of the classically infinitely divisible law of the pair."""
    return moments_from_classical_cumulants(cumulants_from_levy(pair, p, CLASSICAL))


# ------------------------------------------------------------ pair arithmetic


def _merge_sigmas(a: Measure, b: Measure) -> Measure:
    if a.kind == DISCRETE and not a.atoms:
        return b
    if b.kind == DISCRETE and not b.atoms:
        return a
    if a.kind == DISCRETE and b.kind == DISCRETE:
        weights: dict[Fraction, Fraction] = {t: w for t, w in a.atoms}
        for t, w in b.atoms:
            weights[t] = weights.get(t, Fraction(0)) + w
        return Measure.discrete(sorted(weights.items()))
    if (
        a.kind == DENSITY
        and b.kind == DENSITY
        and a.density == b.density
        and a.params == b.params
    ):
        return Measure(DENSITY, density=a.density, params=a.params, mass=a.mass + b.mass)
    raise UnsupportedOperationError(
        "can only superpose discrete jump measures or identical density shapes"
    )


def levy_add(a: LevyPair, b: LevyPair) -> LevyPair:
    """Superposition: drifts add, jump measures add.  Cumulants of either
    generated law are additive under this operation."""
    return LevyPair(a.gamma + b.gamma, _merge_sigmas(a.sigma, b.sigma))


def dilate_levy(pair: LevyPair, t) -> LevyPair:
    """Pair of the dilation x -> t x of the generated law (discrete sigma
    only; the reweighting keeps the canonical form)."""
    t = as_fraction(t)
    if t == 0:
        raise ValidationError("dilation factor must be nonzero")
    if pair.sigma.kind != DISCRETE:
        raise UnsupportedOperationError("dilation needs a discrete sigma")
    atoms = []
    drift_correction = Fraction(0)
    for x, c in pair.sigma.atoms:
        scale = t * t * (1 + x * x) / (1 + t * t * x * x)
        atoms.append((t * x, c * scale))
        drift_correction += c * x / (1 + t * t * x * x)
    gamma = t * pair.gamma + t * (1 - t * t) * drift_correction
    return LevyPair(gamma, Measure.discrete(atoms))


# ------------------------------------------------------------- moment bounds


def moment_growth_bound(pair: LevyPair, p: int) -> tuple[Fraction, ...]:
    """B_1..B_p with |m_q(free law)| <= B_q: replace every cumulant in the
    moment expansion by the bound |gamma| + mhat_1 (singletons) or
    mhat_{q-2} + mhat_q (blocks of size q), mhat the absolute moments of
    sigma: the free moments of that bound sequence."""
    _check_order(p)
    mhat = (pair.sigma.mass,) + absolute_moments(pair.sigma, p)
    bound = _canonical_cumulants(abs(pair.gamma), mhat)
    return moments_from_free_cumulants(CumulantSequence(bound)).values


def diagnose_moment_transfer(pair: LevyPair, p: int) -> list[dict]:
    """Per-order comparison of the actual free-law moments against the
    a priori growth bound; `ratio` is |moment| / bound (0 when the bound
    degenerates to 0)."""
    actual = moments_of_free_id(pair, p)
    bounds = moment_growth_bound(pair, p)
    report = []
    for q in range(1, p + 1):
        m, bound = actual[q], bounds[q - 1]
        report.append(
            {
                "order": q,
                "moment": m,
                "bound": bound,
                "ratio": Fraction(0) if bound == 0 else abs(m) / bound,
                "within": abs(m) <= bound,
            }
        )
    return report
