"""Self-checking acceptance battery.

Ten deterministic criteria, each with a pinned tolerance and a runtime
budget, covering the whole pipeline: exact moment/cumulant combinatorics,
formal series, pinned transforms, numeric ray recovery of Taylor
coefficients, support bounds, Levy-pair correspondents and their semigroup,
the random-matrix oracle, and lattice size bounds.

Two exact oracles share no code with the free cumulant sweep they check:
``_partition_sum_cumulants`` sums over the enumerated lattice, and
``_lagrange_cumulants`` runs the formal-series chain by Lagrange inversion.

``run_suite`` executes every requested criterion (failures never
short-circuit the rest) and returns one :class:`CriterionResult` per
criterion; ``format_report`` renders one PASS/FAIL line each.  A criterion
that overruns its runtime budget fails even if all its checks pass.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .cumulants import (
    CLASSICAL,
    CumulantSequence,
    MomentSequence,
    free_convolve,
    free_cumulants_from_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
)
from .errors import FreemomentsError, ValidationError
from .levy import (
    LevyPair,
    cumulants_from_levy,
    diagnose_moment_transfer,
    levy_add,
)
from .measures import Measure, moments
from .noncrossing import (
    NCInterval,
    NCPartition,
    _mobius_sweep,
    catalan,
    enumerate_nc,
    mobius_nc,
    refines,
)

# mpmath and the rays, rmt (with numpy) and series layers are imported
# inside the criteria that run them, so a suite of exact criteria, or a
# refused one, loads none of them.

SUITE_SEED = 20260825


@dataclass(frozen=True)
class CriterionResult:
    slug: str
    description: str
    passed: bool
    detail: str
    seconds: float


class _Checks:
    """Collects labelled pass/fail checks for one criterion."""

    def __init__(self) -> None:
        self.total = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, label: str) -> None:
        self.total += 1
        if not condition:
            self.failures.append(label)

    def result(self, summary: str) -> tuple[bool, str]:
        if self.failures:
            shown = "; ".join(self.failures[:3])
            extra = len(self.failures) - 3
            if extra > 0:
                shown += f"; and {extra} more"
            return False, f"{len(self.failures)}/{self.total} checks failed: {shown}"
        return True, f"{summary} ({self.total} checks)"


def _random_moment_sequences(
    count: int, max_order: int, seed: int
) -> list[MomentSequence]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = rng.randint(1, max_order)
        values = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)
        )
        out.append(MomentSequence(values))
    return out


def _fmt(x) -> str:
    import mpmath as mp

    return mp.nstr(mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x, 3)


# ------------------------------------------------------------------ criteria


@lru_cache(maxsize=None)
def _nc_mobius_by_sizes(n: int) -> dict[tuple[int, ...], int]:
    """For each block-size profile, the sum over NC(n) of the Mobius value
    up to the one-block partition.  Enumeration oracle for the criteria that
    check the production transforms; run_suite clears it, so it is built
    once per order per run."""
    full = NCPartition.full(n)
    totals: dict[tuple[int, ...], int] = {}
    for pi in enumerate_nc(n):
        key = pi.block_sizes()
        totals[key] = totals.get(key, 0) + mobius_nc(NCInterval(pi, full))
    return totals


def _partition_sum_cumulants(m: MomentSequence) -> tuple[Fraction, ...]:
    """k_n = sum over NC(n) of mu(pi, 1_n) times the moments over the blocks
    of pi, summed directly from the lattice: shares no code with the
    functional-relation sweep or the Lagrange chain below."""
    out = []
    for n in range(1, m.p + 1):
        acc = Fraction(0)
        for profile, weight in _nc_mobius_by_sizes(n).items():
            term = Fraction(weight)
            for size in profile:
                term *= m[size]
            acc += term
        out.append(acc)
    return tuple(out)


def _series_product(a, b) -> tuple[Fraction, ...]:
    """Coefficient tuples a_0..a_N of truncated series: a * b, truncated to
    the smaller order."""
    n = min(len(a), len(b))
    return tuple(
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)
    )


def _series_reciprocal(a) -> tuple[Fraction, ...]:
    """Multiplicative inverse; a_0 = 0 raises ZeroDivisionError."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        acc = sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(-out[0] * acc)
    return tuple(out)


def _series_comp_inverse(a) -> tuple[Fraction, ...]:
    """Compositional inverse g with a(g(z)) = z + O(z^(N+1)), for a_0 = 0 and
    a_1 != 0.  Lagrange inversion: g_k = [w^(k-1)] h(w)^k / k with
    h = w / a(w), so one power of h per order and no re-composition."""
    if len(a) < 2 or a[0] != 0 or a[1] == 0:
        raise ValueError("compositional inverse needs a_0 = 0 and a_1 != 0")
    h = _series_reciprocal(a[1:])
    g = [Fraction(0)]
    power = h
    for k in range(1, len(a)):
        g.append(power[k - 1] / k)
        power = _series_product(power, h)
    return tuple(g)


def _g_expansion(m: MomentSequence) -> tuple[Fraction, ...]:
    """G(1/z) near 0: z + m_1 z^2 + ... + m_p z^(p+1)."""
    return (Fraction(0), Fraction(1)) + m.values


def _lagrange_cumulants(m: MomentSequence) -> tuple[Fraction, ...]:
    """k_1..k_p from the chain: L is the compositional inverse of the G
    expansion, and 1/L = 1/z + R, so R = (reciprocal(L/z) - 1)/z."""
    ell = _series_comp_inverse(_g_expansion(m))
    return _series_reciprocal(ell[1:])[1:]


def _criterion_roundtrip() -> tuple[bool, str]:
    """Moment -> free cumulant -> moment is exactly the identity (and the
    reverse composition too) on random rational sequences of order <= 10,
    and the cumulants equal the partition-sum oracle."""
    checks = _Checks()
    for i, m in enumerate(_random_moment_sequences(200, 10, SUITE_SEED)):
        k = free_cumulants_from_moments(m)
        checks.expect(
            k.values == _partition_sum_cumulants(m),
            f"sequence {i}: m->k differs from the partition sum",
        )
        checks.expect(
            moments_from_free_cumulants(k).values == m.values,
            f"sequence {i}: m->k->m changed the values",
        )
        as_k = CumulantSequence(m.values)
        back = free_cumulants_from_moments(moments_from_free_cumulants(as_k))
        checks.expect(
            back.values == as_k.values,
            f"sequence {i}: k->m->k changed the values",
        )
    return checks.result(
        "200 random rational sequences round-tripped exactly and matched "
        "the partition sum"
    )


def _criterion_series() -> tuple[bool, str]:
    """The formal-series route to R coefficients (Lagrange inversion) agrees
    exactly with the partition-sum oracle and with the production free
    cumulants, the functional-relation sweep, on the same random sequences."""
    checks = _Checks()
    for i, m in enumerate(_random_moment_sequences(200, 10, SUITE_SEED)):
        series = _lagrange_cumulants(m)
        checks.expect(
            series == _partition_sum_cumulants(m),
            f"sequence {i}: series and partition cumulants differ",
        )
        checks.expect(
            series == free_cumulants_from_moments(m).values,
            f"sequence {i}: series and functional-relation cumulants differ",
        )
    return checks.result(
        "series route matched the partition sum and the functional relation "
        "on 200 sequences"
    )


def _criterion_pinned() -> tuple[bool, str]:
    """Pinned R-transforms: point mass -> constant a, semicircle ->
    m + (r^2/4) z (exact); Cauchy -> constant -i on the ray (numeric)."""
    import mpmath as mp

    from .rays import invert_g_on_ray

    checks = _Checks()
    a = Fraction(7, 3)
    dirac = free_cumulants_from_moments(moments(Measure.dirac(a), 8))
    checks.expect(
        dirac.values == (a,) + (Fraction(0),) * 7,
        "point mass: R is not the constant a",
    )
    m, r = Fraction(1, 2), Fraction(3)
    semi = free_cumulants_from_moments(moments(Measure.semicircle(m, r), 8))
    checks.expect(
        semi.values == (m, r * r / 4) + (Fraction(0),) * 6,
        "semicircle: R is not m + (r^2/4) z",
    )
    std = free_cumulants_from_moments(moments(Measure.semicircle(0, 2), 8))
    checks.expect(
        std.values == (Fraction(0), Fraction(1)) + (Fraction(0),) * 6,
        "standard semicircle: R is not z",
    )
    samples = invert_g_on_ray(Measure.cauchy(), dps=50)
    with mp.workdps(50):
        dev = max(abs(rv + 1j) for rv in samples.r_values)
        checks.expect(
            dev < mp.mpf("1e-8"),
            f"Cauchy: max |R + i| = {_fmt(dev)} on the ray (tol 1e-8)",
        )
    return checks.result(f"exact pins plus Cauchy ray deviation {_fmt(dev)}")


def _five_atom_measure(seed: int) -> Measure:
    rng = random.Random(seed)
    locations: dict[Fraction, Fraction] = {}
    while len(locations) < 5:
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        locations[t] = Fraction(rng.randint(1, 9), 1)
    total = sum(locations.values())
    return Measure.discrete([(t, w / total) for t, w in locations.items()])


def _criterion_taylor() -> tuple[bool, str]:
    """Numeric Taylor coefficients from the ray match the exact free
    cumulants at order 4 for four reference measures."""
    import mpmath as mp

    from .rays import verify_taylor_cumulants

    half = Fraction(1, 2)
    cases = [
        ("semicircle", Measure.semicircle(0, 2), mp.mpf("1e-5")),
        ("marchenko-pastur", Measure.marchenko_pastur(1), mp.mpf("1e-4")),
        ("two-atom", Measure.discrete([(-1, half), (1, half)]), mp.mpf("1e-5")),
        ("five-atom", _five_atom_measure(SUITE_SEED + 4), mp.mpf("1e-5")),
    ]
    checks = _Checks()
    worst = mp.mpf(0)
    for label, mu, tol in cases:
        check = verify_taylor_cumulants(mu, 4, dps=50)
        with mp.workdps(50):
            err = mp.mpf(check.max_error)
            worst = max(worst, err / tol)
            checks.expect(
                err <= tol,
                f"{label}: max coefficient error {_fmt(err)} > {_fmt(tol)}",
            )
    return checks.result(
        f"4 measures at order 4, worst error/tolerance ratio {_fmt(worst)}"
    )


def _criterion_nonreal() -> tuple[bool, str]:
    """A law without moments yields a decisively non-real constant
    coefficient, and the fit flags it."""
    import mpmath as mp

    from .rays import estimate_taylor_on_ray, invert_g_on_ray

    samples = invert_g_on_ray(Measure.cauchy(), dps=50)
    est = estimate_taylor_on_ray(samples, 2)
    checks = _Checks()
    with mp.workdps(50):
        magnitude = abs(est.imag_parts[0])
        checks.expect(
            magnitude > mp.mpf("0.999"),
            f"|imag(b_0)| = {_fmt(magnitude)} <= 0.999",
        )
    checks.expect(bool(est.nonreal[0]), "non-real flag did not fire on b_0")
    return checks.result(f"|imag(b_0)| = {_fmt(magnitude)}, flag fired")


def _criterion_support() -> tuple[bool, str]:
    """The cumulant support bound evaluates to exactly 16 for the standard
    semicircle and the rate-1 Marchenko-Pastur law, and both true supports
    sit inside [-16, 16].  The factor-8 conservatism is documented, not
    patched."""
    import mpmath as mp

    from .series import support_bound_from_cumulants

    checks = _Checks()
    semi_k = free_cumulants_from_moments(moments(Measure.semicircle(0, 2), 6))
    mp_k = free_cumulants_from_moments(moments(Measure.marchenko_pastur(1), 6))
    semi_bound = support_bound_from_cumulants(semi_k)
    mp_bound = support_bound_from_cumulants(mp_k)
    checks.expect(
        semi_bound == Fraction(16), f"semicircle bound {semi_bound} != 16"
    )
    checks.expect(
        mp_bound == Fraction(16), f"marchenko-pastur bound {mp_bound} != 16"
    )
    checks.expect(
        isinstance(semi_bound, Fraction) and isinstance(mp_bound, Fraction),
        "bounds are not exact rationals",
    )
    with mp.workdps(30):
        semi_radius = Measure.semicircle(0, 2).support_radius()
        mp_radius = Measure.marchenko_pastur(1).support_radius()
        checks.expect(
            semi_radius <= 16 and mp_radius <= 16,
            "a true support escapes [-16, 16]",
        )
    return checks.result(
        "both bounds exactly 16; true supports [-2,2] and [0,4] contained"
    )


def _criterion_levy_pins() -> tuple[bool, str]:
    """The two canonical positive pairs: free Poisson (all cumulants equal
    to the rate, Catalan-like moment ladder vs the classical Bell ladder)
    and the centered unit pair whose correspondents are the semicircle and
    the Gaussian."""
    checks = _Checks()
    half = Fraction(1, 2)
    poisson = LevyPair(half, Measure.discrete([(1, half)]))
    free_k = cumulants_from_levy(poisson, 4)
    classical_k = cumulants_from_levy(poisson, 4, CLASSICAL)
    checks.expect(
        free_k.values == (Fraction(1),) * 4,
        "rate-1 pair: free cumulants are not all 1",
    )
    checks.expect(
        classical_k.values == (Fraction(1),) * 4,
        "rate-1 pair: classical cumulants are not all 1",
    )
    checks.expect(
        moments_from_free_cumulants(free_k).values
        == (Fraction(1), Fraction(2), Fraction(5), Fraction(14)),
        "rate-1 pair: free moments are not (1,2,5,14)",
    )
    checks.expect(
        moments_from_classical_cumulants(classical_k).values
        == (Fraction(1), Fraction(2), Fraction(5), Fraction(15)),
        "rate-1 pair: classical moments are not (1,2,5,15)",
    )
    unit = LevyPair(0, Measure.discrete([(0, 1)]))
    checks.expect(
        moments_from_free_cumulants(cumulants_from_levy(unit, 4)).values
        == (Fraction(0), Fraction(1), Fraction(0), Fraction(2)),
        "centered unit pair: free side is not the semicircle",
    )
    checks.expect(
        moments_from_classical_cumulants(cumulants_from_levy(unit, 4, CLASSICAL)).values
        == (Fraction(0), Fraction(1), Fraction(0), Fraction(3)),
        "centered unit pair: classical side is not the Gaussian",
    )
    a = Fraction(5, 3)
    drift = LevyPair(a, Measure.discrete([]))
    checks.expect(
        moments_from_free_cumulants(cumulants_from_levy(drift, 4)).values
        == moments_from_classical_cumulants(cumulants_from_levy(drift, 4, CLASSICAL)).values
        == (a, a**2, a**3, a**4),
        "pure drift: correspondents are not the point mass",
    )
    return checks.result("free Poisson, semicircle/Gaussian, and drift pins exact")


def _random_levy_pair(rng: random.Random) -> LevyPair:
    gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    atoms: dict[Fraction, Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        w = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        atoms[t] = atoms.get(t, Fraction(0)) + w
    return LevyPair(gamma, Measure.discrete(list(atoms.items())))


def _criterion_semigroup() -> tuple[bool, str]:
    """Pair addition adds cumulants exactly, and the (gamma/n, sigma/n)
    pair is an exact n-th convolution root, for 50 random discrete pairs
    and n in {2, 3, 7}; each pair's free-law moments stay within the growth
    bound from the absolute moments of its Levy measure."""
    checks = _Checks()
    rng = random.Random(SUITE_SEED + 8)
    order = 6
    for i in range(50):
        a = _random_levy_pair(rng)
        b = _random_levy_pair(rng)
        cumulants_a = cumulants_from_levy(a, order)
        cumulants_b = cumulants_from_levy(b, order)
        ka, kb = cumulants_a.values, cumulants_b.values
        checks.expect(
            all(row["within"] for row in diagnose_moment_transfer(a, order)),
            f"pair {i}: a free-law moment exceeds its Levy growth bound",
        )
        total = cumulants_from_levy(levy_add(a, b), order)
        checks.expect(
            total.values == tuple(x + y for x, y in zip(ka, kb)),
            f"pair {i}: addition is not cumulant-additive",
        )
        if i < 10:
            via_moments = free_convolve(
                moments_from_free_cumulants(cumulants_a),
                moments_from_free_cumulants(cumulants_b),
            )
            checks.expect(
                via_moments.values == moments_from_free_cumulants(total).values,
                f"pair {i}: pair addition disagrees with free convolution",
            )
        for n in (2, 3, 7):
            root = LevyPair(a.gamma / n, a.sigma.scaled(Fraction(1, n)))
            scaled = cumulants_from_levy(root, order).values
            checks.expect(
                scaled == tuple(k / n for k in ka),
                f"pair {i}: (gamma/{n}, sigma/{n}) does not scale cumulants by 1/{n}",
            )
            acc = root
            for _ in range(n - 1):
                acc = levy_add(acc, root)
            checks.expect(
                cumulants_from_levy(acc, order).values == ka,
                f"pair {i}: {n}-fold sum of the scaled pair is not the original",
            )
    return checks.result("50 random pairs: additivity and n-th roots exact")


def _criterion_matrices() -> tuple[bool, str]:
    """Monte Carlo trace moments reproduce the exact predictions for the
    three reference ensembles, and the free-sum run statistically separates
    the free prediction from plausible classical-convolution values."""
    from .rmt import (
        MatrixEnsembleSpec,
        compare_to_prediction,
        predicted_moments,
        sample_trace_moments,
    )

    checks = _Checks()
    gue = MatrixEnsembleSpec(kind="gue", dim=500, trials=40, seed=SUITE_SEED)
    wishart = MatrixEnsembleSpec(
        kind="wishart", dim=500, trials=40, seed=SUITE_SEED + 1, rate=Fraction(1)
    )
    bernoulli = Measure.discrete([(-1, "1/2"), (1, "1/2")])
    part = MatrixEnsembleSpec(
        kind="deterministic", dim=600, trials=1, seed=0, measure=bernoulli
    )
    free_sum = MatrixEnsembleSpec(
        kind="free_sum", dim=600, trials=40, seed=SUITE_SEED + 2, parts=(part, part)
    )
    cases = (("gue", gue, 6), ("wishart", wishart, 4), ("free-sum", free_sum, 4))
    for label, spec, order in cases:
        est = sample_trace_moments(spec, order)
        report = compare_to_prediction(est, predicted_moments(spec, order))
        for row in report:
            checks.expect(
                row["within"],
                f"{label} order {row['order']}: |{_fmt(row['difference'])}| exceeds "
                f"allowance {_fmt(row['allowance'])}",
            )
    # est and report now hold the free-sum run, the last case.  The free
    # prediction for the fourth moment is 6.  A classical (independent) sum
    # of the same two Bernoulli matrices would have fourth moment 8; the
    # sampler must reject that, and also the value 4 sometimes quoted for
    # this discriminator, at the same allowance.
    allowance = report[3]["allowance"]
    sampled = est.means[3]
    for classical_value in (4.0, 8.0):
        checks.expect(
            abs(sampled - classical_value) > allowance,
            f"free-sum m_4 = {_fmt(sampled)} does not reject "
            f"classical value {classical_value}",
        )
    return checks.result(
        f"3 ensembles within allowance; m_4 = {_fmt(sampled)} rejects 4 and 8"
    )


def _criterion_lattice() -> tuple[bool, str]:
    """Enumerated lattice sizes and top-interval Mobius values stay under
    4^n for n <= 10, and on every interval for n <= 7 the closed-form Mobius
    product equals the one solution of the defining relation, swept over
    the poset: sum_{lower <= r <= q} mu(lower, r) = [q = lower]."""
    checks = _Checks()
    for n in range(1, 11):
        bound = 4**n
        full = NCPartition.full(n)
        parts = enumerate_nc(n)
        count = len(parts)
        worst = max(abs(mobius_nc(NCInterval(pi, full))) for pi in parts)
        checks.expect(count == catalan(n), f"n={n}: count {count} != Catalan")
        checks.expect(count <= bound, f"n={n}: count {count} > 4^n")
        checks.expect(worst <= bound, f"n={n}: max |Mobius| {worst} > 4^n")
    # a linear extension, finer first: every r < q comes before q
    parts = sorted(enumerate_nc(7), key=lambda q: -q.num_blocks)
    compared = 0
    for lower in parts:
        above = [q for q in parts if refines(lower, q)]
        compared += len(above)
        for q, swept in zip(above, _mobius_sweep(above)):
            if mobius_nc(NCInterval(lower, q)) != swept:
                interval = f"{lower.blocks} <= {q.blocks}"
                checks.expect(False, f"closed-form Mobius breaks its relation on {interval}")
    checks.expect(compared == 7752, f"expected 7752 intervals in NC(7), saw {compared}")
    return checks.result(
        "counts and Mobius bounded by 4^n up to n=10; 7752 intervals cross-checked"
    )


@dataclass(frozen=True)
class _Criterion:
    slug: str
    description: str
    budget_seconds: float
    run: Callable[[], tuple[bool, str]]


CRITERIA: tuple[_Criterion, ...] = (
    _Criterion(
        "moment-cumulant-roundtrip",
        "free moment/cumulant conversions invert each other exactly",
        30.0,
        _criterion_roundtrip,
    ),
    _Criterion(
        "series-matches-partitions",
        "formal-series R coefficients equal partition-sum cumulants",
        30.0,
        _criterion_series,
    ),
    _Criterion(
        "pinned-r-transforms",
        "point mass, semicircle, Cauchy transforms hit their closed forms",
        60.0,
        _criterion_pinned,
    ),
    _Criterion(
        "taylor-recovery",
        "ray-fitted Taylor coefficients reproduce exact free cumulants",
        120.0,
        _criterion_taylor,
    ),
    _Criterion(
        "nonreal-direction-flag",
        "momentless law produces a flagged non-real constant coefficient",
        60.0,
        _criterion_nonreal,
    ),
    _Criterion(
        "support-bound",
        "cumulant support bound is exactly 16 and contains the true supports",
        30.0,
        _criterion_support,
    ),
    _Criterion(
        "levy-correspondents",
        "canonical pairs map to free Poisson / semicircle / Gaussian exactly",
        30.0,
        _criterion_levy_pins,
    ),
    _Criterion(
        "levy-semigroup",
        "pair addition and n-th convolution roots act exactly on cumulants",
        60.0,
        _criterion_semigroup,
    ),
    _Criterion(
        "matrix-oracle",
        "sampled trace moments match free predictions and reject classical",
        180.0,
        _criterion_matrices,
    ),
    _Criterion(
        "lattice-size-bounds",
        "lattice counts and Mobius values bounded; closed form equals recursion",
        120.0,
        _criterion_lattice,
    ),
)

CRITERIA_BY_SLUG = {c.slug: c for c in CRITERIA}


def run_criterion(criterion: _Criterion) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = criterion.run()
    except FreemomentsError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if passed and seconds > criterion.budget_seconds:
        passed = False
        detail += (
            f"; runtime {seconds:.1f}s exceeded the "
            f"{criterion.budget_seconds:.0f}s budget"
        )
    return CriterionResult(
        slug=criterion.slug,
        description=criterion.description,
        passed=passed,
        detail=detail,
        seconds=seconds,
    )


def run_suite(only: Iterable[str] | None = None) -> list[CriterionResult]:
    """Run the requested criteria (all by default, in declaration order)."""
    _nc_mobius_by_sizes.cache_clear()
    if only is None:
        selected: Sequence[_Criterion] = CRITERIA
    else:
        slugs = list(only)
        if not slugs:
            raise ValidationError("no criteria selected")
        unknown = [s for s in slugs if s not in CRITERIA_BY_SLUG]
        if unknown:
            known = ", ".join(c.slug for c in CRITERIA)
            raise ValidationError(
                f"unknown criteria {unknown}; known criteria: {known}"
            )
        selected = [CRITERIA_BY_SLUG[s] for s in slugs]
    return [run_criterion(c) for c in selected]


def format_report(results: Sequence[CriterionResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.slug} ({res.seconds:.2f}s): {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} criteria passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)


def suite_report_json(results: Sequence[CriterionResult]) -> dict:
    return {
        "criteria": [
            {
                "slug": r.slug,
                "description": r.description,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
