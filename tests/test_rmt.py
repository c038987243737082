"""Random-matrix sampling against exact moment predictions."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from freemoments.cumulants import MomentSequence
from freemoments.errors import BudgetError, SizeLimitError, ValidationError
from freemoments.levy import LevyPair, moments_of_free_id
from freemoments.measures import Measure
from freemoments.rmt import (
    DEFAULT_BUDGET,
    MatrixEnsembleSpec,
    _HALF_POWER_MAX_ORDER,
    _cost_units,
    _haar_columns,
    compare_to_prediction,
    ensemble_spec_from_json,
    ensemble_spec_to_json,
    predicted_moments,
    sample_matrix,
    sample_trace_moments,
)

from oracles import shifted_poisson_model

F = Fraction


def bernoulli_diag(dim: int, **kw) -> MatrixEnsembleSpec:
    return MatrixEnsembleSpec(
        kind="deterministic",
        dim=dim,
        measure=Measure.discrete([(-1, "1/2"), (1, "1/2")]),
        **kw,
    )


# --------------------------------------------------------------------- basics


def test_spec_validation():
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="goe", dim=10)
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="gue", dim=0)
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="gue", dim=10, trials=0)
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="gue", dim=10, seed=-1)
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="wishart", dim=10)  # rate missing
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="gue", dim=10, rate=2)
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="deterministic", dim=10, measure=Measure.semicircle(0, 2))
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(
            kind="free_sum",
            dim=10,
            parts=(bernoulli_diag(10), bernoulli_diag(12)),
        )
    # a free sum's parts are drawn once per trial of the parent, from its
    # generator: their own trials and seed would be ignored
    for part in (bernoulli_diag(10, trials=2), bernoulli_diag(10, seed=1)):
        with pytest.raises(ValidationError, match="trials or seed"):
            MatrixEnsembleSpec(kind="free_sum", dim=10, parts=(part, bernoulli_diag(10)))
    with pytest.raises(ValidationError):
        MatrixEnsembleSpec(kind="gue", dim=10, scale=0.5)
    # sampling runs in floats
    with pytest.raises(ValidationError, match="scale"):
        MatrixEnsembleSpec(kind="gue", dim=4, scale="1e400")
    with pytest.raises(ValidationError, match="shift"):
        MatrixEnsembleSpec(kind="gue", dim=4, shift="-1e400")
    with pytest.raises(ValidationError, match="atom location"):
        MatrixEnsembleSpec(
            kind="deterministic", dim=4, measure=Measure.discrete([("1e400", 1)])
        )


def test_compare_rejects_prediction_past_float_range():
    # scale 1e100 keeps the spec in range, but m_4 = 2 * 10^400 is not
    spec = MatrixEnsembleSpec(kind="gue", dim=4, scale="1e100")
    with np.errstate(over="ignore", invalid="ignore"):
        est = sample_trace_moments(spec, 4)
    with pytest.raises(SizeLimitError, match="order 4"):
        compare_to_prediction(est, predicted_moments(spec, 4))


def test_wishart_columns_rounding():
    assert MatrixEnsembleSpec(kind="wishart", dim=10, rate=2).wishart_columns() == 20
    assert MatrixEnsembleSpec(kind="wishart", dim=10, rate="3/2").wishart_columns() == 15
    assert MatrixEnsembleSpec(kind="wishart", dim=7, rate="1/5").wishart_columns() == 1
    # half-up at .5
    assert MatrixEnsembleSpec(kind="wishart", dim=2, rate="5/4").wishart_columns() == 3


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(11)
    u = _haar_columns(40, 40, rng)
    assert np.allclose(u @ u.conj().T, np.eye(40), atol=1e-10)


@pytest.mark.parametrize("m", [0, 1, 7, 39, 40])
def test_haar_columns_are_the_leading_columns_of_the_full_draw(m):
    # Gram-Schmidt works column by column, and both draws take all 2 n^2
    # normals, so the generators end in the same state
    full_rng, part_rng = np.random.default_rng(8), np.random.default_rng(8)
    full = _haar_columns(40, 40, full_rng)
    part = _haar_columns(40, m, part_rng)
    assert part.shape == (40, m)
    np.testing.assert_allclose(part, full[:, :m], rtol=0, atol=1e-12)
    assert full_rng.standard_normal() == part_rng.standard_normal()


def test_haar_trace_statistics():
    # for Haar, E tr U = 0 and E |tr U|^2 = 1 independent of n
    rng = np.random.default_rng(5)
    traces = np.array([np.trace(_haar_columns(25, 25, rng)) for _ in range(400)])
    assert abs(traces.mean()) < 0.15
    assert 0.75 < np.mean(np.abs(traces) ** 2) < 1.3


def test_sample_matrix_is_hermitian():
    rng = np.random.default_rng(0)
    for spec in (
        MatrixEnsembleSpec(kind="gue", dim=30),
        MatrixEnsembleSpec(kind="wishart", dim=30, rate=2),
        bernoulli_diag(30),
        MatrixEnsembleSpec(
            kind="free_sum", dim=30, parts=(bernoulli_diag(30), bernoulli_diag(30))
        ),
        MatrixEnsembleSpec(kind="gue", dim=30, scale="1/2", shift=-3),
    ):
        h = sample_matrix(spec, rng)
        assert h.shape == (30, 30)
        assert np.allclose(h, h.conj().T)


# -------------------------------------------------------------- reproducibility


def test_same_seed_same_estimate():
    spec = MatrixEnsembleSpec(kind="gue", dim=40, trials=6, seed=123)
    a = sample_trace_moments(spec, 4)
    b = sample_trace_moments(spec, 4)
    assert a.per_trial == b.per_trial


def test_trial_prefix_is_stable():
    # trial i only depends on (seed, i): adding trials never changes old ones
    few = sample_trace_moments(
        MatrixEnsembleSpec(kind="gue", dim=40, trials=3, seed=9), 4
    )
    many = sample_trace_moments(
        MatrixEnsembleSpec(kind="gue", dim=40, trials=8, seed=9), 4
    )
    assert many.per_trial[:3] == few.per_trial


def test_different_seeds_differ():
    a = sample_trace_moments(MatrixEnsembleSpec(kind="gue", dim=40, trials=2, seed=1), 2)
    b = sample_trace_moments(MatrixEnsembleSpec(kind="gue", dim=40, trials=2, seed=2), 2)
    assert a.per_trial != b.per_trial


# ------------------------------------------------------------------ estimates


def test_deterministic_moments_are_exact():
    spec = bernoulli_diag(100)
    est = sample_trace_moments(spec, 4)
    assert est.means == (0.0, 1.0, 0.0, 1.0)
    assert est.stderrs == (0.0, 0.0, 0.0, 0.0)
    report = compare_to_prediction(est, predicted_moments(spec, 4))
    assert all(r["within"] for r in report)


def test_deterministic_rounding_warns():
    spec = MatrixEnsembleSpec(
        kind="deterministic",
        dim=100,
        measure=Measure.discrete([(0, "1/3"), (1, "2/3")]),
    )
    with pytest.warns(UserWarning, match="rounded"):
        h = sample_matrix(spec, np.random.default_rng(0))
    assert np.isclose(np.trace(h).real, 67.0)  # largest-remainder split 33/67


def test_gue_matches_semicircle():
    spec = MatrixEnsembleSpec(kind="gue", dim=150, trials=24, seed=42)
    est = sample_trace_moments(spec, 6)
    exact = predicted_moments(spec, 6)
    assert exact.values == (0, 1, 0, 2, 0, 5)
    report = compare_to_prediction(est, exact)
    assert all(r["within"] for r in report)


def test_wishart_matches_constant_cumulant_law():
    spec = MatrixEnsembleSpec(kind="wishart", dim=120, rate=2, trials=24, seed=7)
    est = sample_trace_moments(spec, 5)
    exact = predicted_moments(spec, 5)
    assert exact.values == (2, 6, 22, 90, 394)
    report = compare_to_prediction(est, exact)
    assert all(r["within"] for r in report)


def test_free_sum_matches_free_convolution():
    # two Bernoulli diagonals in free position: the arcsine law
    spec = MatrixEnsembleSpec(
        kind="free_sum",
        dim=150,
        trials=24,
        seed=3,
        parts=(bernoulli_diag(150), bernoulli_diag(150)),
    )
    exact = predicted_moments(spec, 4)
    assert exact.values == (0, 2, 0, 6)
    report = compare_to_prediction(sample_trace_moments(spec, 4), exact)
    assert all(r["within"] for r in report)


def test_affine_prediction_and_sampling_agree():
    base = bernoulli_diag(100)
    spec = MatrixEnsembleSpec(
        kind="deterministic",
        dim=100,
        measure=base.measure,
        scale=3,
        shift="-1/2",
    )
    est = sample_trace_moments(spec, 3)
    exact = predicted_moments(spec, 3)
    # 3 B - 1/2 with B = +-1: moments of {-7/2, 5/2} with equal weight
    assert exact.values == (F(-1, 2), F(37, 4), F(-109, 8))
    for got, want in zip(est.means, exact.values):
        assert abs(got - float(want)) < 1e-9


def test_matched_model_for_free_id_law():
    # the zero-drift pair with a single jump atom has the same law as an
    # affinely mapped wishart matrix; check moments end to end
    pair = LevyPair(0, Measure.discrete([(1, 6)]))
    params = shifted_poisson_model(1, 6)
    assert params == {"scale": 1, "rate": 12, "shift": -6}
    spec = MatrixEnsembleSpec(
        kind="wishart",
        dim=150,
        rate=params["rate"],
        scale=params["scale"],
        shift=params["shift"],
        trials=20,
        seed=99,
    )
    exact = moments_of_free_id(pair, 4)
    assert predicted_moments(spec, 4).values == exact.values
    report = compare_to_prediction(sample_trace_moments(spec, 4), exact)
    assert all(r["within"] for r in report)


def test_estimate_json_shape():
    est = sample_trace_moments(MatrixEnsembleSpec(kind="gue", dim=20, trials=3), 2)
    data = est.to_json()
    assert data["dim"] == 20 and data["trials"] == 3
    assert data["orders"] == [1, 2] and len(data["means"]) == 2


def test_compare_needs_enough_orders():
    est = sample_trace_moments(MatrixEnsembleSpec(kind="gue", dim=20, trials=2), 3)
    with pytest.raises(ValidationError):
        compare_to_prediction(est, MomentSequence((F(0), F(1))))


# --------------------------------------------------------------------- budget


def test_budget_guard():
    spec = MatrixEnsembleSpec(kind="gue", dim=2000, trials=500)
    with pytest.raises(BudgetError):
        sample_trace_moments(spec, 6)
    tiny = MatrixEnsembleSpec(kind="gue", dim=8, trials=2)
    with pytest.raises(BudgetError):
        sample_trace_moments(tiny, 2, budget=10)
    assert sample_trace_moments(tiny, 2, budget=float("inf")).p == 2


def test_budget_counts_the_prediction():
    # the exact prediction of a free sum grows like p^3 rational
    # multiply-adds on ever longer rationals, that of a single node like p^2
    bernoulli_sum = MatrixEnsembleSpec(
        kind="free_sum", dim=20, parts=(bernoulli_diag(20), bernoulli_diag(20))
    )
    small_gue = MatrixEnsembleSpec(kind="gue", dim=10)
    for spec in (bernoulli_sum, small_gue):
        assert _cost_units(spec, 10**4) > DEFAULT_BUDGET
    # refused before any sampling, also where the estimate is no float
    for p in (10**5, 10**400):
        with pytest.raises(BudgetError):
            sample_trace_moments(small_gue, p)


def test_default_budget_fits_the_oracle_and_benchmark_shapes():
    half = Measure.discrete([(-1, "1/2"), (1, "1/2")])
    part = MatrixEnsembleSpec(kind="deterministic", dim=600, measure=half)
    oracle = [
        (MatrixEnsembleSpec(kind="gue", dim=500, trials=40), 6),
        (MatrixEnsembleSpec(kind="wishart", dim=500, trials=40, rate=1), 4),
        (MatrixEnsembleSpec(kind="free_sum", dim=600, trials=40, parts=(part, part)), 4),
    ]
    # the largest shapes of the matrix benchmark: N = 400, 8 trials, p <= 6
    det = bernoulli_diag(400)
    bench = [
        (MatrixEnsembleSpec(kind="gue", dim=400, trials=8, scale=2), 6),
        (MatrixEnsembleSpec(kind="wishart", dim=400, trials=8, rate="3/2"), 6),
        (MatrixEnsembleSpec(
            kind="free_sum", dim=400, trials=8,
            parts=(det, MatrixEnsembleSpec(kind="gue", dim=400)),
        ), 6),
    ]
    for spec, p in oracle + bench:
        assert _cost_units(spec, p) <= DEFAULT_BUDGET


def _trial_matrix(spec: MatrixEnsembleSpec, trial: int) -> np.ndarray:
    child = np.random.SeedSequence(spec.seed).spawn(spec.trials)[trial]
    return sample_matrix(spec, np.random.default_rng(child))


def test_trial_rows_are_eigenvalue_power_sums():
    # each trial's row is the eigenvalue power sums over N of sample_matrix
    # at that trial's child seed, so a caller can rebuild any one trial on
    # its own; they equal tr(H^k)/N from matrix powers up to rounding
    specs = [
        MatrixEnsembleSpec(kind="gue", dim=60, trials=3, seed=4),
        MatrixEnsembleSpec(
            kind="wishart", dim=60, trials=3, seed=5, rate="3/2", scale=2, shift="-1/2"
        ),
        bernoulli_diag(60, trials=2, seed=6),
        MatrixEnsembleSpec(
            kind="free_sum", dim=60, trials=3, seed=7,
            parts=(bernoulli_diag(60), MatrixEnsembleSpec(kind="gue", dim=60)),
        ),
    ]
    for spec in specs:
        est = sample_trace_moments(spec, 6)
        assert len(est.per_trial) == spec.trials
        for t, row in enumerate(est.per_trial):
            h = _trial_matrix(spec, t)
            eig = np.linalg.eigvalsh(h)
            want = [np.mean(eig**k) for k in range(1, 7)]
            scale = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12 * scale)
            powers = [np.trace(np.linalg.matrix_power(h, k)).real / spec.dim for k in range(1, 7)]
            np.testing.assert_allclose(row, powers, rtol=1e-10, atol=1e-10 * scale)


def test_budget_counts_one_rotation_product_for_a_diagonal_part():
    # the deterministic and GUE nodes cost the same to draw, so the only
    # difference is the second product of U B U^H
    dim, trials = 50, 3
    gue = MatrixEnsembleSpec(kind="gue", dim=dim)
    one = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, trials=trials, parts=(bernoulli_diag(dim), gue)
    )
    two = MatrixEnsembleSpec(kind="free_sum", dim=dim, trials=trials, parts=(gue, gue))
    assert _cost_units(two, 4) - _cost_units(one, 4) == trials * 4 * dim**3


def test_budget_refuses_large_draws_at_low_orders():
    # at order 2 the trace takes no product, but the draws and the dense
    # arrays of a large N still cost time and memory: one 20000 x 20000
    # complex matrix is 6.4 GB
    for dim, trials in ((20_000, 1), (4_000, 1_000)):
        spec = MatrixEnsembleSpec(kind="gue", dim=dim, trials=trials)
        with pytest.raises(BudgetError):
            sample_trace_moments(spec, 2)


def test_budget_weighs_the_eigendecomposition_at_three_products():
    # order 7 trades the two half-power products of order 6 for one
    # eigvalsh, whose wall time is about three products
    dim, trials = 50, 3
    spec = MatrixEnsembleSpec(kind="gue", dim=dim, trials=trials)
    step = _cost_units(spec, 7) - _cost_units(spec, 6)
    predict = 350_000 * (7**2 - 6**2)
    assert step - predict == trials * (4 * dim**3 + dim * 7 - 4 * dim * dim * 6)


_ROUTE_SPECS = [
    MatrixEnsembleSpec(kind="gue", dim=40, trials=2, seed=11),
    MatrixEnsembleSpec(
        kind="wishart", dim=40, trials=2, seed=12, rate="1/2", scale="3/2", shift="-1/4"
    ),
    MatrixEnsembleSpec(
        kind="wishart", dim=40, trials=2, seed=13, rate="3/2", scale="1/2", shift=1
    ),
    bernoulli_diag(40, trials=2, seed=14, scale=2, shift="1/2"),
    MatrixEnsembleSpec(
        kind="free_sum", dim=40, trials=2, seed=15,
        parts=(bernoulli_diag(40), MatrixEnsembleSpec(kind="gue", dim=40)),
    ),
    MatrixEnsembleSpec(
        kind="free_sum", dim=40, trials=2, seed=16, shift=-1,
        parts=(MatrixEnsembleSpec(kind="wishart", dim=40, rate=2), bernoulli_diag(40)),
    ),
    MatrixEnsembleSpec(
        kind="free_sum", dim=40, trials=2, seed=17, scale="1/2",
        parts=(bernoulli_diag(40), bernoulli_diag(40)),
    ),
]


@pytest.mark.parametrize("p", range(1, 13))
def test_both_trace_routes_are_eigenvalue_power_sums(p):
    # orders up to _HALF_POWER_MAX_ORDER come from half powers, the rest
    # from the eigenvalues; both must give the eigenvalue power sums
    assert 1 < _HALF_POWER_MAX_ORDER < 12
    for spec in _ROUTE_SPECS:
        est = sample_trace_moments(spec, p)
        for t, row in enumerate(est.per_trial):
            eig = np.linalg.eigvalsh(_trial_matrix(spec, t))
            for k, got in enumerate(row, start=1):
                want = np.mean(eig**k)
                size = np.mean(np.abs(eig) ** k)  # tr|H|^k / N, the rounding scale
                assert abs(got - want) <= 1e-12 * max(abs(want), size), (spec.kind, p, t, k)


@pytest.mark.filterwarnings("ignore:weights of the deterministic measure")
@pytest.mark.parametrize("first, second", [
    ("diagonal", "gue"), ("gue", "diagonal"), ("diagonal", "diagonal"), ("gue", "wishart"),
    ("three-atom", "gue"), ("gue", "three-atom"), ("three-atom", "diagonal"),
    ("one-atom", "gue"), ("gue", "one-atom"), ("empty-last-atom", "wishart"),
    ("wishart", "empty-last-atom"),
])
def test_free_sum_has_the_spectrum_of_the_literal_rotation(first, second):
    # rebuilt from the samplers in the draw order part 0, part 1, Haar, on
    # the same child generator as the trial.  A diagonal part rotates only
    # the columns of the atoms before its last: 20 of 30 for the
    # counts 5, 15, 10 of the three-atom part (whose map x -> -2x + 1/2
    # reverses their order), none for one atom, and 15 where the last
    # atom's weight rounds to the count 0
    def diagonal(*atoms, **affine):
        return lambda: MatrixEnsembleSpec(
            kind="deterministic", dim=30, measure=Measure.discrete(atoms), **affine
        )

    make = {
        "diagonal": lambda: bernoulli_diag(30),
        "gue": lambda: MatrixEnsembleSpec(kind="gue", dim=30),
        "wishart": lambda: MatrixEnsembleSpec(kind="wishart", dim=30, rate="3/2"),
        "three-atom": diagonal((-2, "1/6"), ("1/2", "1/2"), (3, "1/3"), scale=-2, shift="1/2"),
        "one-atom": diagonal((5, 1)),
        "empty-last-atom": diagonal((-1, "1/2"), (1, "1/2"), (2, "1/1000")),
    }
    spec = MatrixEnsembleSpec(
        kind="free_sum", dim=30, trials=3, seed=21, scale="3/2", shift="-1/2",
        parts=(make[first](), make[second]()),
    )
    for t in range(spec.trials):
        child = np.random.SeedSequence(spec.seed).spawn(spec.trials)[t]
        rng = np.random.default_rng(child)
        a = sample_matrix(spec.parts[0], rng)
        b = sample_matrix(spec.parts[1], rng)
        u = _haar_columns(spec.dim, spec.dim, rng).conj().T
        if spec.parts[1].kind == "deterministic" and spec.parts[0].kind != "deterministic":
            u = u.conj().T  # a diagonal second part alone is rotated by U^H, also Haar
        literal = 1.5 * (a + u @ b @ u.conj().T) - 0.5 * np.eye(spec.dim)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(_trial_matrix(spec, t)), np.linalg.eigvalsh(literal),
            rtol=0, atol=1e-10,
        )


def test_size_limit_path_does_not_warn():
    # the overflow is reported as a SizeLimitError, so numpy must not also
    # print a RuntimeWarning about it
    spec = MatrixEnsembleSpec(kind="gue", dim=10, trials=2, scale="1e200")
    wide = MatrixEnsembleSpec(kind="wishart", dim=10, trials=2, rate=2, scale="1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = sample_trace_moments(spec, 1)
        with pytest.raises(SizeLimitError, match="order 1"):
            compare_to_prediction(est, predicted_moments(spec, 1))
        with pytest.raises(SizeLimitError, match="sampled matrix"):
            sample_trace_moments(wide, 1)


def test_non_finite_samples_are_size_limit_errors():
    # entries past the float range are refused before the eigensolver
    wide = MatrixEnsembleSpec(kind="wishart", dim=10, trials=2, rate=2, scale="1e308")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SizeLimitError, match="sampled matrix"):
            sample_trace_moments(wide, 1)
    # finite samples whose spread overflows: the stderr of m_1 is not a float
    spec = MatrixEnsembleSpec(kind="gue", dim=10, trials=2, scale="1e200")
    with np.errstate(over="ignore", invalid="ignore"):
        est = sample_trace_moments(spec, 1)
    with pytest.raises(SizeLimitError, match="order 1"):
        compare_to_prediction(est, predicted_moments(spec, 1))


# ----------------------------------------------------------------------- JSON


def test_spec_json_round_trip():
    specs = [
        MatrixEnsembleSpec(kind="gue", dim=30, trials=5, seed=2),
        MatrixEnsembleSpec(kind="wishart", dim=30, rate="3/2", scale=2, shift="-1/3"),
        bernoulli_diag(16, trials=2),
        MatrixEnsembleSpec(
            kind="free_sum", dim=12, parts=(bernoulli_diag(12), bernoulli_diag(12))
        ),
    ]
    for spec in specs:
        assert ensemble_spec_from_json(ensemble_spec_to_json(spec)) == spec


@pytest.mark.parametrize("field", ["dim", "trials", "seed"])
def test_spec_json_rejects_booleans_as_counts(field):
    # bool is an int subclass in Python, but JSON true is not a count
    with pytest.raises(ValidationError, match=field):
        ensemble_spec_from_json(dict({"kind": "gue", "dim": 4}, **{field: True}))
    with pytest.raises(ValidationError, match=field):
        MatrixEnsembleSpec(**dict({"kind": "gue", "dim": 4}, **{field: False}))


def test_spec_json_rejects_junk():
    with pytest.raises(ValidationError):
        ensemble_spec_from_json({"kind": "gue"})
    with pytest.raises(ValidationError):
        ensemble_spec_from_json({"kind": "gue", "dim": 10, "flavor": "mild"})
    with pytest.raises(ValidationError):
        ensemble_spec_from_json([1, 2])


def _matched_spectrum_min(pair: LevyPair, dim: int, trials: int, seed: int) -> float:
    (t, c), = pair.sigma.atoms
    params = shifted_poisson_model(t, c)
    spec = MatrixEnsembleSpec(
        kind="wishart",
        dim=dim,
        rate=params["rate"],
        scale=params["scale"],
        shift=params["shift"],
        trials=trials,
        seed=seed,
    )
    smallest = float("inf")
    for child in np.random.SeedSequence(seed).spawn(trials):
        h = sample_matrix(spec, np.random.default_rng(child))
        smallest = min(smallest, float(np.linalg.eigvalsh(h).min()))
    return smallest


def test_matched_spectrum_soft_positivity():
    # (0, 6*delta_1): exact support edge 7 - 4*sqrt(3) ~ +0.07, so the
    # sampled spectrum should sit above -0.15 even with finite-size
    # fluctuation below the edge
    smallest = _matched_spectrum_min(LevyPair(0, Measure.discrete([(1, 6)])), 200, 5, 31)
    assert smallest >= -0.15


def test_positive_jumps_do_not_imply_nonnegative_law():
    # (0, delta_1): the exact law has support edge 2 - 2*sqrt(2) ~ -0.83,
    # so a positive jump measure alone does not give a law on [0, inf);
    # the soft positivity check above is scoped to pairs whose exact edge
    # is nonnegative
    smallest = _matched_spectrum_min(LevyPair(0, Measure.discrete([(1, 1)])), 200, 5, 32)
    assert smallest < -0.5
