"""Random-matrix sampling against exact moment predictions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freemoments.cumulants import MomentSequence, free_convolve
from freemoments.errors import BudgetError, SizeLimitError, ValidationError
from freemoments.levy import LevyPair, moments_of_free_id
from freemoments.measures import Measure, _affine_moments
from freemoments.rmt import (
    DEFAULT_BUDGET,
    MatrixEnsembleSpec,
    _cost_units,
    _diagonal,
    _haar_columns,
    _trace_moments,
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
    with pytest.raises(ValidationError, match="two or more"):
        MatrixEnsembleSpec(kind="free_sum", dim=10, parts=(bernoulli_diag(10),))
    # a nested sum's map folds into its leaves, which must stay floats too
    big = MatrixEnsembleSpec(
        kind="free_sum", dim=4, scale="1e200", parts=(bernoulli_diag(4, scale="1e200"),) * 2
    )
    with pytest.raises(ValidationError, match="past the float range"):
        MatrixEnsembleSpec(kind="free_sum", dim=4, parts=(big, bernoulli_diag(4)))


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


def _plain_sample(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """sample_matrix as plain expressions with their temporaries: GUE,
    Wishart, deterministic and diagonal-diagonal free sums (part 0
    rotated, with the Haar columns of its atoms before the last)."""
    n = spec.dim
    if spec.kind == "gue":
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / (2 * math.sqrt(n))
    elif spec.kind == "wishart":
        m = spec.wishart_columns()
        x = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)
        h = (x @ x.conj().T) / n
    elif spec.kind == "deterministic":
        h = np.diag(_diagonal(spec)).astype(complex)
    else:
        part, other = spec.parts
        raw = _diagonal(part)
        m = int(np.searchsorted(raw, raw[-1]))
        d = float(part.scale) * raw + float(part.shift)
        rest = _plain_sample(other, rng)
        real = rng.standard_normal((n, n))
        imag = rng.standard_normal((n, n))
        q, r = np.linalg.qr(real[:, :m] + 1j * imag[:, :m])
        phases = np.diagonal(r).copy()
        phases[phases == 0] = 1.0
        v = q * (phases / np.abs(phases))
        h = (v * (d[:m] - d[-1])) @ v.conj().T + rest
        h[np.diag_indices(n)] += d[-1]
    if spec.scale != 1 or spec.shift != 0:
        h = float(spec.scale) * h + float(spec.shift) * np.eye(n)
    return h


@pytest.mark.filterwarnings("ignore:weights of the deterministic measure")
@pytest.mark.parametrize("affine", [
    {}, {"scale": "3/2"}, {"shift": "-1/3"}, {"scale": -2, "shift": "1/2"},
], ids=["plain", "scale", "shift", "scale-shift"])
def test_sample_matrix_keeps_the_bits_of_the_plain_expressions(affine):
    # building in place changes no bit of a sample that draws no Haar
    # unitary beside an invariant part
    three = Measure.discrete([(-2, "1/6"), ("1/2", "1/2"), (3, "1/3")])
    specs = []
    for dim in (1, 7, 30):
        diag = MatrixEnsembleSpec(kind="deterministic", dim=dim, measure=three, **affine)
        specs += [
            MatrixEnsembleSpec(kind="gue", dim=dim, **affine),
            bernoulli_diag(dim, **affine),
            diag,
            MatrixEnsembleSpec(
                kind="free_sum", dim=dim, parts=(bernoulli_diag(dim), diag), **affine
            ),
            MatrixEnsembleSpec(
                kind="free_sum", dim=dim, parts=(diag, bernoulli_diag(dim, scale=-1)), **affine
            ),
            # one part object twice: the first position is still the rotated one
            MatrixEnsembleSpec(kind="free_sum", dim=dim, parts=(diag, diag), **affine),
        ]
        specs += [
            MatrixEnsembleSpec(kind="wishart", dim=dim, rate=rate, **affine)
            for rate in ("1/2", 1, "3/2")
        ]
    for spec in specs:
        for seed in (0, 17):
            got = sample_matrix(spec, np.random.default_rng(seed))
            want = _plain_sample(spec, np.random.default_rng(seed))
            assert np.array_equal(got, want), (spec, seed)


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


def _pairwise_moments(spec: MatrixEnsembleSpec, p: int) -> MomentSequence:
    """The prediction of a pair free sum by its definition, recursively:
    the free cumulants of the parts add, then the sum's map applies."""
    if spec.kind != "free_sum":
        return predicted_moments(spec, p)
    total = free_convolve(*(_pairwise_moments(part, p) for part in spec.parts))
    return MomentSequence(_affine_moments(total.values, spec.scale, spec.shift))


def test_a_free_sum_of_three_parts_is_the_nested_sum():
    # both have the same leaves with the same maps, so the same samples,
    # the same exact prediction and the same cost
    dim = 20
    a = bernoulli_diag(dim, scale="1/2")
    b = MatrixEnsembleSpec(kind="gue", dim=dim, shift=1)
    c = MatrixEnsembleSpec(
        kind="deterministic", dim=dim, measure=Measure.discrete([(-2, "1/4"), (3, "3/4")])
    )
    flat = MatrixEnsembleSpec(kind="free_sum", dim=dim, trials=2, seed=4, parts=(a, b, c))
    nested = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, trials=2, seed=4,
        parts=(MatrixEnsembleSpec(kind="free_sum", dim=dim, parts=(a, b)), c),
    )
    for p in (1, 4, 7):
        assert predicted_moments(flat, p) == predicted_moments(nested, p)
        assert _cost_units(flat, p) == _cost_units(nested, p)
    assert np.array_equal(
        sample_matrix(flat, np.random.default_rng(9)),
        sample_matrix(nested, np.random.default_rng(9)),
    )
    assert ensemble_spec_from_json(ensemble_spec_to_json(flat)) == flat
    # with maps on every level, nested sums fold theirs into their leaves
    mapped = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, scale="-3/2", shift="1/3",
        parts=(MatrixEnsembleSpec(kind="free_sum", dim=dim, scale="1/2", shift=-1,
                                  parts=(a, b)), c),
    )
    for p in (1, 4, 7):
        assert predicted_moments(mapped, p) == _pairwise_moments(mapped, p)


def test_nested_free_sum_matches_free_convolution():
    # ((Bernoulli + three-atom) / 2 + 1) + (Bernoulli + GUE - 2): four
    # leaves, two of them rotated, with the inner maps folded in
    dim = 200
    three = MatrixEnsembleSpec(
        kind="deterministic", dim=dim,
        measure=Measure.discrete([(-2, "1/4"), ("1/2", "1/2"), (3, "1/4")]),
    )
    left = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, scale="1/2", shift=1, parts=(bernoulli_diag(dim), three)
    )
    right = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, shift=-2,
        parts=(bernoulli_diag(dim), MatrixEnsembleSpec(kind="gue", dim=dim)),
    )
    spec = MatrixEnsembleSpec(kind="free_sum", dim=dim, trials=40, seed=8, parts=(left, right))
    exact = predicted_moments(spec, 6)
    assert exact == _pairwise_moments(spec, 6)
    report = compare_to_prediction(sample_trace_moments(spec, 6), exact)
    assert all(r["within"] for r in report), report


@pytest.mark.parametrize("first, second, free_m4, classical_m4", [
    # free cumulants (0, 1, 0, -1) + (0, 1): m4 = -1 + 2 * 2^2; a
    # commuting semicircle would give 1 + 6 + 2
    ("bernoulli", "gue", 7, 9),
    # (1, 1, 1, 1) + (0, 1, 0, -1): m4 = 0 + 4 + 8 + 12 + 1; commuting
    # Marchenko-Pastur moments (1, 2, 5, 14) would give 14 + 6 * 2 + 1
    ("wishart", "bernoulli", 25, 27),
])
def test_invariant_free_sum_matches_free_not_classical_convolution(
    first, second, free_m4, classical_m4
):
    # the sum with a GUE or Wishart part is the plain A + B, whose law is
    # that of A + U B U^H: the free convolution, not the classical one
    dim = 200
    make = {
        "bernoulli": lambda: bernoulli_diag(dim),
        "gue": lambda: MatrixEnsembleSpec(kind="gue", dim=dim),
        "wishart": lambda: MatrixEnsembleSpec(kind="wishart", dim=dim, rate=1),
    }
    spec = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, trials=24, seed=5, parts=(make[first](), make[second]())
    )
    exact = predicted_moments(spec, 4)
    assert exact[4] == free_m4
    report = compare_to_prediction(sample_trace_moments(spec, 4), exact)
    assert all(r["within"] for r in report)
    assert abs(report[3]["sampled"] - classical_m4) > report[3]["allowance"]


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
    # a diagonal-diagonal sum pays the Haar QR and one rotation product,
    # a sum with a GUE part neither: it samples its two parts alone.  Two
    # nested sums are four leaves, three of them rotated, and their
    # prediction is five nodes and three free convolutions
    dim, trials, p = 50, 3, 4
    diag = bernoulli_diag(dim)
    one = MatrixEnsembleSpec(kind="free_sum", dim=dim, trials=trials, parts=(diag, diag))
    none = MatrixEnsembleSpec(
        kind="free_sum", dim=dim, trials=trials,
        parts=(diag, MatrixEnsembleSpec(kind="gue", dim=dim)),
    )
    nested = MatrixEnsembleSpec(kind="free_sum", dim=dim, parts=(diag, diag))
    two = MatrixEnsembleSpec(kind="free_sum", dim=dim, trials=trials, parts=(nested, nested))
    draw = 4 * dim**3  # one GUE or deterministic node
    qr, product = 16 * dim**3 // 3, 4 * dim**3
    trace = product + 4 * dim * dim * p  # one half-power product at order 4
    predict = 3 * 350_000 * p * p + 20_000 * p**3  # three nodes, one of them a sum
    assert _cost_units(none, p) == trials * (2 * draw + trace) + predict
    assert _cost_units(one, p) == trials * (2 * draw + qr + product + trace) + predict
    assert _cost_units(two, p) == (
        trials * (4 * draw + 3 * (qr + product) + trace) + 5 * 350_000 * p * p
        + 3 * 20_000 * p**3
    )


def test_budget_refuses_large_draws_at_low_orders():
    # at order 2 the trace takes no product, but the draws and the dense
    # arrays of a large N still cost time and memory: one 20000 x 20000
    # complex matrix is 6.4 GB
    for dim, trials in ((20_000, 1), (4_000, 1_000)):
        spec = MatrixEnsembleSpec(kind="gue", dim=dim, trials=trials)
        with pytest.raises(BudgetError):
            sample_trace_moments(spec, 2)


def test_budget_adds_one_product_per_odd_order():
    # order 2j + 1 makes the half power H^(j+1), one product, and both
    # steps add one inner product of 4 N^2 and the prediction's growth
    dim, trials = 50, 3
    spec = MatrixEnsembleSpec(kind="gue", dim=dim, trials=trials)
    for p in range(2, 13):
        step = _cost_units(spec, p) - _cost_units(spec, p - 1)
        predict = 350_000 * (p**2 - (p - 1) ** 2)
        product = 4 * dim**3 if p % 2 else 0
        assert step - predict == trials * (product + 4 * dim * dim), p


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
    # the even orders are the norms ||H^j||_F^2, the odd ones the inner
    # products Re <H^j, H^(j+1)>; both must give the eigenvalue power sums
    for spec in _ROUTE_SPECS:
        est = sample_trace_moments(spec, p)
        for t, row in enumerate(est.per_trial):
            eig = np.linalg.eigvalsh(_trial_matrix(spec, t))
            for k, got in enumerate(row, start=1):
                want = np.mean(eig**k)
                size = np.mean(np.abs(eig) ** k)  # tr|H|^k / N, the rounding scale
                assert abs(got - want) <= 1e-12 * max(abs(want), size), (spec.kind, p, t, k)


def test_low_orders_keep_the_bits_of_a_list_of_half_powers():
    # up to order 6 the two held powers take the products and the inner
    # products of a list of all half powers H^j, j <= ceil(p/2), in the
    # same order, so every trial moment keeps its bits
    def listed(h, p):
        powers = [h]  # powers[j - 1] = H^j
        while len(powers) < (p + 1) // 2:
            powers.append(h @ powers[-1])
        sums = [np.trace(h).real]
        for k in range(2, p + 1):
            sums.append(np.vdot(powers[k // 2 - 1], powers[(k + 1) // 2 - 1]).real)
        return tuple(float(s) / h.shape[0] for s in sums)

    for spec in _ROUTE_SPECS:
        for p in range(1, 7):
            est = sample_trace_moments(spec, p)
            for t, row in enumerate(est.per_trial):
                assert row == listed(_trial_matrix(spec, t), p), (spec.kind, p, t)


class _CountedProducts(np.ndarray):
    """An array that counts the products `a @ b` it is the left factor of;
    every power made from it is one too."""

    products = 0

    def __matmul__(self, other):
        _CountedProducts.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("p", range(1, 13))
def test_order_p_takes_ceil_half_p_minus_one_products(p, monkeypatch):
    h = _trial_matrix(_ROUTE_SPECS[0], 0)
    monkeypatch.setattr(_CountedProducts, "products", 0)
    _trace_moments(h.view(_CountedProducts), p)
    assert _CountedProducts.products == (p + 1) // 2 - 1


def _literal_sum(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """A free sum of leaves and of nested sums without a map, built
    literally in the draw order of sample_matrix: the unrotated leaves in
    order, then U D U^H with a dense Haar U for each diagonal leaf D but
    the last, then the spec's map."""
    leaves = [leaf for part in spec.parts for leaf in (part.parts or (part,))]
    rotated = [i for i, leaf in enumerate(leaves) if leaf.kind == "deterministic"][:-1]
    total = sum(sample_matrix(leaf, rng) for i, leaf in enumerate(leaves) if i not in rotated)
    for i in rotated:
        u = _haar_columns(spec.dim, spec.dim, rng)
        total = total + u @ sample_matrix(leaves[i], rng) @ u.conj().T
    return float(spec.scale) * total + float(spec.shift) * np.eye(spec.dim)


@pytest.mark.filterwarnings("ignore:weights of the deterministic measure")
@pytest.mark.parametrize("first, second", [
    # a GUE or Wishart partner: the plain sum, no Haar draw
    ("diagonal", "gue"), ("gue", "diagonal"), ("diagonal", "diagonal"), ("gue", "wishart"),
    ("three-atom", "gue"), ("gue", "three-atom"), ("three-atom", "diagonal"),
    ("one-atom", "gue"), ("gue", "one-atom"), ("empty-last-atom", "wishart"),
    ("wishart", "empty-last-atom"),
    # each rotation case with a partner that is not unitarily invariant
    ("one-atom", "diagonal"), ("free-sum", "one-atom"), ("empty-last-atom", "diagonal"),
    ("free-sum", "empty-last-atom"), ("free-sum", "three-atom"), ("free-sum", "diagonal"),
    ("diagonal", "free-sum"), ("free-sum", "free-sum"),
])
def test_free_sum_has_the_spectrum_of_the_literal_rotation(first, second):
    # rebuilt from the samplers on the same child generator as the trial:
    # a sum with a GUE or Wishart part and one diagonal part draws no Haar
    # unitary and is the literal A + B.  A rotated diagonal part moves only
    # the columns of the atoms before its last: 20 of 30 for the counts 5,
    # 15, 10 of the three-atom part (whose map x -> -2x + 1/2 reverses their
    # order), none for one atom, and 15 where the last atom's weight rounds
    # to the count 0.  A nested sum (Bernoulli + Bernoulli) is two leaves
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
        "free-sum": lambda: MatrixEnsembleSpec(
            kind="free_sum", dim=30, parts=(bernoulli_diag(30), bernoulli_diag(30))
        ),
    }
    spec = MatrixEnsembleSpec(
        kind="free_sum", dim=30, trials=3, seed=21, scale="3/2", shift="-1/2",
        parts=(make[first](), make[second]()),
    )
    for t in range(spec.trials):
        child = np.random.SeedSequence(spec.seed).spawn(spec.trials)[t]
        literal = _literal_sum(spec, np.random.default_rng(child))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(_trial_matrix(spec, t)), np.linalg.eigvalsh(literal),
            rtol=0, atol=1e-10,
        )


@pytest.mark.parametrize("parts", [
    ("deterministic", "gue"), ("gue", "deterministic"), ("wishart", "gue"),
    ("free_sum", "wishart"), ("wishart", "free_sum"),
], ids="-".join)
def test_an_invariant_free_sum_draws_no_haar_unitary(parts, monkeypatch):
    # U B U^H with Haar U independent of A has the law of B for GUE and
    # Wishart B (and likewise for A), so the sum is the plain A + B: it
    # draws no Haar columns beyond those of a nested part's rotated leaf,
    # and the generator ends where the literal sum leaves it
    import freemoments.rmt as rmt

    drawn = []

    def counted(n, m, rng):
        drawn.append(m)
        return _haar_columns(n, m, rng)

    monkeypatch.setattr(rmt, "_haar_columns", counted)
    dim = 12
    make = {
        "deterministic": lambda: bernoulli_diag(dim, scale=3, shift="1/2"),
        "gue": lambda: MatrixEnsembleSpec(kind="gue", dim=dim, scale="1/2"),
        "wishart": lambda: MatrixEnsembleSpec(kind="wishart", dim=dim, rate="1/2", shift=-1),
        "free_sum": lambda: MatrixEnsembleSpec(
            kind="free_sum", dim=dim, parts=(bernoulli_diag(dim), bernoulli_diag(dim))
        ),
    }
    spec = MatrixEnsembleSpec(kind="free_sum", dim=dim, parts=tuple(make[k]() for k in parts))
    rng, literal_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = _literal_sum(spec, literal_rng)
    got = sample_matrix(spec, rng)
    assert len(drawn) == parts.count("free_sum")
    if "free_sum" in parts:  # the literal rotates its leaf with a dense unitary
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == literal_rng.bit_generator.state


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
