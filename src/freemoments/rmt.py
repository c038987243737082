"""Monte Carlo cross-checks of moment predictions against random matrices.

Ensembles are described declaratively (kind, dimension, trial count, seed,
optional affine map x -> scale * x + shift of the spectrum) so that a run is
reproducible from its JSON description alone.  Seeding is parallel
invariant: trial i uses the i-th child of SeedSequence(seed), so the same
trial produces the same matrix no matter how many trials run or in what
order.

`predicted_moments` produces the exact limiting moments of each ensemble
(semicircle for gue, the law with constant free cumulants for wishart with
the realized aspect ratio, the empirical diagonal for deterministic, free
additive convolution for free_sum), and `compare_to_prediction` checks the
sampled trace moments against them with an allowance of 3 standard errors
plus a 5 k^2 / N term for the finite-dimension bias.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cumulants import (
    MomentSequence,
    as_fraction,
    free_convolve,
)
from .errors import BudgetError, SizeLimitError, ValidationError
from .measures import (
    Measure,
    _affine_moments,
    _mp_moments,
    measure_from_json,
    measure_to_json,
    moments,
)

GUE = "gue"
WISHART = "wishart"
DETERMINISTIC = "deterministic"
FREE_SUM = "free_sum"

KINDS = (GUE, WISHART, DETERMINISTIC, FREE_SUM)

DEFAULT_BUDGET = 2e11  # rough operation units, see _cost_units


def _require_float_range(value: Fraction, what: str) -> None:
    """Sampling runs in floats, so an exact value must convert to one."""
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{what} is past the float range") from None


def _is_int(value) -> bool:
    """An int that is not a bool: JSON true must not pass as the count 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class MatrixEnsembleSpec:
    """Declarative description of a Hermitian random-matrix experiment."""

    kind: str
    dim: int
    trials: int = 1
    seed: int = 0
    rate: Fraction | None = None
    measure: Measure | None = None
    parts: tuple["MatrixEnsembleSpec", ...] | None = None
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if not _is_int(self.dim) or self.dim < 1:
            raise ValidationError("dim must be a positive int")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValidationError("trials must be a positive int")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative int")
        object.__setattr__(self, "scale", as_fraction(self.scale))
        object.__setattr__(self, "shift", as_fraction(self.shift))
        _require_float_range(self.scale, "scale")
        _require_float_range(self.shift, "shift")
        if self.kind == WISHART:
            if self.rate is None:
                raise ValidationError("wishart needs a rate")
            object.__setattr__(self, "rate", as_fraction(self.rate))
            if self.rate <= 0:
                raise ValidationError("rate must be positive")
        elif self.rate is not None:
            raise ValidationError(f"{self.kind} takes no rate")
        if self.kind == DETERMINISTIC:
            if not isinstance(self.measure, Measure) or self.measure.kind != "discrete":
                raise ValidationError("deterministic needs a discrete measure")
            if not self.measure.atoms:
                raise ValidationError("deterministic measure must have atoms")
            for t, _ in self.measure.atoms:
                _require_float_range(t, "atom location")
        elif self.measure is not None:
            raise ValidationError(f"{self.kind} takes no measure")
        if self.kind == FREE_SUM:
            if (
                not isinstance(self.parts, tuple)
                or len(self.parts) != 2
                or not all(isinstance(p, MatrixEnsembleSpec) for p in self.parts)
            ):
                raise ValidationError("free_sum needs a pair of part specs")
            if any(p.dim != self.dim for p in self.parts):
                raise ValidationError("free_sum parts must share the parent dim")
        elif self.parts is not None:
            raise ValidationError(f"{self.kind} takes no parts")

    def wishart_columns(self) -> int:
        """Realized second dimension M = round(rate * dim), half-up."""
        assert self.rate is not None
        m = int((2 * self.rate * self.dim + 1) // 2)
        return max(m, 1)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phases folded back in (plain QR alone is not Haar)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _deterministic_counts(mu: Measure, n: int) -> list[tuple[Fraction, int]]:
    ideals = [(t, w / mu.mass * n) for t, w in mu.atoms]
    counts = [(t, int(v)) for t, v in ideals]  # int() floors positive values
    short = n - sum(c for _, c in counts)
    by_frac = sorted(
        range(len(ideals)), key=lambda i: (ideals[i][1] - int(ideals[i][1])), reverse=True
    )
    for i in by_frac[:short]:
        t, c = counts[i]
        counts[i] = (t, c + 1)
    if any(Fraction(c) != ideals[i][1] for i, (_, c) in enumerate(counts)):
        warnings.warn(
            f"weights of the deterministic measure are not multiples of 1/{n}; "
            "counts were rounded",
            stacklevel=2,
        )
    return counts


def sample_matrix(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.dim
    if spec.kind == GUE:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / (2 * math.sqrt(n))
    elif spec.kind == WISHART:
        m = spec.wishart_columns()
        x = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)
        h = (x @ x.conj().T) / n
    elif spec.kind == DETERMINISTIC:
        diag = np.concatenate(
            [np.full(c, float(t)) for t, c in _deterministic_counts(spec.measure, n)]
        )
        h = np.diag(diag).astype(complex)
    else:  # free_sum
        a = sample_matrix(spec.parts[0], rng)
        b = sample_matrix(spec.parts[1], rng)
        u = haar_unitary(n, rng)
        h = a + u @ b @ u.conj().T
    if spec.scale != 1 or spec.shift != 0:
        h = float(spec.scale) * h + float(spec.shift) * np.eye(n)
    return h


@dataclass(frozen=True)
class MomentEstimate:
    """Sampled normalized trace moments tr(H^k)/N, k = 1..p."""

    spec: MatrixEnsembleSpec
    p: int
    per_trial: tuple[tuple[float, ...], ...]
    means: tuple[float, ...] = field(init=False)
    stderrs: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        data = np.asarray(self.per_trial)
        trials = data.shape[0]
        object.__setattr__(self, "means", tuple(float(v) for v in data.mean(axis=0)))
        if trials > 1:
            se = data.std(axis=0, ddof=1) / math.sqrt(trials)
        else:
            se = np.zeros(self.p)
        object.__setattr__(self, "stderrs", tuple(float(v) for v in se))

    def to_json(self) -> dict:
        return {
            "dim": self.spec.dim,
            "trials": self.spec.trials,
            "rng": "numpy-pcg64",
            "orders": list(range(1, self.p + 1)),
            "means": list(self.means),
            "stderrs": list(self.stderrs),
        }


def _node_units(spec: MatrixEnsembleSpec, p: int) -> tuple[int, int]:
    """(sampling, prediction) units of one matrix of the spec with its parts:
    4 N^2 max(N, M) float multiply-adds; p^2 rational ones per node and p^3
    per free sum, weighted by their wall time at orders 50-1000."""
    n = spec.dim
    wide = spec.wishart_columns() if spec.kind == WISHART else n
    sample, predict = 4 * n * n * max(n, wide), 350_000 * p * p
    if spec.kind == FREE_SUM:
        parts = [_node_units(part, p) for part in spec.parts]
        sample += sum(s for s, _ in parts)
        predict += 20_000 * p**3 + sum(q for _, q in parts)
    return sample, predict


def _cost_units(spec: MatrixEnsembleSpec, p: int) -> int:
    """Roughly one unit per float multiply-add: per trial the sampling, one
    eigendecomposition (about 3 N^3) and the N p power sums; the prediction
    once."""
    sample, predict = _node_units(spec, p)
    return spec.trials * (sample + 3 * spec.dim**3 + spec.dim * p) + predict


def sample_trace_moments(
    spec: MatrixEnsembleSpec, p: int, budget: float | None = None
) -> MomentEstimate:
    """Run the trials and collect tr(H^k)/N, the mean k-th power of the
    eigenvalues, per trial.  Refuses up front if the estimated operation
    count of sampling and prediction exceeds the budget (default 2e11)."""
    if p < 1:
        raise ValidationError("order p must be >= 1")
    cap = DEFAULT_BUDGET if budget is None else float(budget)
    cost = _cost_units(spec, p)
    if cost > cap:
        shown = f"{cost:.2e}" if cost < 1e300 else "past 1e300"  # a huge int has no float
        raise BudgetError(
            f"estimated cost {shown} exceeds budget {cap:.2e}; "
            "raise `budget` explicitly to run this"
        )
    rows = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.trials):
        h = sample_matrix(spec, np.random.default_rng(child))
        if not np.isfinite(h).all():
            raise SizeLimitError("a sampled matrix has an entry past the float range")
        eig = np.linalg.eigvalsh(h)
        rows.append(tuple((eig[:, None] ** np.arange(1, p + 1)).mean(axis=0).tolist()))
    return MomentEstimate(spec=spec, p=p, per_trial=tuple(rows))


# ----------------------------------------------------------------- prediction


def predicted_moments(spec: MatrixEnsembleSpec, p: int) -> MomentSequence:
    """Exact limiting moments (dim -> infinity at fixed shape) of the
    ensemble's spectral law, as rationals."""
    if spec.kind == GUE:
        base = moments(Measure.semicircle(0, 2), p).values
    elif spec.kind == WISHART:
        # the Narayana formula holds at every positive rate, also below 1,
        # where the law has an atom at 0 and Measure rejects it
        base = _mp_moments(Fraction(spec.wishart_columns(), spec.dim), p)
    elif spec.kind == DETERMINISTIC:
        mass = spec.measure.mass
        base = tuple(v / mass for v in moments(spec.measure, p).values)
    else:
        a = predicted_moments(spec.parts[0], p)
        b = predicted_moments(spec.parts[1], p)
        base = free_convolve(a, b).values
    return MomentSequence(_affine_moments(base, spec.scale, spec.shift))


def compare_to_prediction(estimate: MomentEstimate, exact: MomentSequence) -> list[dict]:
    """Per-order comparison records; `within` uses the allowance
    3 * stderr + 5 * k^2 / dim."""
    if exact.p < estimate.p:
        raise ValidationError("need exact moments up to the sampled order")
    n = estimate.spec.dim
    report = []
    for k in range(1, estimate.p + 1):
        try:
            want = float(exact[k])
        except OverflowError:
            raise SizeLimitError(f"order {k}: prediction past the float range") from None
        got = estimate.means[k - 1]
        allowance = 3 * estimate.stderrs[k - 1] + 5 * k * k / n
        if not (math.isfinite(got - want) and math.isfinite(allowance)):
            raise SizeLimitError(f"order {k}: sampled mean or stderr past the float range")
        report.append(
            {
                "order": k,
                "sampled": got,
                "predicted": want,
                "difference": got - want,
                "allowance": allowance,
                "within": abs(got - want) <= allowance,
            }
        )
    return report


# ----------------------------------------------------------------------- JSON


def ensemble_spec_to_json(spec: MatrixEnsembleSpec) -> dict:
    data: dict = {
        "kind": spec.kind,
        "dim": spec.dim,
        "trials": spec.trials,
        "seed": spec.seed,
    }
    if spec.rate is not None:
        data["rate"] = str(spec.rate)
    if spec.measure is not None:
        data["measure"] = measure_to_json(spec.measure)
    if spec.parts is not None:
        data["parts"] = [ensemble_spec_to_json(part) for part in spec.parts]
    if spec.scale != 1:
        data["scale"] = str(spec.scale)
    if spec.shift != 0:
        data["shift"] = str(spec.shift)
    return data


def ensemble_spec_from_json(data) -> MatrixEnsembleSpec:
    if not isinstance(data, dict):
        raise ValidationError("ensemble JSON must be an object")
    known = {"kind", "dim", "trials", "seed", "rate", "measure", "parts", "scale", "shift"}
    extra = set(data) - known
    if extra:
        raise ValidationError(f"unknown ensemble fields {sorted(extra)}")
    if "kind" not in data or "dim" not in data:
        raise ValidationError("ensemble JSON needs 'kind' and 'dim'")
    plain = ("kind", "dim", "trials", "seed", "rate", "scale", "shift")
    kwargs: dict = {k: data[k] for k in plain if k in data}
    if "measure" in data:
        kwargs["measure"] = measure_from_json(data["measure"])
    if "parts" in data:
        if not isinstance(data["parts"], list):
            raise ValidationError("'parts' must be a list")
        kwargs["parts"] = tuple(ensemble_spec_from_json(p) for p in data["parts"])
    return MatrixEnsembleSpec(**kwargs)
