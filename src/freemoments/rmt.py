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

The trace moments tr(H^k)/N, k <= p, come from the half powers H^j,
j <= ceil(p/2): tr(H^2j) = ||H^j||_F^2 and tr(H^(2j+1)) = Re <H^j, H^(j+1)>,
so order 2 takes no matrix product, order 4 one and order 6 two.  Above
order 6 (`_HALF_POWER_MAX_ORDER`) the half powers would take three
products or more, which is what one eigvalsh costs at N >= 600, so there
they are the eigenvalue power sums.

A free sum A + U B U^H with a GUE or Wishart part draws no Haar unitary:
such a part has a unitarily invariant law, so conjugating it by a Haar U
drawn independently of both parts leaves the pair's law, and with it the
law of the sum, unchanged at every N (Voiculescu, Invent. Math. 104
(1991)), and the plain A + B is sampled.  Otherwise a diagonal part is
rotated with one product, which keeps the spectrum of A + U B U^H, and
draws only the Haar columns that the rotation moves, all but those of its
last atom; two nested free sums take a dense Haar unitary.

Only sampling needs numpy, so only the sampling functions import it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

# numpy is imported inside the functions that use it: every process
# that imports the package imports this module, and most never sample.
if TYPE_CHECKING:
    import numpy as np

from .cumulants import (
    MomentSequence,
    _check_order,
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
# kinds whose law is unitarily invariant: U H U^H has the law of H for Haar U
_INVARIANT = (GUE, WISHART)

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
            # each trial of the parent draws both parts from its own generator
            if any(p.trials != 1 or p.seed != 0 for p in self.parts):
                raise ValidationError(
                    "free_sum parts take no trials or seed: the parent's are used"
                )
        elif self.parts is not None:
            raise ValidationError(f"{self.kind} takes no parts")

    def wishart_columns(self) -> int:
        """Realized second dimension M = round(rate * dim), half-up."""
        assert self.rate is not None
        m = int((2 * self.rate * self.dim + 1) // 2)
        return max(m, 1)


def _haar_columns(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The first m columns of a Haar unitary: the QR of a complex Ginibre
    matrix with the R-diagonal phases folded back in (plain QR alone is not
    Haar).  Gram-Schmidt works column by column, so the first m columns of
    that Q are the phase-fixed Q of the first m Ginibre columns alone.  All
    2 n^2 normals are drawn, so the generator ends where an n-column draw
    leaves it."""
    import numpy as np
    g = rng.standard_normal((2, n, n))  # the real parts, then the imaginary
    x = np.empty((n, m), dtype=complex)
    x.real, x.imag = g[0, :, :m], g[1, :, :m]
    if m == 0:
        return x
    q, r = np.linalg.qr(x)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    q *= d / np.abs(d)
    return q


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


def _diagonal(spec: MatrixEnsembleSpec) -> np.ndarray:
    """The diagonal of a deterministic spec before its affine map: one block
    of equal entries per atom, in the ascending order of the atoms."""
    import numpy as np
    counts = _deterministic_counts(spec.measure, spec.dim)
    return np.concatenate([np.full(c, float(t)) for t, c in counts])


def sample_matrix(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One dense complex sample of the ensemble, built in place; the draws
    run part 0, part 1, then the Haar unitary U of a free sum, if any.

    A free sum A + U B U^H is returned in law or up to a unitary
    conjugation that keeps its spectrum:
    - a GUE or Wishart part (its affine map included) has a unitarily
      invariant law, so with U independent of both parts the pair
      (A, U B U^H), or (U^H A U, B), has the law of (A, B): the sum is
      A + B, with no Haar draw;
    - otherwise, when A is diagonal (B may be too), U^H A U + B: with the
      atoms in ascending order A = t I + sum_i (a_i - t) e_i e_i^H, t the
      last atom with a positive count, and the sum runs over the first
      m = N - count(t) coordinates.  So it takes only the m columns
      V = U^H[:, :m] that it moves (U^H is the n-column _haar_columns
      draw), and one N x m by m x N product.  When only B is diagonal it
      is rotated the same way, U^H B U + A, which is A + W B W^H for the
      Haar unitary W = U^H;
    - two nested free sums take the literal A + U B U^H."""
    import numpy as np
    n = spec.dim
    if spec.kind == GUE:
        g = rng.standard_normal((2, n, n))  # the real parts, then the imaginary
        h = np.empty((n, n), dtype=complex)
        np.add(g[0], g[0].T, out=h.real)
        np.subtract(g[1], g[1].T, out=h.imag)
        h /= 2 * math.sqrt(n)
    elif spec.kind == WISHART:
        m = spec.wishart_columns()
        g = rng.standard_normal((2, n, m))
        x = np.empty((n, m), dtype=complex)
        x.real, x.imag = g
        x /= math.sqrt(2)
        h = x @ x.conj().T
        h /= n
    elif spec.kind == DETERMINISTIC:
        h = np.zeros((n, n), dtype=complex)
        h[np.diag_indices(n)] = _diagonal(spec)
    elif any(part.kind in _INVARIANT for part in spec.parts):  # free_sum
        h = sample_matrix(spec.parts[0], rng)
        h += sample_matrix(spec.parts[1], rng)
    elif DETERMINISTIC in (spec.parts[0].kind, spec.parts[1].kind):  # free_sum, a part diagonal
        # a diagonal part draws nothing, so the other part's draw comes
        # before the Haar columns whichever position it holds
        part, other = spec.parts if spec.parts[0].kind == DETERMINISTIC else spec.parts[::-1]
        raw = _diagonal(part)
        m = int(np.searchsorted(raw, raw[-1]))  # the atoms ascend: raw[m:] is the last block
        d = float(part.scale) * raw + float(part.shift)
        rest = sample_matrix(other, rng)
        v = _haar_columns(n, m, rng)
        vh = v.conj().T
        v *= d[:m] - d[-1]
        h = v @ vh
        h += rest
        h[np.diag_indices(n)] += d[-1]
    else:  # free_sum of two nested free sums
        a = sample_matrix(spec.parts[0], rng)
        b = sample_matrix(spec.parts[1], rng)
        u = _haar_columns(n, n, rng).conj().T  # V is Haar, so V^H is
        h = u @ b @ u.conj().T
        h += a
    if spec.scale != 1:
        h *= float(spec.scale)
    if spec.shift != 0:
        h[np.diag_indices(n)] += float(spec.shift)
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
        import numpy as np
        data = np.asarray(self.per_trial)
        trials = data.shape[0]
        # values past the float range are reported by compare_to_prediction
        with np.errstate(over="ignore", invalid="ignore"):
            means = data.mean(axis=0)
            if trials > 1:
                se = data.std(axis=0, ddof=1) / math.sqrt(trials)
            else:
                se = np.zeros(self.p)
        object.__setattr__(self, "means", tuple(float(v) for v in means))
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
    """(sampling, prediction) units of one matrix of the spec with its parts.
    Sampling: 4 N^2 max(N, M) per drawn part, the Wishart product X X^H or,
    for the O(N^2) draws, a floor that keeps the budget bounding the time
    and the memory of large N at low orders; per free sum with no GUE or
    Wishart part the Haar QR (about 16/3 N^3) and the rotation, one product
    of 4 N^3 when a part is diagonal and two otherwise.  A diagonal part
    factors and rotates only the m < N columns it moves (see
    sample_matrix), so for it the QR and the product are upper bounds.  A
    free sum with a GUE or Wishart part draws no Haar unitary and pays for
    its parts alone.  Prediction: p^2 rational multiply-adds per node and
    p^3 per free sum, weighted by their wall time at orders 50-1000."""
    n = spec.dim
    predict = 350_000 * p * p
    if spec.kind != FREE_SUM:
        wide = spec.wishart_columns() if spec.kind == WISHART else n
        return 4 * n * n * max(n, wide), predict
    if any(part.kind in _INVARIANT for part in spec.parts):
        sample = 0
    else:
        products = 1 if any(part.kind == DETERMINISTIC for part in spec.parts) else 2
        sample = 16 * n**3 // 3 + 4 * n**3 * products
    parts = [_node_units(part, p) for part in spec.parts]
    sample += sum(s for s, _ in parts)
    predict += 20_000 * p**3 + sum(q for _, q in parts)
    return sample, predict


def _cost_units(spec: MatrixEnsembleSpec, p: int) -> int:
    """Roughly one unit per float multiply-add, so 4 N^3 per complex
    product (an upper bound where a free sum's diagonal part moves fewer
    than N columns; _node_units says which free sums rotate): per trial
    the sampling and the trace moments (up to order 6 the ceil(p/2) - 1
    products of the half powers and p inner products of 4 N^2; above it
    one eigendecomposition, weighted at its wall time of about three
    products, and the N p power sums); the prediction once."""
    sample, predict = _node_units(spec, p)
    n = spec.dim
    if p <= _HALF_POWER_MAX_ORDER:
        trace = 4 * n**3 * ((p + 1) // 2 - 1) + 4 * n * n * p
    else:
        trace = 12 * n**3 + n * p
    return spec.trials * (sample + trace) + predict


# Up to this order the trace moments come from the half powers H^j,
# j <= ceil(p/2), which take at most two products; order 7 or 8 would take
# three, and one eigvalsh costs 9.3, 4.4, 3.8, 2.9 and 2.8 products at
# N = 50, 150, 400, 600 and 1000 (complex, one BLAS thread).
_HALF_POWER_MAX_ORDER = 6


def _trace_moments(h: np.ndarray, p: int) -> list[float]:
    """tr(H^k)/N, k = 1..p, of a Hermitian H.  Up to order 6 from the half
    powers: tr(H^2j) = ||H^j||_F^2 and tr(H^(2j+1)) = Re <H^j, H^(j+1)>;
    above it as the mean k-th power of the eigenvalues."""
    import numpy as np
    n = h.shape[0]
    if p > _HALF_POWER_MAX_ORDER:
        eig = np.linalg.eigvalsh(h)
        return (eig[:, None] ** np.arange(1, p + 1)).mean(axis=0).tolist()
    powers = [h]  # powers[j - 1] = H^j
    while len(powers) < (p + 1) // 2:
        powers.append(h @ powers[-1])
    sums = [np.trace(h).real]
    for k in range(2, p + 1):
        sums.append(np.vdot(powers[k // 2 - 1], powers[(k + 1) // 2 - 1]).real)
    return [float(s) / n for s in sums]


def sample_trace_moments(
    spec: MatrixEnsembleSpec, p: int, budget: float | None = None
) -> MomentEstimate:
    """Run the trials and collect tr(H^k)/N per trial (see _trace_moments:
    half powers up to order 6, eigenvalues above).  Refuses up front if the
    estimated operation count of sampling and prediction exceeds the budget
    (default 2e11)."""
    import numpy as np
    _check_order(p)
    cap = DEFAULT_BUDGET if budget is None else float(budget)
    cost = _cost_units(spec, p)
    if cost > cap:
        shown = f"{cost:.2e}" if cost < 1e300 else "past 1e300"  # a huge int has no float
        raise BudgetError(
            f"estimated cost {shown} exceeds budget {cap:.2e}; "
            "raise `budget` explicitly to run this"
        )
    rows = []
    # entries and sums past the float range are refused below and by
    # compare_to_prediction, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for child in np.random.SeedSequence(spec.seed).spawn(spec.trials):
            h = sample_matrix(spec, np.random.default_rng(child))
            if not np.isfinite(h).all():
                raise SizeLimitError("a sampled matrix has an entry past the float range")
            rows.append(tuple(_trace_moments(h, p)))
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
