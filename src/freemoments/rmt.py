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

A sample H = A + iB is held as its real parts, A symmetric and B
antisymmetric, and the trace moments tr(H^k)/N, k <= p, are real dot
products of its powers: tr(H^k) = <H^a, H^b> with a + b = k.  A square
goes through one real kernel, H^2 = (A A^T + B B^T) + i(T - T^T) with
T = AB: one BLAS syrk and one gemm, half the work of a complex product, and
the result is exactly Hermitian.  Up to order 6 the powers are the squares
H^2 (from order 3) and H^4 = (H^2)^2 (from order 5): tr H^3 = <H, H^2>,
tr H^4 = ||H^2||^2, tr H^5 = <H, H^4>, tr H^6 = <H^2, H^4>.  Above, order k
reads the half powers H^floor(k/2) and H^ceil(k/2), and each new one that
is not the square of a held power is H times the power below it, by
Gauss's three real products.  So order p takes ceil(p/2) - 1 powers, at
most two of them squares, and holds at most three powers up to order 6 and
four above.

A free sum is the sum of its GUE, Wishart and diagonal leaves, nested sums
flattened, with every diagonal leaf but the last rotated by its own Haar
unitary.  Independent Haar unitaries compose to independent Haar unitaries
and GUE and Wishart laws are unitarily invariant, so this is the law of the
nested A + U B U^H at every N (Voiculescu, Invent. Math. 104 (1991)).

Only sampling needs numpy, so only the sampling functions import it.
"""

from __future__ import annotations

import functools
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
from .errors import SizeLimitError, ValidationError, _check_work
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
                or len(self.parts) < 2
                or not all(isinstance(p, MatrixEnsembleSpec) for p in self.parts)
            ):
                raise ValidationError("free_sum needs two or more part specs")
            if any(p.dim != self.dim for p in self.parts):
                raise ValidationError("free_sum parts must share the parent dim")
            # each trial of the parent draws all parts from its own generator
            if any(p.trials != 1 or p.seed != 0 for p in self.parts):
                raise ValidationError(
                    "free_sum parts take no trials or seed: the parent's are used"
                )
            for _, scale, shift in _leaves(self):
                _require_float_range(scale, "a leaf's scale through its free sums")
                _require_float_range(shift, "a leaf's shift through its free sums")
        elif self.parts is not None:
            raise ValidationError(f"{self.kind} takes no parts")

    def wishart_columns(self) -> int:
        """Realized second dimension M = round(rate * dim), half-up."""
        assert self.rate is not None
        m = int((2 * self.rate * self.dim + 1) // 2)
        return max(m, 1)


def _leaves(spec: MatrixEnsembleSpec) -> list[tuple[MatrixEnsembleSpec, Fraction, Fraction]]:
    """The GUE, Wishart and diagonal parts of a spec in order, each with the
    map x -> scale * x + shift of the free sums below the spec folded in: a
    nested sum's scale multiplies its leaves' maps, its shift goes to its
    last leaf.  Any other spec is its own leaf; its own map is left out."""
    if spec.kind != FREE_SUM:
        return [(spec, Fraction(1), Fraction(0))]
    leaves = []
    for part in spec.parts:
        inner = [(leaf, part.scale * s, part.scale * c) for leaf, s, c in _leaves(part)]
        leaf, s, c = inner[-1]
        inner[-1] = (leaf, s, c + part.shift)
        leaves += inner
    return leaves


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


def _mapped(h: np.ndarray, scale: Fraction, shift: Fraction) -> np.ndarray:
    """The parts h of a sample under the map x -> scale * x + shift, in place."""
    import numpy as np
    if scale != 1:
        h *= float(scale)
    if shift != 0:
        h[0][np.diag_indices(h.shape[1])] += float(shift)
    return h


def _leaf_matrix(leaf: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One dense sample of a GUE, Wishart or diagonal leaf, unmapped, as its
    real and imaginary parts: a 2 x N x N real array.  A Wishart X X^H / n,
    X = (P + iQ) / sqrt(2), is (P P^T + Q Q^T + i(T - T^T)) / 2n with
    T = Q P^T, made from the real draws: two syrk and one gemm."""
    import numpy as np
    n = leaf.dim
    if leaf.kind == DETERMINISTIC:
        h = np.zeros((2, n, n))
        h[0][np.diag_indices(n)] = _diagonal(leaf)
        return h
    h = np.empty((2, n, n))
    if leaf.kind == GUE:
        g = rng.standard_normal((2, n, n))  # the real parts, then the imaginary
        np.add(g[0], g[0].T, out=h[0])
        np.subtract(g[1], g[1].T, out=h[1])
        scale = 2 * math.sqrt(n)
    else:
        p, q = rng.standard_normal((2, n, leaf.wishart_columns()))
        t = q @ p.T
        np.add(p @ p.T, q @ q.T, out=h[0])
        np.subtract(t, t.T, out=h[1])
        scale = 2 * n
    # times the reciprocal, as numpy divides a complex array by a real:
    # a sample keeps the bits of its complex expression
    h *= 1 / scale
    return h


def _sample(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One dense sample of the ensemble as its real and imaginary parts,
    built in place: its leaves (see _leaves), the unrotated ones in order,
    then the rotated ones, then the spec's own map.  Every diagonal leaf D
    but the last is rotated as U^H D U, D = t I + sum_i (a_i - t) e_i e_i^H
    with t its last atom of positive count (the atoms ascend), so only over
    the m = N - count(t) columns of U^H that it moves, with one N x m by
    m x N product."""
    import numpy as np
    leaves = _leaves(spec)
    diagonal = [i for i, (leaf, _, _) in enumerate(leaves) if leaf.kind == DETERMINISTIC]
    rotated = diagonal[:-1]  # by position: a spec may hold one part twice
    terms = (_mapped(_leaf_matrix(leaf, rng), s, c)
             for i, (leaf, s, c) in enumerate(leaves) if i not in rotated)
    h = next(terms)
    for term in terms:
        h += term
    for leaf, scale, shift in (leaves[i] for i in rotated):
        raw = _diagonal(leaf)
        m = int(np.searchsorted(raw, raw[-1]))  # the atoms ascend: raw[m:] is the last block
        d = float(scale) * raw + float(shift)
        v = _haar_columns(spec.dim, m, rng)
        vh = v.conj().T
        v *= d[:m] - d[-1]
        rotation = v @ vh
        h[0] += rotation.real
        h[1] += rotation.imag
        h[0][np.diag_indices(spec.dim)] += d[-1]
    return _mapped(h, spec.scale, spec.shift)


def sample_matrix(spec: MatrixEnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One dense complex sample of the ensemble (see _sample)."""
    import numpy as np
    parts = _sample(spec, rng)
    h = np.empty(parts.shape[1:], dtype=complex)
    h.real, h.imag = parts
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


def _cost_units(spec: MatrixEnsembleSpec, p: int) -> int:
    """Roughly one unit per float multiply-add, 4 N^3 per complex product.
    Per trial: 4 N^2 max(N, M) per leaf (see _leaves), the Wishart X X^H or
    a floor bounding the time and memory of large N at low orders; per
    rotated leaf the Haar QR (about 16/3 N^3) and one product at all N
    columns; the trace moments, ceil(p/2) - 1 powers and p inner products
    of 4 N^2.  Each power counts as one complex product, an upper bound: a
    square (see _square) takes 2 N^3 and a Gauss product 3 N^3, so the
    budget admits the specs it admitted when every power was a complex
    product.  Once, the prediction: p^2 rational multiply-adds per leaf and
    for the spec's map, p^3 per free convolution, weighted by their time at
    orders 50-1000."""
    n = spec.dim
    leaves = [leaf for leaf, _, _ in _leaves(spec)]
    rotated = max(sum(leaf.kind == DETERMINISTIC for leaf in leaves) - 1, 0)
    wide = [leaf.wishart_columns() if leaf.kind == WISHART else n for leaf in leaves]
    sample = sum(4 * n * n * max(n, m) for m in wide)
    sample += rotated * (16 * n**3 // 3 + 4 * n**3)
    trace = 4 * n**3 * ((p + 1) // 2 - 1) + 4 * n * n * p
    predict = 350_000 * p * p * (len(leaves) + (spec.kind == FREE_SUM))
    predict += 20_000 * p**3 * (len(leaves) - 1)
    return spec.trials * (sample + trace) + predict


def _square(h: np.ndarray) -> np.ndarray:
    """H^2 of a Hermitian H given as its parts (A, B): the real part
    A A^T + B B^T is one BLAS syrk of the stacked [A; B], the imaginary
    part T - T^T with T = AB one gemm, so the square is exactly Hermitian."""
    import numpy as np
    n = h.shape[1]
    out = np.empty_like(h)
    np.matmul(h[0], h[1], out=out[0])  # T, parked in the real part
    np.subtract(out[0], out[0].T, out=out[1])
    stacked = h.reshape(2 * n, n)
    np.matmul(stacked.T, stacked, out=out[0])
    return out


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X Y of two complex matrices given as their parts (A, B) and (C, D),
    by Gauss's three real products: the real part AC - BD, the imaginary
    part (A + B)(C + D) - AC - BD."""
    import numpy as np
    a, b = x
    c, d = y
    out = np.empty_like(x)
    t = a + b
    np.add(c, d, out=out[0])
    np.matmul(t, out[0], out=out[1])
    np.matmul(a, c, out=out[0])
    bd = np.matmul(b, d, out=t)  # A + B is spent: its buffer takes BD
    out[1] -= out[0]
    out[1] -= bd
    out[0] -= bd
    return out


def _trace_moments(h: np.ndarray, p: int) -> list[float]:
    """tr(H^k)/N, k = 1..p, of a Hermitian H given as its parts: order k
    is the real dot product <H^a, H^b>, a + b = k, of the parts.  Orders 5
    and 6 read H^4 = (H^2)^2, every other order the half powers
    H^floor(k/2) and H^ceil(k/2).  A power is the square of a held power
    where it can be (H^2 and H^4), else H times the power below it, so
    order p takes ceil(p/2) - 1 powers: min(ceil(p/2) - 1, 2) squares and
    the rest Gauss products.  A power is dropped once no later order reads
    it: at most H, H^2 and H^4 are held up to order 6, one more above."""
    import numpy as np
    n = h.shape[1]
    powers = {1: h}
    sums = [h[0].trace()]
    for k in range(2, p + 1):
        a, b = (k - 4, 4) if k in (5, 6) else (k // 2, (k + 1) // 2)
        for j in (a, b):
            if j in powers:
                continue
            if j % 2 == 0 and j // 2 in powers:
                powers[j] = _square(powers[j // 2])
            else:
                powers[j] = _product(h, powers[j - 1])
        sums.append(np.vdot(powers[a], powers[b]))
        if a > 2:  # from order 7 on, no later order or power reads H^(a-1)
            powers.pop(a - 1, None)
    return [float(s) / n for s in sums]


def sample_trace_moments(
    spec: MatrixEnsembleSpec, p: int, budget: float | None = None
) -> MomentEstimate:
    """Run the trials and collect tr(H^k)/N per trial (see _trace_moments:
    ceil(p/2) - 1 powers, the first two of them real-part squares, the rest
    Gauss products).  Refuses up front if the estimated operation count of
    sampling and prediction exceeds the budget (default 2e11)."""
    import numpy as np
    _check_order(p)
    cap = DEFAULT_BUDGET if budget is None else float(budget)
    what, remedy = "the trials and the prediction take", "raise `budget` explicitly to run this"
    _check_work(_cost_units(spec, p), cap, what, "operation units", remedy)
    rows = []
    # entries and sums past the float range are refused below and by
    # compare_to_prediction, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for child in np.random.SeedSequence(spec.seed).spawn(spec.trials):
            h = _sample(spec, np.random.default_rng(child))
            if not np.isfinite(h).all():
                raise SizeLimitError("a sampled matrix has an entry past the float range")
            rows.append(tuple(_trace_moments(h, p)))
    return MomentEstimate(spec=spec, p=p, per_trial=tuple(rows))


# ----------------------------------------------------------------- prediction


def predicted_moments(spec: MatrixEnsembleSpec, p: int) -> MomentSequence:
    """Exact limiting moments (dim -> infinity at fixed shape) of the
    ensemble's spectral law, as rationals: the free additive convolution
    of its leaves' laws (see _leaves) under the spec's own map."""

    def leaf_moments(leaf: MatrixEnsembleSpec, scale: Fraction, shift: Fraction):
        if leaf.kind == GUE:
            base = moments(Measure.semicircle(0, 2), p).values
        elif leaf.kind == WISHART:
            # the Narayana formula holds at every positive rate, also below
            # 1, where the law has an atom at 0 and Measure rejects it
            base = _mp_moments(Fraction(leaf.wishart_columns(), leaf.dim), p)
        else:
            mass = leaf.measure.mass
            base = tuple(v / mass for v in moments(leaf.measure, p).values)
        if (scale, shift) != (1, 0):  # most leaves are unmapped
            base = _affine_moments(base, scale, shift)
        return MomentSequence(base)

    total = functools.reduce(free_convolve, (leaf_moments(*leaf) for leaf in _leaves(spec)))
    return MomentSequence(_affine_moments(total.values, spec.scale, spec.shift))


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
