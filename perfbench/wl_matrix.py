"""`matrix`: in-process random-matrix oracle, the numpy-bound rmt layer.

Each op samples trace moments, predicts them exactly and compares the two,
on a seeded spec: GUE at p = 6, Wishart at rate 1/2, 1 or 3/2 at p = 4, or
a free sum of a deterministic Bernoulli matrix with GUE or with itself at
p = 4; one spec in five is scaled by 1/2..2 or shifted by -1..1.  N runs
over 150..400 (even, so the Bernoulli weights 1/2 give exact diagonal
counts) and 2, 3, 4, 6 or 8 trials.  The BLAS thread count is pinned by
run.py before numpy is imported.

The check compares every output with a value found here: the predicted
moments with the reference's, one trial's traces with the eigenvalues of
the same matrix, the means, standard errors and comparison rows with their
definitions, and the sampled moments with the prediction within
3 stderr + 5 k^2 max(1, tr|H|^k / N) / N, tr|H|^k / N taken from that
trial's eigenvalues.  That is the oracle's own allowance with its finite-N
term grown with the size of the spectrum: the fluctuation of tr(H^k) / N
grows with the k-th power of the spectrum's reach even where the moment
itself is 0 (GUE scaled by 2, N = 400, order 5: per-trial deviation about
1.1 around 0).  The oracle's
`within` verdict is not a correctness test of the op: its allowance
3 stderr + 5 k^2 / N does not grow with the moments, and with two or three
trials the standard error is itself a rough estimate, so it misses now and
then on moments computed right (a Wishart law at rate 3/2, shifted by 1/2,
N = 250: per-trial deviation 0.96 at order 4, allowance 0.35).  A miss is
reported as a note on the op, never left out.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

import reference as ref
from harness import CheckFailed, Strata, cold_build

BLOCK = 10          # ops per block of the fixed mix
OPS = 400           # generated per run; the timed loop cycles if it runs out
CAP_S = 30.0
TRACE_OPS = 30
TRIALS = (2, 3, 4, 6, 8)
DIMS = range(150, 401, 50)
RATES = ("1/2", "1", "3/2")
# Grids of shapes, each cycled by its own slot: the op's cost grows as
# trials * N^3 (and, for Wishart, with the rate), and a 100-op run draws
# every grid exactly once, so every run holds the same shapes.
GUE_SIZES = [(n, t) for n in DIMS for t in TRIALS]                      # 3 per block
WISHART_SIZES = [(n, t, RATES[(i + j) % 3])                             # 3 per block
                 for i, n in enumerate(DIMS) for j, t in enumerate(TRIALS)]
FREE_SUM_SIZES = [(n, t) for n in (150, 200, 300, 400) for t in TRIALS]  # 2 per slot and block
BERNOULLI = {"kind": "discrete", "atoms": [["-1", "1/2"], ["1", "1/2"]]}

fm = None
np = None


def block(rng: random.Random, strata: Strata) -> list[dict]:
    def spec(kind: str, dim: int, trials: int) -> dict:
        data = {"kind": kind, "dim": dim, "trials": trials, "seed": rng.randrange(2**31)}
        affine = strata.pick("affine", ("none", "none", "none", "scale", "shift"))
        if affine == "scale":
            data["scale"] = str(Fraction(rng.randint(2, 8), 4))
        elif affine == "shift":
            data["shift"] = str(Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), 4))
        return data

    ops = []
    for _ in range(3):
        ops.append({"kind": "gue", "p": 6, "spec": spec("gue", *strata.pick("gue", GUE_SIZES))})
    for _ in range(3):
        dim, trials, rate = strata.pick("wishart", WISHART_SIZES)
        ops.append({"kind": "wishart", "p": 4, "spec": dict(spec("wishart", dim, trials), rate=rate)})
    for partner in ("gue", "self", "gue", "self"):
        data = spec("free_sum", *strata.pick("free_sum_" + partner, FREE_SUM_SIZES))
        part = {"kind": "deterministic", "dim": data["dim"], "measure": BERNOULLI}
        other = {"kind": "gue", "dim": data["dim"]} if partner == "gue" else part
        data["parts"] = [part, other]
        ops.append({"kind": f"free_sum_{partner}", "p": 4, "spec": data})
    return ops


def setup(ops: list[dict]) -> dict:
    global fm, np
    import numpy
    import freemoments
    fm, np = freemoments, numpy
    cold = cold_build(fm, 4)
    small = fm.MatrixEnsembleSpec(kind="gue", dim=50, trials=2, seed=0)
    fm.compare_to_prediction(fm.sample_trace_moments(small, 6), fm.predicted_moments(small, 6))
    return {"cumulants.cold_build_s": cold}


def prepare(op: dict):
    return fm.ensemble_spec_from_json(op["spec"]), op["p"]


def run(op: dict, prepared):
    spec, p = prepared
    estimate = fm.sample_trace_moments(spec, p)
    exact = fm.predicted_moments(spec, p)
    return estimate, exact, fm.compare_to_prediction(estimate, exact)


def flops(spec, p: int) -> float:
    """Real floating-point operations the op's dense products take,
    computed from shapes (8 per complex multiply-add): p products of the
    power loop, the Wishart X X^H, and for a free sum the Haar QR (about
    (16/3) N^3) plus the two products of U B U^H."""
    n = spec.dim
    per_trial = 8.0 * n**3 * p
    if spec.kind == "wishart":
        per_trial += 8.0 * n * n * spec.wishart_columns()
    if spec.kind == "free_sum":
        per_trial += 16.0 / 3.0 * n**3 + 16.0 * n**3
        for part in spec.parts:
            if part.kind == "wishart":
                per_trial += 8.0 * n * n * part.wishart_columns()
    return spec.trials * per_trial


def run_traced(op: dict, prepared, tracer):
    spec, p = prepared
    with tracer.span("rmt.sample"):
        estimate = fm.sample_trace_moments(spec, p)
    with tracer.span("rmt.predict"):
        exact = fm.predicted_moments(spec, p)
    with tracer.span("rmt.compare"):
        rows = fm.compare_to_prediction(estimate, exact)
    tracer.count("rmt.flops_computed", flops(spec, p))
    return estimate, exact, rows


def probe(op: dict, prepared, tracer) -> None:
    """Traced-only: build the same matrices (same per-trial seeds as
    sample_trace_moments) without the power loop."""
    spec, _ = prepared
    for child in np.random.SeedSequence(spec.seed).spawn(spec.trials):
        with tracer.span("rmt.sample_matrix"):
            fm.sample_matrix(spec, np.random.default_rng(child))


def _off(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) > 1e-9 * max(1.0, abs(b), scale)


def check(op: dict, prepared, out) -> str:
    spec, p = prepared
    estimate, exact, rows = out
    n, trials = spec.dim, spec.trials
    shape = ", ".join(f"{k} {v}" for k, v in op["spec"].items() if k not in ("kind", "parts"))
    want = ref.ensemble_moments(op["spec"], p)
    if list(exact.values[:p]) != want:
        raise CheckFailed(f"predicted moments differ from the reference ({shape})")
    if len(estimate.per_trial) != trials or len(rows) != p:
        raise CheckFailed(f"{len(estimate.per_trial)} trials and {len(rows)} rows, "
                          f"not {trials} and {p}")
    # one trial's traces from the eigenvalues of the same matrix (the
    # per-trial generators are spawned from the spec's seed); the seed picks
    # the trial, so that every position is checked over a run at about a
    # fifth of the cost of checking all of them
    t = spec.seed % trials
    child = np.random.SeedSequence(spec.seed).spawn(trials)[t]
    eig = np.linalg.eigvalsh(fm.sample_matrix(spec, np.random.default_rng(child)))
    sizes = [float(np.mean(np.abs(eig) ** k)) for k in range(1, p + 1)]  # tr|H|^k / N
    for k in range(1, p + 1):
        value = float(np.mean(eig**k))
        if _off(estimate.per_trial[t][k - 1], value, sizes[k - 1]):
            raise CheckFailed(f"trial {t} order {k}: tr(H^k)/N is {estimate.per_trial[t][k - 1]!r}, "
                              f"the eigenvalues give {value!r} ({shape})")
    misses = []
    for k, row in enumerate(rows, start=1):
        column = [trial[k - 1] for trial in estimate.per_trial]
        mean = statistics.fmean(column)
        stderr = statistics.stdev(column) / math.sqrt(trials) if trials > 1 else 0.0
        predicted = float(want[k - 1])
        difference = row["sampled"] - row["predicted"]
        allowance = 3 * stderr + 5 * k * k / n
        if (row["order"] != k or _off(row["sampled"], mean) or _off(estimate.means[k - 1], mean)
                or _off(estimate.stderrs[k - 1], stderr) or row["predicted"] != predicted
                or _off(row["difference"], difference) or _off(row["allowance"], allowance)
                or row["within"] != (abs(row["difference"]) <= row["allowance"])):
            raise CheckFailed(f"comparison row of order {k} is not what its inputs give ({shape})")
        bound = 3 * stderr + 5 * k * k * max(1.0, sizes[k - 1]) / n
        if not abs(mean - predicted) <= bound:
            raise CheckFailed(f"order {k}: the sampled moment is off the prediction by "
                              f"{mean - predicted:.3g}, beyond {bound:.3g} ({shape})")
        if not row["within"]:
            misses.append(f"order {k}: |{row['difference']:.3g}| > {row['allowance']:.3g}")
    if misses:
        return (f"outside the oracle's allowance, within 3 stderr + 5 k^2 max(1, tr|H|^k / N) / N "
                f"({shape}); " + "; ".join(misses))
    return ""


def layer_metrics(tracer, setup_info: dict) -> dict:
    return {"rmt.flops_computed": tracer.counts.get("rmt.flops_computed", 0.0)}
