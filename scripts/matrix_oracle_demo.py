#!/usr/bin/env python3
"""Sampled trace moments of the three reference ensembles vs exact values.

Runs a GUE, a square-case Wishart, a free sum of two Bernoulli diagonals
in Haar-generic position, a free sum of a three-atom diagonal with unequal
counts and a GUE, and one of the same three-atom diagonal and a Bernoulli
diagonal, and prints sampled means, exact predictions, and the acceptance
allowance per order; exits 1 if any order is outside its allowance.  The
three-atom weights are 1/5, 1/2 and 3/10, so a dimension that is a
multiple of 10 gives exact counts.

The two diagonal-diagonal sums rotate their first part by the Haar columns
of its atoms before the last: N/2 of the Bernoulli part, 7N/10 of the
three-atom part.  The sum with a GUE draws no Haar unitary, since the
GUE's law is unitarily invariant.

Usage: python scripts/matrix_oracle_demo.py [--dim N] [--trials T] [--seed S]
"""

import argparse
import sys
from fractions import Fraction

from freemoments import (
    MatrixEnsembleSpec,
    Measure,
    compare_to_prediction,
    predicted_moments,
    sample_trace_moments,
)


def show(label: str, spec: MatrixEnsembleSpec, order: int) -> int:
    """Print the comparison; return the number of orders outside."""
    estimate = sample_trace_moments(spec, order)
    rows = compare_to_prediction(estimate, predicted_moments(spec, order))
    print(f"\n{label} (dim={spec.dim}, trials={spec.trials}, seed={spec.seed})")
    print(f"{'k':>2}  {'sampled':>12}  {'exact':>8}  {'|diff|':>10}  {'allowance':>10}")
    for row in rows:
        flag = "" if row["within"] else "  <-- OUTSIDE"
        print(
            f"{row['order']:>2}  {row['sampled']:>12.6f}  {row['predicted']:>8.4f}  "
            f"{abs(row['difference']):>10.2e}  {row['allowance']:>10.2e}{flag}"
        )
    return sum(not row["within"] for row in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=300)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    outside = show(
        "GUE -> semicircle(0,2)",
        MatrixEnsembleSpec(kind="gue", dim=args.dim, trials=args.trials, seed=args.seed),
        6,
    )
    outside += show(
        "Wishart rate 1 -> Marchenko-Pastur(1)",
        MatrixEnsembleSpec(
            kind="wishart", dim=args.dim, trials=args.trials,
            seed=args.seed + 1, rate=Fraction(1),
        ),
        4,
    )
    half = Fraction(1, 2)
    bernoulli = Measure.discrete([(-1, half), (1, half)])
    part = MatrixEnsembleSpec(
        kind="deterministic", dim=args.dim, trials=1, seed=0, measure=bernoulli
    )
    outside += show(
        "free sum of two Bernoulli diagonals -> arcsine-type moments",
        MatrixEnsembleSpec(
            kind="free_sum", dim=args.dim, trials=args.trials,
            seed=args.seed + 2, parts=(part, part),
        ),
        4,
    )
    three = MatrixEnsembleSpec(
        kind="deterministic", dim=args.dim,
        measure=Measure.discrete([(-1, "1/5"), (0, half), (2, "3/10")]),
    )
    outside += show(
        "free sum of a three-atom diagonal and a GUE",
        MatrixEnsembleSpec(
            kind="free_sum", dim=args.dim, trials=args.trials, seed=args.seed + 3,
            parts=(three, MatrixEnsembleSpec(kind="gue", dim=args.dim)),
        ),
        4,
    )
    outside += show(
        "free sum of a three-atom diagonal and a Bernoulli diagonal",
        MatrixEnsembleSpec(
            kind="free_sum", dim=args.dim, trials=args.trials, seed=args.seed + 4,
            parts=(three, part),
        ),
        4,
    )
    if outside:
        print(f"FAIL: {outside} orders outside their allowance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
