#!/usr/bin/env python3
"""Recover R-transform Taylor coefficients of a preset measure on a ray.

Prints the retained sample points (radius, R value, certified residual) of
the ray inverted for the order P, 1-10: 3 (P + 1) levels but at least 8,
then the fitted coefficients next to the exact free cumulants.
Exits 1 when a fitted coefficient is further from its exact cumulant than
its error figure, or is flagged non-real; 0 otherwise.

Usage: python scripts/ray_recovery_demo.py [--measure NAME] [--order P] [--dps D]
"""

import argparse
import sys
from fractions import Fraction

import mpmath as mp

from freemoments import (
    Measure,
    estimate_taylor_on_ray,
    free_cumulants_from_moments,
    invert_g_on_ray,
    moments,
)

PRESETS = {
    "semicircle": lambda: Measure.semicircle(0, 2),
    "marchenko-pastur": lambda: Measure.marchenko_pastur(2),
    "uniform": lambda: Measure.uniform(-1, 1),
    "two-atom": lambda: Measure.discrete([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", choices=sorted(PRESETS), default="semicircle")
    parser.add_argument("--order", type=int, choices=range(1, 11), default=6, metavar="1-10")
    parser.add_argument("--dps", type=int, default=50)
    args = parser.parse_args()

    mu = PRESETS[args.measure]()
    samples = invert_g_on_ray(mu, dps=args.dps, p=args.order)
    with mp.workdps(args.dps):
        print(f"{args.measure}: {len(samples.indices)} ray points kept, "
              f"{len(samples.dropped)} dropped")
        print(f"{'radius':>12}  {'Im R(z)':>24}  {'residual':>12}")
        for i in range(0, len(samples.indices), 8):
            print(
                f"{mp.nstr(mp.mpf(samples.radii[i]), 6):>12}  "
                f"{mp.nstr(samples.r_values[i].imag, 16):>24}  "
                f"{mp.nstr(samples.residuals[i], 3):>12}"
            )
        est = estimate_taylor_on_ray(samples, args.order)
        exact = free_cumulants_from_moments(moments(mu, args.order)).values
        print(f"\n{'power':>5}  {'fitted':>24}  {'exact':>12}  {'est. error':>12}")
        failed = []
        for i in range(args.order):
            off = abs(est.coefficients[i] - mp.mpf(exact[i].numerator) / exact[i].denominator)
            flag = ""
            if est.nonreal[i]:
                flag = "  non-real"
            elif off > est.errors[i]:
                flag = f"  off by {mp.nstr(off, 3)}"
            if flag:
                failed.append(i)
            print(
                f"{i:>5}  {mp.nstr(est.coefficients[i].real, 16):>24}  "
                f"{str(exact[i]):>12}  {mp.nstr(est.errors[i], 3):>12}{flag}"
            )
        print(f"\nfit condition number: {mp.nstr(est.condition, 4)}")
    if failed:
        print(f"FAIL: powers {failed} miss their exact cumulants", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
