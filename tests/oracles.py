"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: all-set-partition enumeration with a
quartic crossing scan, the Catalan recurrence, a full poset Mobius sweep,
certified Gauss-Legendre integrals of densities, and the Cauchy transform of
a discrete measure in rational arithmetic.  The production code must agree
with these on small sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable

import mpmath as mp

from freemoments.errors import NumericError, UnsupportedOperationError
from freemoments.measures import MARCHENKO_PASTUR, SEMICIRCLE, UNIFORM, Measure

Blocks = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> list[Blocks]:
    """All set partitions of {1..n} via restricted growth strings."""
    out: list[Blocks] = []

    def rec(i: int, blocks: list[list[int]]) -> None:
        if i > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def has_crossing(blocks: Blocks) -> bool:
    """Quartic scan for i < j < k < l with {i,k} and {j,l} split across two
    blocks.  Independent of the stack-based production check."""
    owner = {x: idx for idx, b in enumerate(blocks) for x in b}
    elements = sorted(owner)
    for i, j, k, l in combinations(elements, 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]:
            return True
    return False


def noncrossing_partitions(n: int) -> list[Blocks]:
    """Filter the full set-partition list down to the non-crossing ones,
    sorted on the canonical form."""
    canon = [
        tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0]))
        for p in set_partitions(n)
    ]
    return sorted(p for p in canon if not has_crossing(p))


def catalan_recurrence(n: int) -> int:
    """C(0) = 1, C(n) = sum_k C(k) C(n-1-k)."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[k] * table[m - 1 - k] for k in range(m)))
    return table[n]


def refines(p: Blocks, q: Blocks) -> bool:
    owner = {x: idx for idx, b in enumerate(q) for x in b}
    return all(len({owner[x] for x in b}) == 1 for b in p)


def poset_mobius_all(partitions: list[Blocks]) -> dict[tuple[Blocks, Blocks], int]:
    """Mobius values for every comparable pair, by the defining recursion
    mu(x, x) = 1, mu(x, y) = -sum_{x <= z < y} mu(x, z)."""
    below = {
        q: [z for z in partitions if refines(z, q)] for q in partitions
    }
    values: dict[tuple[Blocks, Blocks], int] = {}
    for x in partitions:
        ups = [y for y in partitions if refines(x, y)]
        # process y in order of interval size so all mu(x, z) exist
        ups.sort(key=lambda y: len(below[y]))
        for y in ups:
            if x == y:
                values[(x, y)] = 1
                continue
            acc = 0
            for z in below[y]:
                if z != y and (x, z) in values:
                    acc += values[(x, z)]
            values[(x, y)] = -acc
    return values


def product_over_blocks(blocks: Blocks, values: list[Fraction]) -> Fraction:
    """Product of values[|V|] over blocks V; values is 1-indexed by size via
    values[size - 1]."""
    acc = Fraction(1)
    for b in blocks:
        acc *= values[len(b) - 1]
    return acc


# ------------------------------------------------------ density quadrature

_QUAD_GUARD_DIGITS = 15


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _quad_certified(f: Callable, a, b, dps: int):
    """Adaptive Gauss-Legendre with a checked error estimate: dps relative
    digits, or an absolute error of 10^(-dps-10) when the value itself is
    tiny (the estimator bottoms out at the working epsilon)."""
    for maxdegree in (8, 10, 12):
        val, err = mp.quad(
            f, [a, b], error=True, method="gauss-legendre", maxdegree=maxdegree
        )
        floor = max(abs(val) * mp.mpf(10) ** (-dps - 5), mp.mpf(10) ** (-dps - 10))
        if err <= floor:
            return val
    raise NumericError(f"quadrature failed to certify {dps} digits (estimate {err})")


def density_integral(mu: Measure, h: Callable, dps: int):
    """Integral of h(x) d(mu) for a semicircle, Marchenko-Pastur or uniform
    density, certified to dps digits and computed at dps + 15.  The
    square-root laws are integrated in theta, x = center + half sin(theta) on
    [-pi/2, pi/2], which absorbs their endpoint behaviour: the density times
    dx/dtheta is cos(theta)^2 times an analytic factor.  Gauss-Legendre never
    samples the endpoint x = 0 of Marchenko-Pastur at rate 1."""
    with mp.workdps(dps + _QUAD_GUARD_DIGITS):
        mass = _mpf(mu.mass)
        if mu.density == UNIFORM:
            a, b = _mpf(mu.param("a")), _mpf(mu.param("b"))
            return mass * _quad_certified(lambda x: h(x) / (b - a), a, b, dps)
        if mu.density == MARCHENKO_PASTUR:
            s = mp.sqrt(_mpf(mu.param("rate")))
            center, half = 1 + s * s, 2 * s

            def factor(x):
                return half * half / (2 * mp.pi * x)

        elif mu.density == SEMICIRCLE:
            center, half = _mpf(mu.param("center")), _mpf(mu.param("radius"))

            def factor(x):
                return 2 / mp.pi

        else:
            raise UnsupportedOperationError(f"no quadrature for {mu.density}")

        def integrand(theta):
            x = center + half * mp.sin(theta)
            return factor(x) * mp.cos(theta) ** 2 * h(x)

        return mass * _quad_certified(integrand, -mp.pi / 2, mp.pi / 2, dps)


def numeric_moment(mu: Measure, k: int, dps: int = 30):
    """Quadrature value of the k-th raw moment of a density measure; checks
    the closed moment recurrences."""
    return density_integral(mu, lambda x: x**k, dps)


def cauchy_quad(mu: Measure, z, dps: int):
    """G(z) of a density measure by quadrature; checks the closed forms."""
    return density_integral(mu, lambda x: 1 / (z - x), dps)


def cauchy_exact(mu: Measure, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (real, imag) of G at the rational point re + i im, im > 0, of a
    discrete measure: G is a rational function of the atom data, summed here
    in Fractions; checks the mpmath evaluation."""
    out_re, out_im = Fraction(0), Fraction(0)
    for t, w in mu.atoms:
        dre = re - t
        denom = dre * dre + im * im
        out_re += w * dre / denom
        out_im -= w * im / denom
    return out_re, out_im
