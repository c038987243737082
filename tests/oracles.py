"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: all-set-partition enumeration with a
quartic crossing scan, the Catalan recurrence, a full poset Mobius sweep, and
plain mp.quad integrals of densities.  The production code must agree with
these on small sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import mpmath as mp

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


# ------------------------------------------------- Cauchy transforms by quad


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def marchenko_pastur_cauchy_quad(rate: Fraction, z, dps: int):
    """G(z) of the unit-mass Marchenko-Pastur law (rate >= 1), by mp.quad at
    dps + 15 digits.  x = (1 + rate) + 2 sqrt(rate) sin(theta) maps
    [-pi/2, pi/2] onto the support and turns the density
    sqrt((b - x)(x - a)) / (2 pi x) dx into an analytic integrand.  Gauss-
    Legendre never samples the endpoint x = 0 of rate 1."""
    with mp.workdps(dps + 15):
        lam = _mpf(rate)
        center, half = 1 + lam, 2 * mp.sqrt(lam)

        def f(theta):
            x = center + half * mp.sin(theta)
            return half**2 * mp.cos(theta) ** 2 / (2 * mp.pi * x * (z - x))

        return mp.quad(f, [-mp.pi / 2, mp.pi / 2], method="gauss-legendre")


def uniform_cauchy_quad(a: Fraction, b: Fraction, z, dps: int):
    """G(z) of the unit-mass uniform law on [a, b], by mp.quad at dps + 15
    digits."""
    with mp.workdps(dps + 15):
        lo, hi = _mpf(a), _mpf(b)
        return mp.quad(lambda x: 1 / (z - x), [lo, hi]) / (hi - lo)
