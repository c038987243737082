"""Independent reference implementations the checks compare against.

They share no code with the program: the free transforms use the
functional relation M(z) = 1 + sum_s k_s z^s M(z)^s, the classical ones the
binomial recursion m_n = sum_k C(n-1, k-1) c_k m_{n-k}, and the lattice maps
the permutation form of non-crossing partitions (Kreweras complement
K(pi) = pi^-1 gamma with gamma the long cycle), and the matrix ensembles
their free cumulants (semicircle 0, 1, 0, ...; Marchenko-Pastur all equal
to the rate; free cumulants add under a free sum).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _power_coeffs(m: list[Fraction], p: int) -> list[list[Fraction]]:
    """P[s][d] = [z^d] M(z)^s for 0 <= s, d <= p, M = 1 + m_1 z + ..."""
    series = [Fraction(1)] + list(m)
    powers = [[Fraction(1)] + [Fraction(0)] * p]
    for _ in range(p):
        prev = powers[-1]
        powers.append([
            sum((series[j] * prev[d - j] for j in range(d + 1)), Fraction(0))
            for d in range(p + 1)
        ])
    return powers


def free_cumulants(m: list[Fraction]) -> list[Fraction]:
    p = len(m)
    powers = _power_coeffs(m, p)
    k: list[Fraction] = []
    for n in range(1, p + 1):
        k.append(m[n - 1] - sum(
            (k[s - 1] * powers[s][n - s] for s in range(1, n)), Fraction(0)))
    return k


def free_moments(k: list[Fraction]) -> list[Fraction]:
    p = len(k)
    m: list[Fraction] = []
    # powers[s][d] = [z^d] M(z)^s, extended one degree at a time
    powers = [[Fraction(1)] + [Fraction(0)] * p for _ in range(p + 1)]
    for n in range(1, p + 1):
        value = sum((k[s - 1] * powers[s][n - s] for s in range(1, n + 1)), Fraction(0))
        m.append(value)
        series = [Fraction(1)] + m
        for s in range(1, p + 1):
            powers[s][n] = sum(
                (series[j] * powers[s - 1][n - j] for j in range(n + 1)), Fraction(0))
    return m


def classical_cumulants(m: list[Fraction]) -> list[Fraction]:
    full = [Fraction(1)] + list(m)
    c: list[Fraction] = []
    for n in range(1, len(m) + 1):
        c.append(full[n] - sum(
            (math.comb(n - 1, j - 1) * c[j - 1] * full[n - j] for j in range(1, n)),
            Fraction(0)))
    return c


def classical_moments(c: list[Fraction]) -> list[Fraction]:
    full = [Fraction(1)]
    for n in range(1, len(c) + 1):
        full.append(sum(
            (math.comb(n - 1, j - 1) * c[j - 1] * full[n - j] for j in range(1, n + 1)),
            Fraction(0)))
    return full[1:]


# ------------------------------------------------------------------ lattice


def kreweras(blocks: list[list[int]], n: int) -> list[list[int]]:
    """Kreweras complement as the cycles of pi^-1 o gamma."""
    inverse = {}
    for block in blocks:
        for a, b in zip(block, block[1:] + block[:1]):
            inverse[b] = a
    perm = {x: inverse[x % n + 1] for x in range(1, n + 1)}
    seen: set[int] = set()
    cycles = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        cycles.append(sorted(cycle))
    return sorted(cycles)


def mobius(lower: list[list[int]], upper: list[list[int]]) -> int:
    """Mobius value of [lower, upper] in NC(n): restrict lower to each block
    of upper, and multiply the signed Catalan numbers of the blocks of each
    restriction's Kreweras complement."""
    total = 1
    for window in upper:
        pos = {x: i + 1 for i, x in enumerate(window)}
        sub = [[pos[x] for x in b] for b in lower if b[0] in pos]
        for v in kreweras(sub, len(window)):
            size = len(v) - 1
            total *= (-1) ** size * math.comb(2 * size, size) // (size + 1)
    return total


# ------------------------------------------------------------ random matrices


def ensemble_moments(spec: dict, p: int) -> list[Fraction]:
    """Limiting spectral moments 1..p of an ensemble given as its JSON spec.
    A Wishart rate is used as given, so rate * dim must be a whole number
    of columns."""
    kind = spec["kind"]
    if kind == "gue":
        base = free_moments([Fraction(0), Fraction(1)] + [Fraction(0)] * (p - 2))
    elif kind == "wishart":
        rate = Fraction(spec["rate"])
        assert (rate * spec["dim"]).denominator == 1, "rate * dim is not a column count"
        base = free_moments([rate] * p)
    elif kind == "deterministic":
        atoms = [(Fraction(t), Fraction(w)) for t, w in spec["measure"]["atoms"]]
        mass = sum(w for _, w in atoms)
        base = [sum(w * t**k for t, w in atoms) / mass for k in range(1, p + 1)]
    else:  # free_sum
        a, b = (free_cumulants(ensemble_moments(part, p)) for part in spec["parts"])
        base = free_moments([x + y for x, y in zip(a, b)])
    scale = Fraction(spec.get("scale", 1))
    shift = Fraction(spec.get("shift", 0))
    full = [Fraction(1)] + base
    return [sum((math.comb(k, j) * scale**j * full[j] * shift ** (k - j) for j in range(k + 1)),
                Fraction(0)) for k in range(1, p + 1)]
