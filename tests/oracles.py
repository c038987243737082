"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: all-set-partition enumeration with a
quartic crossing scan, the Catalan recurrence, a full poset Mobius sweep,
certified Gauss-Legendre integrals of densities, the Cauchy transform of
a discrete or Cauchy law, with its derivative, in rational arithmetic, and
that of a semicircle, Marchenko-Pastur or uniform law from its textbook
closed form at a precision past the cancellation.  The production code
must agree with these on small sizes.
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


def shifted_poisson_model(t, c) -> dict[str, Fraction]:
    """Matrix model of the zero-drift pair (0, c delta_t), t != 0: its free
    law is scale * MP(rate) shifted by `shift`, with scale = t,
    rate = c (1 + t^2) / t^2 and shift = -c / t."""
    t, c = Fraction(t), Fraction(c)
    return {"scale": t, "rate": c * (1 + t * t) / (t * t), "shift": -c / t}


def cauchy_exact(mu: Measure, re: Fraction, im: Fraction):
    """Exact (G_re, G_im, G'_re, G'_im) at the rational point z = re + i im
    of a discrete measure or a Cauchy law, z off its atoms or its pole: G is
    a rational function of the data, the sum of weight / (z - pole) over the
    atoms or the one pole center - i scale, and G' the sum of
    -weight / (z - pole)^2, summed here in Fractions; checks the production
    evaluation."""
    if mu.kind == "discrete":
        terms = [(w, t, Fraction(0)) for t, w in mu.atoms]
    else:
        terms = [(mu.mass, mu.param("center"), -mu.param("scale"))]
    g_re = g_im = gp_re = gp_im = Fraction(0)
    for w, pole_re, pole_im in terms:
        dre, dim = re - pole_re, im - pole_im
        denom = dre * dre + dim * dim
        # 1 / (z - pole) = (dre - i dim) / denom
        inv_re, inv_im = dre / denom, -dim / denom
        g_re += w * inv_re
        g_im += w * inv_im
        gp_re -= w * (inv_re * inv_re - inv_im * inv_im)
        gp_im -= w * 2 * inv_re * inv_im
    return g_re, g_im, gp_re, gp_im


def cauchy_sqrt_law(mu: Measure, re: Fraction, im: Fraction, prec: int):
    """(G_re, G_im, G'_re, G'_im) at the rational point z = re + i im of a
    semicircle or Marchenko-Pastur law, z off the support [a, b], from the
    textbook closed forms with principal roots, s = sqrt(z - a) sqrt(z - b):
    G(z) = 2 (z - c - s) / r^2 for the semicircle of center c and radius r,
    (z + 1 - rate - s) / (2 z) for Marchenko-Pastur, whose edges (1 -+
    sqrt(rate))^2 are computed here, each times the mass, and G' their
    derivative, with s' = (z - (a + b) / 2) / s.  Evaluated in mpmath at
    prec bits, which must cover the cancellation of z - c - s ~ r^2 / (2z)
    and of G' ~ -1/z^2 at large |z|; checks the production evaluation."""
    with mp.workprec(prec):
        z = mp.mpc(_mpf(re), _mpf(im))
        if mu.density == SEMICIRCLE:
            c, r = _mpf(mu.param("center")), _mpf(mu.param("radius"))
            a, b = c - r, c + r
        else:
            rate = _mpf(mu.param("rate"))
            a, b = (1 - mp.sqrt(rate)) ** 2, (1 + mp.sqrt(rate)) ** 2
        s = mp.sqrt(z - a) * mp.sqrt(z - b)
        ds = (z - (a + b) / 2) / s
        if mu.density == SEMICIRCLE:
            g, gp = 2 * (z - c - s) / r**2, 2 * (1 - ds) / r**2
        else:
            g = (z + 1 - rate - s) / (2 * z)
            gp = ((1 - ds) * z - (z + 1 - rate - s)) / (2 * z * z)
        mass = _mpf(mu.mass)
        return (mass * g).real, (mass * g).imag, (mass * gp).real, (mass * gp).imag


def cauchy_log_law(mu: Measure, re: Fraction, im: Fraction, prec: int):
    """(G_re, G_im, G'_re, G'_im) at the rational point z = re + i im of a
    uniform law on [a, b], z off [a, b], from the textbook forms G(z) = m /
    (b - a) (log(z - a) - log(z - b)) and G'(z) = m / (b - a) (1 / (z - a)
    - 1 / (z - b)), each log taken as log |z - x| + i arg(z - x).  The
    branch comes from exact signs: arg(z - x) is atan2 of the exact parts
    im and re - x, 0 or pi on the axis, so the two args' difference is arg
    q of q = (z - a) / (z - b) on C minus [a, b].  G' is summed in
    Fractions; G in mpmath at prec bits, which must cover the cancellation
    of the two logs, about log2 |z| bits at large |z|.  Checks the
    production evaluation."""
    a, b = mu.param("a"), mu.param("b")
    with mp.workprec(prec):

        def log(x: Fraction):
            dre = re - x
            if im == 0:
                arg = mp.pi if dre < 0 else mp.mpf(0)
            else:
                arg = mp.atan2(_mpf(im), _mpf(dre))
            return mp.mpc(mp.log(mp.hypot(_mpf(dre), _mpf(im))), arg)

        def inverse(x: Fraction):
            dre = re - x
            size = dre * dre + im * im
            return dre / size, -im / size

        c = mu.mass / (b - a)
        g = _mpf(c) * (log(a) - log(b))
        (ar, ai), (br, bi) = inverse(a), inverse(b)
        return g.real, g.imag, _mpf(c * (ar - br)), _mpf(c * (ai - bi))


def least_squares_rows(offsets, columns: int) -> list[list[Fraction]]:
    """The pseudo-inverse (A^T A)^-1 A^T of the ray fit's matrix
    A[i, m] = 2^(-offsets[i] m), m < columns, as rows of Fractions: plain
    Gauss-Jordan on [A^T A | A^T], each pivot row divided by its pivot;
    checks the production fit's fraction-free elimination."""
    a = [[Fraction(1, 2 ** (o * m)) for m in range(columns)] for o in offsets]
    rows = [
        [sum(row[m] * row[k] for row in a) for k in range(columns)] + [row[m] for row in a]
        for m in range(columns)
    ]
    for k in range(columns):
        pivot = next(i for i in range(k, columns) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(columns):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[k])]
    return [row[columns:] for row in rows]
