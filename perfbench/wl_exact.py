"""`exact`: in-process Fraction work in noncrossing, cumulants, series and
levy, with the order tables warmed in set-up.

Each block of 20 ops holds a fixed mix, so that every run sees the same
shares: cheap warm lookups (the median), and three series ops plus one
poset recursion per block (the tail).
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from harness import CheckFailed, Strata, cold_build, jump_atoms, random_interval, random_nc, rational

BLOCK = 20           # ops per block of the fixed mix
OPS = 4000           # generated per run; the timed loop cycles if it runs out
CAP_S = 20.0         # per op; the slowest op (order-24 series) takes ~0.3 s
TRACE_OPS = 200      # fixed op prefix of the traced run

LAYER = {
    "free_cumulants": "cumulants.free",
    "free_moments": "cumulants.free",
    "free_convolve": "cumulants.free",
    "classical_cumulants": "cumulants.classical",
    "classical_moments": "cumulants.classical",
    "r_series": "series.rseries",
    "moments_from_r": "series.rseries",
    "support_bound": "series.support_bound",
    "levy_tables": "levy",
    "growth_bound": "levy",
    "levy_add": "levy",
    "dilate": "levy",
    "kreweras": "noncrossing.kreweras",
    "mobius": "noncrossing.mobius_closed",
    "mobius_poset": "noncrossing.mobius_poset",
}

fm = None  # the program, bound by setup()


# ------------------------------------------------------------------- inputs


def _seq(rng: random.Random, n: int) -> list[str]:
    return [rational(rng) for _ in range(n)]


def _pair(rng: random.Random) -> dict:
    return {"gamma": rational(rng, -6, 6, 6), "atoms": jump_atoms(rng)}


def block(rng: random.Random, strata: Strata) -> list[dict]:
    # Ops of one layer share one cycle of sizes: an op's cost grows steeply
    # with its order, and the percentiles fall among these ops, so every run
    # must hold the same number of ops at each order.
    def order(key, lo, hi):
        return strata.pick(key, range(lo, hi + 1))

    ops = []
    for kind, field in (("free_cumulants", "m"), ("free_cumulants", "m"),
                        ("free_moments", "k"), ("free_moments", "k")):
        ops.append({"kind": kind, field: _seq(rng, order("free", 4, 10))})
    p = order("free", 4, 10)
    ops.append({"kind": "free_convolve", "a": _seq(rng, p), "b": _seq(rng, p)})
    ops.append({"kind": "classical_cumulants", "m": _seq(rng, order("classical", 4, 16))})
    ops.append({"kind": "classical_moments", "k": _seq(rng, order("classical", 4, 16))})
    for kind, field in (("r_series", "m"), ("r_series", "m"), ("moments_from_r", "r")):
        ops.append({"kind": kind, field: _seq(rng, order("series", 8, 24))})
    ops.append({"kind": "support_bound", "k": _seq(rng, order("free", 4, 10))})
    ops.append({"kind": "levy_tables", "pair": _pair(rng), "p": order("levy", 4, 8)})
    ops.append({"kind": "growth_bound", "pair": _pair(rng), "p": order("levy", 4, 8)})
    ops.append({"kind": "levy_add", "a": _pair(rng), "b": _pair(rng), "p": 6})
    ops.append({"kind": "dilate", "pair": _pair(rng),
                "t": str(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))),
                "p": 6})
    for _ in range(2):
        n = order("nc", 8, 10)
        ops.append({"kind": "kreweras", "n": n, "blocks": random_nc(rng, n)})
    for _ in range(2):
        ops.append(dict(random_interval(rng, order("nc", 8, 10)), kind="mobius"))
    ops.append(dict(random_interval(rng, order("poset", 6, 7)), kind="mobius_poset"))
    return ops


# ------------------------------------------------------------------- set-up


def setup(ops: list[dict]) -> dict:
    """Import the program and fill its per-order tables; the first call per
    order is the cold build."""
    global fm
    import freemoments
    fm = freemoments
    cold = cold_build(fm, 10, 16)
    for n in (6, 7):
        fm.mobius_nc_poset(fm.NCInterval(fm.NCPartition.full(n), fm.NCPartition.full(n)))
    return {"cumulants.cold_build_s": cold}


def _fr(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _levy(data: dict):
    return fm.LevyPair(Fraction(data["gamma"]),
                       fm.Measure.discrete([(Fraction(t), Fraction(w)) for t, w in data["atoms"]]))


def _nc(blocks, n):
    return fm.NCPartition.from_blocks(blocks, n)


def prepare(op: dict):
    kind = op["kind"]
    if kind in ("free_cumulants", "classical_cumulants", "r_series"):
        return fm.MomentSequence(_fr(op["m"]))
    if kind in ("free_moments", "support_bound"):
        return fm.CumulantSequence(_fr(op["k"]))
    if kind == "classical_moments":
        return fm.CumulantSequence(_fr(op["k"]), fm.CLASSICAL)
    if kind == "free_convolve":
        return fm.MomentSequence(_fr(op["a"])), fm.MomentSequence(_fr(op["b"]))
    if kind == "moments_from_r":
        return fm.TruncatedSeries(_fr(op["r"]))
    if kind in ("levy_tables", "growth_bound"):
        return _levy(op["pair"]), op["p"]
    if kind == "levy_add":
        return _levy(op["a"]), _levy(op["b"])
    if kind == "dilate":
        return _levy(op["pair"]), Fraction(op["t"])
    if kind == "kreweras":
        return _nc(op["blocks"], op["n"])
    return fm.NCInterval(_nc(op["lower"], op["n"]), _nc(op["upper"], op["n"]))


# ---------------------------------------------------------------------- ops


def _levy_tables(args):
    pair, p = args
    return (fm.cumulants_from_levy(pair, p).values,
            fm.moments_of_free_id(pair, p).values,
            fm.moments_of_classical_id(pair, p).values)


CALLS = {
    "free_cumulants": lambda a: fm.free_cumulants_from_moments(a).values,
    "free_moments": lambda a: fm.moments_from_free_cumulants(a).values,
    "free_convolve": lambda a: fm.free_convolve(*a).values,
    "classical_cumulants": lambda a: fm.classical_cumulants_from_moments(a).values,
    "classical_moments": lambda a: fm.moments_from_classical_cumulants(a).values,
    "r_series": lambda a: fm.r_series_from_moments(a).coeffs,
    "moments_from_r": lambda a: fm.moments_from_r_series(a).values,
    "support_bound": lambda a: fm.support_bound_from_cumulants(a),
    "levy_tables": _levy_tables,
    "growth_bound": lambda a: fm.moment_growth_bound(*a),
    "levy_add": lambda a: fm.levy_add(*a),
    "dilate": lambda a: fm.dilate_levy(*a),
    "kreweras": lambda a: fm.kreweras_complement(a).blocks,
    "mobius": lambda a: fm.mobius_nc(a),
    "mobius_poset": lambda a: fm.mobius_nc_poset(a),
}


def run(op: dict, prepared):
    return CALLS[op["kind"]](prepared)


def run_traced(op: dict, prepared, tracer):
    with tracer.span(LAYER[op["kind"]]):
        return CALLS[op["kind"]](prepared)


# ------------------------------------------------------------------- checks


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _levy_cumulants(pair, p: int) -> list[Fraction]:
    """k_1 = gamma + m_1(sigma), k_q = m_{q-2}(sigma) + m_q(sigma)."""
    def m(q):
        return sum((w * t**q for t, w in pair.sigma.atoms), Fraction(0))
    return [pair.gamma + m(1)] + [m(q - 2) + m(q) for q in range(2, p + 1)]


def check(op: dict, prepared, out) -> None:
    kind = op["kind"]
    if kind == "free_cumulants":
        _expect(list(out) == ref.free_cumulants(list(prepared.values)), "free cumulants differ from the reference")
        back = fm.moments_from_free_cumulants(fm.CumulantSequence(out)).values
        _expect(back == prepared.values, "m -> k -> m is not the identity")
    elif kind == "free_moments":
        _expect(list(out) == ref.free_moments(list(prepared.values)), "free moments differ from the reference")
        back = fm.free_cumulants_from_moments(fm.MomentSequence(out)).values
        _expect(back == prepared.values, "k -> m -> k is not the identity")
    elif kind == "free_convolve":
        a, b = prepared
        k = [x + y for x, y in zip(ref.free_cumulants(list(a.values)), ref.free_cumulants(list(b.values)))]
        _expect(list(out) == ref.free_moments(k), "free convolution differs from cumulant addition")
    elif kind == "classical_cumulants":
        _expect(list(out) == ref.classical_cumulants(list(prepared.values)), "classical cumulants differ from the reference")
        back = fm.moments_from_classical_cumulants(fm.CumulantSequence(out, fm.CLASSICAL)).values
        _expect(back == prepared.values, "classical m -> c -> m is not the identity")
    elif kind == "classical_moments":
        _expect(list(out) == ref.classical_moments(list(prepared.values)), "classical moments differ from the reference")
    elif kind == "r_series":
        _expect(list(out) == ref.free_cumulants(list(prepared.values)), "R coefficients differ from the reference")
        if prepared.p <= 10:
            _expect(out == fm.free_cumulants_from_moments(prepared).values,
                    "series route differs from the partition route")
    elif kind == "moments_from_r":
        _expect(list(out) == ref.free_moments(list(prepared.coeffs)), "moments from R differ from the reference")
        if prepared.order + 1 <= 10:
            _expect(out == fm.moments_from_free_cumulants(fm.CumulantSequence(prepared.coeffs)).values,
                    "series route differs from the partition route")
    elif kind == "support_bound":
        nonzero = [(n, abs(k)) for n, k in enumerate(prepared.values, start=1) if k != 0]
        root = out / 16
        _expect(all(root**n >= k for n, k in nonzero), "bound does not cover every |k_n|^(1/n)")
        _expect(any((root * (1 - Fraction(1, 10**15)))**n < k for n, k in nonzero),
                "bound is looser than 1e-15 relative")
    elif kind == "levy_tables":
        pair, p = prepared
        k, m_free, m_classical = out
        _expect(list(k) == _levy_cumulants(pair, p), "pair cumulants differ from the canonical formula")
        _expect(list(m_free) == ref.free_moments(list(k)), "free-ID moments differ from the reference")
        _expect(list(m_classical) == ref.classical_moments(list(k)), "classical-ID moments differ from the reference")
    elif kind == "growth_bound":
        pair, p = prepared
        actual = ref.free_moments(_levy_cumulants(pair, p))
        mhat = [pair.sigma.mass] + [sum((w * abs(t)**q for t, w in pair.sigma.atoms), Fraction(0))
                                    for q in range(1, p + 1)]
        b = [abs(pair.gamma) + mhat[1]] + [mhat[q - 2] + mhat[q] for q in range(2, p + 1)]
        _expect(list(out) == ref.free_moments(b), "growth bound differs from the bound-sequence moments")
        _expect(all(abs(m) <= bound for m, bound in zip(actual, out)), "a free-ID moment exceeds its bound")
    elif kind == "levy_add":
        a, b = prepared
        p = op["p"]
        total = [x + y for x, y in zip(_levy_cumulants(a, p), _levy_cumulants(b, p))]
        _expect(_levy_cumulants(out, p) == total, "pair addition is not cumulant-additive")
    elif kind == "dilate":
        pair, t = prepared
        p = op["p"]
        scaled = [t**q * k for q, k in enumerate(_levy_cumulants(pair, p), start=1)]
        _expect(_levy_cumulants(out, p) == scaled, "dilation does not scale k_q by t^q")
    elif kind == "kreweras":
        want = ref.kreweras([list(b) for b in prepared.blocks], prepared.n)
        _expect([list(b) for b in out] == want, "Kreweras complement differs from pi^-1 gamma")
    else:
        lower = [list(b) for b in prepared.lower.blocks]
        upper = [list(b) for b in prepared.upper.blocks]
        _expect(out == ref.mobius(lower, upper), "Mobius value differs from the reference product")
        if kind == "mobius_poset":
            _expect(out == fm.mobius_nc(prepared), "poset recursion differs from mobius_nc")

