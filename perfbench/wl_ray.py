"""`ray`: in-process numeric recovery of free cumulants on a ray.

Each op is verify_taylor_cumulants(mu, 4, dps=50) on a seeded measure; a
Cauchy op instead checks the non-real flag at p = 2.  Every block of 20
ops holds 16 closed-form measures (6 semicircles, 6 discrete laws, 4 Cauchy
laws) and 4 measures whose transform the seed commit evaluates by
quadrature (3 uniform windows, 1 Marchenko-Pastur law).  So the median sits
among the closed forms, and the 90th percentile among the uniform windows.
Parameters are drawn from balanced strata so that every run holds the same
mix of shapes.

Precision is 50 digits, as in the acceptance battery: at 30 digits the
fourth coefficient of the standard semicircle is off by 0.26, so every op
would fail.  Marchenko-Pastur uses rate 1 only: rate 3/2 takes 21 s and
rate 17/16 more than 60 s per op at 50 digits on the seed commit.

Each estimated coefficient must lie within the tolerance times
max(1, |k_q|) of the reference cumulant k_q.  The acceptance tolerances
are absolute, and a law with atoms near -8 and 8, at the reach 1/beta of
the default ray, misses them on coefficients in the thousands (1.34e-5 on
k_4 = -2608, a relative error of 5e-9).  Such a miss is reported as a note
on the op, never left out.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from harness import CheckFailed, Strata, cold_build, probability_atoms

BLOCK = 20          # ops per block of the fixed mix
OPS = 400           # generated per run; the timed loop cycles if it runs out
CAP_S = 30.0
TRACE_OPS = 20
DPS = 50
ORDER = 4
CLOSED_TOL = "1e-5"   # acceptance tolerances
QUAD_TOL = "1e-4"
QUADRATURE = ("uniform", "marchenko_pastur")
UNIFORM_WIDTHS = tuple(Fraction(w, 2) for w in (1, 2, 4, 6, 8))

fm = None
mp = None


def block(rng: random.Random, strata: Strata) -> list[dict]:
    def rat(key, values):
        return Fraction(strata.pick(key, values), rng.randint(1, 4))

    ops = []
    for _ in range(6):
        ops.append({"kind": "semicircle", "center": str(rat("sc", range(-6, 7))),
                    "radius": str(rat("sr", range(1, 13)))})
    for _ in range(6):
        ops.append({"kind": "discrete", "atoms": probability_atoms(rng, strata.pick("atoms", range(2, 7)))})
    for _ in range(4):
        ops.append({"kind": "cauchy", "center": str(rat("cc", range(-6, 7))),
                    "scale": str(rat("cs", range(1, 9)))})
    # One window left of 0, one across it and one right of it, the widths
    # cycling through five values per side: the quadrature cost grows with
    # the window's reach, and five blocks (100 ops) then hold every shape.
    for side in ("left", "across", "right"):
        width = strata.pick("uw" + side, UNIFORM_WIDTHS)
        offset = Fraction(rng.randint(0, 4), 4)
        if side == "left":
            a = -width - offset
        elif side == "across":
            a = -width * Fraction(rng.randint(1, 3), 4)
        else:
            a = offset
        ops.append({"kind": "uniform", "a": str(a), "b": str(a + width)})
    ops.append({"kind": "marchenko_pastur", "rate": "1"})
    return ops


def setup(ops: list[dict]) -> dict:
    global fm, mp
    import mpmath
    import freemoments
    fm, mp = freemoments, mpmath
    cold = cold_build(fm, ORDER)
    fm.verify_taylor_cumulants(fm.Measure.semicircle(0, 2), ORDER, dps=DPS)
    fm.estimate_taylor_on_ray(fm.invert_g_on_ray(fm.Measure.cauchy(), dps=DPS), 2)
    return {"cumulants.cold_build_s": cold}


def prepare(op: dict):
    kind = op["kind"]
    if kind == "semicircle":
        return fm.Measure.semicircle(Fraction(op["center"]), Fraction(op["radius"]))
    if kind == "discrete":
        return fm.Measure.discrete([(Fraction(t), Fraction(w)) for t, w in op["atoms"]])
    if kind == "cauchy":
        return fm.Measure.cauchy(Fraction(op["center"]), Fraction(op["scale"]))
    if kind == "uniform":
        return fm.Measure.uniform(Fraction(op["a"]), Fraction(op["b"]))
    return fm.Measure.marchenko_pastur(Fraction(op["rate"]))


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _nonreal(est):
    return bool(est.nonreal[0]), est.imag_parts[0]


def run(op: dict, mu):
    if op["kind"] == "cauchy":
        return _nonreal(fm.estimate_taylor_on_ray(fm.invert_g_on_ray(mu, dps=DPS), 2))
    check = fm.verify_taylor_cumulants(mu, ORDER, dps=DPS)
    return check.exact, check.estimated, check.max_error


def _counting_pair(mu, op_kind: str, tracer):
    """(G, G') evaluated by the program, each call counted and spanned."""
    name = "measures.cauchy_quad" if op_kind in QUADRATURE else "measures.cauchy_closed"

    def g(z):
        tracer.count("rays.g_evals")
        with tracer.span(name):
            return fm.cauchy_transform(mu, z, dps=mp.mp.dps)

    def gp(z):
        tracer.count("rays.gp_evals")
        with tracer.span(name):
            return fm.cauchy_transform_derivative(mu, z, dps=mp.mp.dps)

    return g, gp


def run_traced(op: dict, mu, tracer):
    """The steps verify_taylor_cumulants composes, called one by one."""
    pair = _counting_pair(mu, op["kind"], tracer)
    levels = fm.NontangentialRay().levels
    if op["kind"] == "cauchy":
        with tracer.span("rays.invert"):
            samples = fm.invert_g_on_ray(pair, dps=DPS)
        with tracer.span("rays.fit"):
            est = fm.estimate_taylor_on_ray(samples, 2)
        tracer.count("rays.levels", levels)
        tracer.count("rays.kept", len(samples.indices))
        return _nonreal(est)
    with tracer.span("measures.moments"):
        moments = fm.moments(mu, ORDER)
    with tracer.span("cumulants.free"):
        exact = fm.free_cumulants_from_moments(moments).values[:ORDER]
    with tracer.span("rays.invert"):
        samples = fm.invert_g_on_ray(pair, dps=DPS)
    with tracer.span("rays.fit"):
        est = fm.estimate_taylor_on_ray(samples, ORDER)
    tracer.count("rays.levels", levels)
    tracer.count("rays.kept", len(samples.indices))
    with mp.workdps(DPS):
        errors = [abs(e - _mpf(x)) for e, x in zip(est.coefficients, exact)]
        return exact, est.coefficients, max(errors)


def check(op: dict, mu, out) -> str:
    if op["kind"] == "cauchy":
        flag, imag = out
        if not flag:
            raise CheckFailed("non-real flag did not fire on b_0")
        # R is the constant center - i*scale, so Im b_0 = -scale
        with mp.workdps(DPS):
            if abs(imag + _mpf(Fraction(op["scale"]))) > mp.mpf("1e-8"):
                raise CheckFailed(f"Im b_0 = {mp.nstr(imag, 8)} is not -scale")
        return ""
    exact, estimated, max_error = out
    want = ref.free_cumulants(list(fm.moments(mu, ORDER).values))
    if list(exact) != want:
        raise CheckFailed("exact cumulants differ from the reference")
    if len(estimated) != ORDER:
        raise CheckFailed(f"{len(estimated)} estimated coefficients, not {ORDER}")
    with mp.workdps(DPS):
        tol = mp.mpf(QUAD_TOL if op["kind"] in QUADRATURE else CLOSED_TOL)
        errors = [abs(e - _mpf(k)) for e, k in zip(estimated, want)]
        misses = []
        for q, (error, k) in enumerate(zip(errors, want), start=1):
            allowed = tol * max(1, abs(_mpf(k)))
            if not error <= allowed:
                raise CheckFailed(f"coefficient {q} is off the reference by "
                                  f"{mp.nstr(error, 3)} > {mp.nstr(allowed, 3)}")
            if not error <= tol:
                misses.append(f"coefficient {q} ({mp.nstr(_mpf(k), 6)}): "
                              f"error {mp.nstr(error, 3)} > {mp.nstr(tol, 2)}")
        # the program's own error figure must agree with the one found here
        if abs(max_error - max(errors)) > mp.mpf(10) ** (8 - DPS):
            raise CheckFailed(f"reported max error {mp.nstr(max_error, 3)} is not "
                              f"{mp.nstr(max(errors), 3)}")
    if misses:
        return ("outside the absolute acceptance tolerance, within it relative to the "
                "coefficient; " + "; ".join(misses))
    return ""


def layer_metrics(tracer, setup_info: dict) -> dict:
    quad_calls = tracer.calls("measures.cauchy_quad")
    quad_busy = tracer.busy("measures.cauchy_quad")
    levels = tracer.counts.get("rays.levels", 0)
    return {
        "measures.cauchy_quad.busy_s": quad_busy,
        "measures.cauchy_quad.mean_ms": 1000 * quad_busy / quad_calls if quad_calls else 0.0,
        "measures.cauchy_closed.busy_s": tracer.busy("measures.cauchy_closed"),
        "measures.cauchy.calls": quad_calls + tracer.calls("measures.cauchy_closed"),
        "rays.invert.self_s": tracer.self_time("rays.invert"),
        "rays.fit.busy_s": tracer.busy("rays.fit"),
        "rays.g_evals_per_point": tracer.counts.get("rays.g_evals", 0) / levels if levels else 0.0,
        "rays.points_kept_ratio": tracer.counts.get("rays.kept", 0) / levels if levels else 0.0,
    }
