"""Command-line front end.

One subcommand per pipeline stage:

- ``nc``: lattice enumeration (counts, partitions, complements, Mobius).
- ``cumulants`` / ``moments`` / ``freeconv``: exact sequence conversions.
- ``rseries`` / ``support-bound``: formal series and the support radius bound.
- ``rtransform``: numeric coefficient recovery along a ray.
- ``levy``: cumulant/moment tables of the two correspondents of a pair.
- ``simulate``: random-matrix trace-moment estimates vs exact predictions.
- ``verify``: single-measure coefficient check, or the acceptance battery.

Every result and every error is JSON on standard output; progress/status
lines go to standard error.  Exact values are serialized as "p/q" strings,
numeric values as decimal strings together with the working precision that
produced them.  Exit codes: 0 success, 1 input/validation problems or a
standard output closed by its reader, 2 numeric failures (non-convergence,
budget, failed verification) and internal errors, which print
{"error": "internal", ...} with the traceback on standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    _check_order,
    _check_sweeps,
    _exact_bits,
    as_fraction,
    classical_cumulants_from_moments,
    free_convolve,
    free_cumulants_from_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
)
from .errors import (
    BudgetError,
    FreemomentsError,
    NumericError,
    RegionTooLargeError,
    SizeLimitError,
    ValidationError,
    _check_work,
)
from .noncrossing import (
    MAX_N,
    NCInterval,
    NCPartition,
    catalan,
    enumerate_nc,
    kreweras_complement,
    mobius_nc,
)

# Every subcommand runs the exact layers above; each handler imports the
# rest of what it runs (measures, series, levy, rays, rmt, acceptance,
# mpmath), so a spawn loads only its own subcommand's layers.
if TYPE_CHECKING:
    from .measures import Measure

_NUMERIC_FAILURES = (NumericError, RegionTooLargeError, BudgetError)

# `nc --list n` prints n numbers for each of the Catalan(n) partitions of
# NC(n), and is refused up front past this many.  On a 2-core machine n = 11
# (646646 numbers) took 2.7 s and 157 MB, n = 12 (2.5e6) 9.1 s and 543 MB,
# n = 13 (9.7e6) 43 s and 2 GB.
_LIST_BUDGET = 10**6

# kind -> (cumulants from moments, moments from cumulants)
_MAPS = {
    FREE: (free_cumulants_from_moments, moments_from_free_cumulants),
    CLASSICAL: (classical_cumulants_from_moments, moments_from_classical_cumulants),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the shared error hierarchy
    instead of printing usage and exiting on its own, and that reads every
    token starting like a negative number as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse before 3.13 takes only -N and -N.N for negative numbers
        # and any other token that starts with - for an option, such as -1/2
        # in `--gamma -1/2`; no flag here starts with a digit or a dot, so
        # the pattern of 3.13 is safe
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ValidationError(message)


# ------------------------------------------------------------------- helpers


# JSON input nests at most this many brackets outside strings, checked before decoding
JSON_MAX_DEPTH = 32
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


def _load_json_text(text: str, what: str):
    def reject_float(literal: str):
        raise ValidationError(
            f"{what}: float literal {literal!r} is not exact; "
            'write integers or "p/q" strings'
        )

    brackets = re.findall(r"[][{}]", _JSON_STRING.sub("", text))
    depths = itertools.accumulate(1 if b in "[{" else -1 for b in brackets)
    if max(depths, default=0) > JSON_MAX_DEPTH:
        raise ValidationError(f"{what}: JSON nested deeper than {JSON_MAX_DEPTH} brackets")
    try:
        return json.loads(text, parse_float=reject_float)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal longer than the
        # interpreter's int/str conversion limit
        raise ValidationError(f"{what}: invalid JSON: {exc}") from exc


def _load_json_file(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    return _load_json_text(text, what)


def _sequence_from_text(text: str, what: str) -> tuple[Fraction, ...]:
    data = _load_json_text(text, what)
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{what} must be a non-empty JSON array")
    return tuple(as_fraction(v) for v in data)


def _exact_str(value) -> str:
    """The "p/q" string of an exact value.  Its size is known only once it
    is computed, so a result with more digits than the interpreter prints
    (sys.get_int_max_str_digits; 0 means no limit) is rejected here."""
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise SizeLimitError(
            f"an exact result has more than the {sys.get_int_max_str_digits()} "
            "digits the interpreter prints"
        ) from exc


def _fractions_to_json(values) -> list[str]:
    return [_exact_str(v) for v in values]


def _check_printable(n: int, what: str) -> None:
    """Reject, before computing it, an integer that may reach 4^n when the
    interpreter would refuse to print it (sys.get_int_max_str_digits; 0
    means no limit).  Catalan(n) and every NC(n) Mobius value are below 4^n,
    and 4^n has floor(n log10 4) + 1 digits."""
    limit = sys.get_int_max_str_digits()
    if limit and n >= limit / math.log10(4):
        raise SizeLimitError(
            f"{what} on n={n} elements: the result may reach 4^n, longer than "
            f"the {limit} digits the interpreter prints"
        )


def _blocks_from_json(data, what: str) -> NCPartition:
    if not isinstance(data, list):
        raise ValidationError(f"{what} must be a JSON array of blocks")
    return NCPartition.from_blocks(data)


def _num_str(value, digits: int) -> str:
    import mpmath as mp

    return mp.nstr(mp.mpf(value), digits)


def _complex_strs(value, digits: int) -> dict:
    import mpmath as mp

    z = mp.mpc(value)
    return {"real": mp.nstr(z.real, digits), "imag": mp.nstr(z.imag, digits)}


def _measure_from_file(path: str) -> Measure:
    from .measures import measure_from_json

    return measure_from_json(_load_json_file(path, "measure"))


# -------------------------------------------------------------- subcommands


def _run_nc(args) -> tuple[dict, int]:
    if args.upper is not None and args.mobius is None:
        raise ValidationError("--upper applies to --mobius only")
    if args.count is not None:
        n = args.count
        if n < 1:
            raise ValidationError("--count needs n >= 1")
        _check_printable(n, "--count")
        return {"n": n, "count": catalan(n)}, 0
    if args.list is not None:
        n = args.list
        if 1 <= n <= MAX_N:  # enumerate_nc refuses the others before any work
            remedy = "lower n, or count the lattice with --count"
            _check_work(n * catalan(n), _LIST_BUDGET, f"a listing of NC({n}) takes", "printed numbers", remedy)
        parts = enumerate_nc(n)
        return {
            "n": n,
            "count": len(parts),
            "partitions": [[list(b) for b in p.blocks] for p in parts],
        }, 0
    if args.kreweras is not None:
        pi = _blocks_from_json(
            _load_json_text(args.kreweras, "--kreweras"), "--kreweras"
        )
        comp = kreweras_complement(pi)
        return {
            "n": pi.n,
            "blocks": [list(b) for b in pi.blocks],
            "kreweras": [list(b) for b in comp.blocks],
        }, 0
    lower = _blocks_from_json(_load_json_text(args.mobius, "--mobius"), "--mobius")
    if args.upper is None:
        upper = NCPartition.full(lower.n)
    else:
        upper = _blocks_from_json(_load_json_text(args.upper, "--upper"), "--upper")
    _check_printable(lower.n, "--mobius")
    value = mobius_nc(NCInterval(lower, upper))
    return {
        "n": lower.n,
        "lower": [list(b) for b in lower.blocks],
        "upper": [list(b) for b in upper.blocks],
        "mobius": value,
    }, 0


def _run_cumulants(args) -> tuple[dict, int]:
    kind = CLASSICAL if args.classical else FREE
    m = MomentSequence(_sequence_from_text(args.moments, "--moments"))
    _check_sweeps(m.values, kind)
    k = _MAPS[kind][0](m)
    return {"kind": kind, "k": _fractions_to_json(k.values)}, 0


def _run_moments(args) -> tuple[dict, int]:
    if args.measure is not None:
        if args.order is None:
            raise ValidationError("--measure needs --order")
        if args.classical:
            raise ValidationError("--classical applies to --cumulants, not to --measure")
        from .levy import _check_budget, _moments_work
        from .measures import moments

        mu = _measure_from_file(args.measure)
        _check_order(args.order)
        _check_budget(_moments_work(mu, args.order), args.order)
        m = moments(mu, args.order)
        return {"order": args.order, "m": _fractions_to_json(m.values)}, 0
    if args.order is not None:
        raise ValidationError("--order applies to --measure, not to --cumulants")
    kind = CLASSICAL if args.classical else FREE
    k = CumulantSequence(_sequence_from_text(args.cumulants, "--cumulants"), kind)
    _check_sweeps(k.values, kind)
    m = _MAPS[kind][1](k)
    return {"kind": kind, "m": _fractions_to_json(m.values)}, 0


def _run_freeconv(args) -> tuple[dict, int]:
    a = MomentSequence(_sequence_from_text(args.a, "--a"))
    b = MomentSequence(_sequence_from_text(args.b, "--b"))
    # the cumulants of a and of b, then the moments of their sum, each term
    # as wide as the wider of a's and b's
    _check_sweeps([max(x, y, key=_exact_bits) for x, y in zip(a.values, b.values)], sweeps=3)
    return {"m": _fractions_to_json(free_convolve(a, b).values)}, 0


def _run_rseries(args) -> tuple[dict, int]:
    # R(z) = k_1 + k_2 z + ...: its coefficients are the free cumulants
    m = MomentSequence(_sequence_from_text(args.moments, "--moments"))
    _check_sweeps(m.values)
    return {"r": _fractions_to_json(free_cumulants_from_moments(m).values)}, 0


def _run_support_bound(args) -> tuple[dict, int]:
    from .series import support_bound_from_cumulants

    if args.cumulants is not None:
        k = CumulantSequence(_sequence_from_text(args.cumulants, "--cumulants"))
    else:
        m = MomentSequence(_sequence_from_text(args.moments, "--moments"))
        _check_sweeps(m.values)
        k = free_cumulants_from_moments(m)
    bound = support_bound_from_cumulants(k)
    return {
        "k": _fractions_to_json(k.values),
        "bound": _exact_str(bound),
        "note": "bound = 16L, L = max_n |k_n|^(1/n) over the given cumulants; "
        "finitely many cumulants do not bound the support, but if "
        "|k_n| <= L^n for every n it lies in [-4L, 4L], so bound is 4x that",
    }, 0


def _taylor_rows(est, digits: int) -> list[dict]:
    rows = []
    for i in range(est.order):
        row = _complex_strs(est.coefficients[i], digits)
        row["power"] = i
        row["error_estimate"] = _num_str(est.errors[i], digits)
        row["nonreal"] = bool(est.nonreal[i])
        rows.append(row)
    return rows


def _run_rtransform(args) -> tuple[dict, int]:
    import mpmath as mp

    from .rays import (
        DEFAULT_ORDER,
        NontangentialRay,
        estimate_taylor_on_ray,
        invert_g_on_ray,
    )

    mu = _measure_from_file(args.measure)
    ray = NontangentialRay(beta=args.beta, tan_theta=args.tilt)
    _check_order(args.order)
    # up to the default order the report lists the default ray, whose fit
    # perfbench matches to 25 digits: a per-order ray moves b_m by ~8e-14
    samples = invert_g_on_ray(mu, ray, dps=args.dps, p=max(args.order, DEFAULT_ORDER))
    with mp.workdps(args.dps):
        est = estimate_taylor_on_ray(samples, args.order)
        digits = min(args.dps, 30)
        points = [
            {
                "index": samples.indices[i],
                "radius": _num_str(samples.radii[i], digits),
                "r_value": _complex_strs(samples.r_values[i], digits),
                "residual": _num_str(samples.residuals[i], digits),
                "stability": _num_str(samples.stability[i], digits),
            }
            for i in range(len(samples.indices))
        ]
        payload = {
            "order": args.order,
            "dps": args.dps,
            "ray": {
                "alpha": _exact_str(ray.alpha),
                "beta": _exact_str(ray.beta),
                "tan_theta": _exact_str(ray.tan_theta),
                "levels": ray.levels,
                "first_level": ray.first_level,
            },
            "dropped_levels": list(samples.dropped),
            "levels_tried": len(samples.indices) + len(samples.dropped),
            "points": points,
            "coefficients": _taylor_rows(est, digits),
            "condition": _num_str(est.condition, digits),
        }
        code = 0
        if args.tol is not None:
            worst = max(mp.mpf(e) for e in est.errors)
            payload["tol"] = args.tol
            payload["within_tol"] = bool(worst <= mp.mpf(args.tol))
            if not payload["within_tol"]:
                code = 2
    return payload, code


def _run_levy(args) -> tuple[dict, int]:
    from .levy import LevyPair, _check_budget, _levy_work, cumulants_from_levy

    gamma = as_fraction(args.gamma)
    sigma = _measure_from_file(args.sigma)
    pair = LevyPair(gamma, sigma)
    kind = CLASSICAL if args.classical else FREE
    _check_order(args.order)
    _check_budget(_levy_work(pair, args.order, kind), args.order)
    k = cumulants_from_levy(pair, args.order, kind)
    m = _MAPS[kind][1](k)
    return {
        "kind": kind,
        "gamma": _exact_str(gamma),
        "order": args.order,
        "cumulants": _fractions_to_json(k.values),
        "moments": _fractions_to_json(m.values),
    }, 0


def _run_simulate(args) -> tuple[dict, int]:
    from .rmt import (
        compare_to_prediction,
        ensemble_spec_from_json,
        ensemble_spec_to_json,
        predicted_moments,
        sample_trace_moments,
    )

    spec_data = _load_json_file(args.spec, "ensemble spec")
    if args.seed is not None:
        if not isinstance(spec_data, dict):
            raise ValidationError("ensemble spec must be a JSON object")
        spec_data = dict(spec_data, seed=args.seed)
    spec = ensemble_spec_from_json(spec_data)
    estimate = sample_trace_moments(spec, args.order, budget=args.budget)
    exact = predicted_moments(spec, args.order)
    rows = compare_to_prediction(estimate, exact)
    return {
        "spec": ensemble_spec_to_json(spec),
        "order": args.order,
        "estimate": estimate.to_json(),
        "predicted": _fractions_to_json(exact.values),
        "comparison": rows,
        "within": all(row["within"] for row in rows),
    }, 0


def _run_verify(args) -> tuple[dict, int]:
    if args.suite:
        for flag in ("order", "dps", "tol"):
            if getattr(args, flag) is not None:
                raise ValidationError(f"--{flag} applies to --measure, not to --suite")
        from .acceptance import format_report, run_suite, suite_report_json

        only = None
        if args.only:
            only = [s for chunk in args.only for s in chunk.split(",") if s]
        results = run_suite(only=only)
        print(format_report(results), file=sys.stderr)
        payload = suite_report_json(results)
        return payload, 0 if payload["passed"] else 2
    if args.measure is None:
        raise ValidationError("verify needs --measure FILE or --suite")
    if args.only is not None:
        raise ValidationError("--only applies to --suite, not to --measure")
    if args.order is None:
        raise ValidationError("--measure needs --order")
    import mpmath as mp

    from .rays import verify_taylor_cumulants

    dps = 50 if args.dps is None else args.dps
    tol = "1e-4" if args.tol is None else args.tol
    mu = _measure_from_file(args.measure)
    check = verify_taylor_cumulants(mu, args.order, dps=dps)
    with mp.workdps(dps):
        digits = min(dps, 30)
        passed = bool(mp.mpf(check.max_error) <= mp.mpf(tol))
        payload = {
            "order": check.order,
            "dps": dps,
            "tol": tol,
            "exact": _fractions_to_json(check.exact),
            "estimated": [_complex_strs(v, digits) for v in check.estimated],
            "abs_errors": [_num_str(v, digits) for v in check.abs_errors],
            "error_estimates": [_num_str(v, digits) for v in check.error_estimates],
            "max_error": _num_str(check.max_error, digits),
            "condition": _num_str(check.condition, digits),
            "passed": passed,
        }
    return payload, 0 if passed else 2


# ------------------------------------------------------------------- parser


def _checked(convert, accept, wanted: str, keep_text: bool = False):
    """argparse type for a numeric flag whose converted value must pass accept;
    keep_text returns the flag as given (--tol is echoed and re-read later)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, TypeError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
        return text if keep_text else value

    return parse


def _finite_mpf(text: str):
    """mpmath's reading of a flag, or None when it is not finite."""
    import mpmath as mp

    value = mp.mpf(text)
    return value if mp.isfinite(value) else None


_TOL = _checked(_finite_mpf, lambda v: v > 0, "a positive number", True)
_BUDGET = _checked(float, lambda v: v > 0, "a positive budget (inf allowed)")
_DPS = _checked(int, lambda v: v >= 1, "a precision of at least 1 digit")


def _build_parser() -> _Parser:
    parser = _Parser(prog="freemoments", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="non-crossing partition lattice")
    group = nc.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", type=int, metavar="N", help="lattice size")
    group.add_argument("--list", type=int, metavar="N", help="enumerate blocks")
    group.add_argument(
        "--kreweras", metavar="BLOCKS", help="complement of a partition (JSON blocks)"
    )
    group.add_argument(
        "--mobius", metavar="BLOCKS", help="Mobius value of [BLOCKS, --upper]"
    )
    nc.add_argument(
        "--upper", metavar="BLOCKS", help="with --mobius: interval top (default: one block)"
    )
    nc.set_defaults(run=_run_nc)

    cumulants = sub.add_parser("cumulants", help="cumulants from moments")
    cumulants.add_argument("--classical", action="store_true", help="default: free")
    cumulants.add_argument("--moments", required=True, metavar="JSON")
    cumulants.set_defaults(run=_run_cumulants)

    mom = sub.add_parser("moments", help="moments from cumulants or a measure")
    mom.add_argument("--classical", action="store_true", help="default: free")
    source = mom.add_mutually_exclusive_group(required=True)
    source.add_argument("--cumulants", metavar="JSON")
    source.add_argument("--measure", metavar="FILE")
    mom.add_argument("--order", type=int, help="with --measure: moment order")
    mom.set_defaults(run=_run_moments)

    freeconv = sub.add_parser("freeconv", help="free additive convolution")
    freeconv.add_argument("--a", required=True, metavar="JSON", help="moments of a")
    freeconv.add_argument("--b", required=True, metavar="JSON", help="moments of b")
    freeconv.set_defaults(run=_run_freeconv)

    rseries = sub.add_parser("rseries", help="R-transform coefficients from moments")
    rseries.add_argument("--moments", required=True, metavar="JSON")
    rseries.set_defaults(run=_run_rseries)

    support = sub.add_parser("support-bound", help="support bound 16 max_n |k_n|^(1/n)")
    source = support.add_mutually_exclusive_group(required=True)
    source.add_argument("--cumulants", metavar="JSON")
    source.add_argument("--moments", metavar="JSON")
    support.set_defaults(run=_run_support_bound)

    rtransform = sub.add_parser(
        "rtransform", help="numeric Taylor coefficients on a ray"
    )
    rtransform.add_argument("--measure", required=True, metavar="FILE")
    rtransform.add_argument("--order", type=int, required=True, help="order of the fit, 1-10")
    rtransform.add_argument(
        "--beta",
        default="1/8",
        help=(
            "radius of level 0 (exact); the ray inverts the 3 (order + 1) levels "
            "from beta/2^7 on (beta/2^7 down to beta/2^27 at --order <= 6), deeper "
            "only to replace dropped levels, and never past beta/2^40"
        ),
    )
    rtransform.add_argument(
        "--tilt", default="0", help="exact tangent of the ray angle off vertical, |tilt| < 1"
    )
    rtransform.add_argument("--dps", type=_DPS, default=50, help="working precision")
    rtransform.add_argument(
        "--tol",
        type=_TOL,
        metavar="T",
        help="fail (exit 2) when any coefficient error estimate exceeds T",
    )
    rtransform.set_defaults(run=_run_rtransform)

    levy = sub.add_parser("levy", help="cumulant/moment tables of a pair")
    levy.add_argument("--gamma", required=True, help="drift (exact)")
    levy.add_argument("--sigma", required=True, metavar="FILE", help="measure JSON")
    levy.add_argument("--order", type=int, required=True)
    levy.add_argument("--classical", action="store_true")
    levy.set_defaults(run=_run_levy)

    simulate = sub.add_parser("simulate", help="random-matrix trace moments")
    simulate.add_argument("--spec", required=True, metavar="FILE")
    simulate.add_argument("--order", type=int, required=True)
    simulate.add_argument("--seed", type=int, help="override the spec seed")
    simulate.add_argument("--budget", type=_BUDGET, help="work budget override")
    simulate.set_defaults(run=_run_simulate)

    verify = sub.add_parser("verify", help="coefficient check or acceptance suite")
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--measure", metavar="FILE")
    mode.add_argument("--suite", action="store_true", help="run all criteria")
    verify.add_argument("--order", type=int)
    verify.add_argument(
        "--dps", type=_DPS, help="with --measure: working precision (default 50)"
    )
    verify.add_argument(
        "--tol", type=_TOL, help="with --measure: max coefficient error (default 1e-4)"
    )
    verify.add_argument(
        "--only",
        action="append",
        metavar="SLUGS",
        help="comma-separated criterion slugs (repeatable)",
    )
    verify.set_defaults(run=_run_verify)

    return parser


def _result(argv: Sequence[str] | None) -> tuple[str, int]:
    """The JSON text of one call, result or error, and its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.run(args)
        return json.dumps(payload, indent=2, allow_nan=False), code
    except FreemomentsError as exc:
        text = json.dumps({"error": exc.code, "detail": str(exc)})
        return text, 2 if isinstance(exc, _NUMERIC_FAILURES) else 1
    except Exception as exc:
        # a defect in the program, not in the input: stdout stays JSON and
        # the traceback goes to stderr
        import traceback

        traceback.print_exc()
        detail = f"{type(exc).__name__}: {exc}"
        return json.dumps({"error": "internal", "detail": detail}), 2


def main(argv: Sequence[str] | None = None) -> int:
    text, code = _result(argv)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull, so that the
        # interpreter's exit flush does not raise again
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
