"""Command-line front end.

One subcommand per pipeline stage:

- ``nc``: lattice enumeration (counts, partitions, complements, Mobius).
- ``cumulants`` / ``moments`` / ``freeconv``: exact sequence conversions.
- ``rseries`` / ``support-bound``: formal series and the support radius bound.
- ``rtransform``: numeric coefficient recovery along a ray.
- ``levy``: cumulant/moment tables of the two correspondents of a pair.
- ``simulate``: random-matrix trace-moment estimates vs exact predictions.
- ``verify``: single-measure coefficient check, or the acceptance battery.

Everything machine-readable is JSON on standard output (or the requested
output file); progress/status lines go to standard error.  Exact values are
serialized as "p/q" strings, numeric values as decimal strings together
with the working precision that produced them.  Exit codes: 0 success, 1
input/validation problems, 2 numeric failures (non-convergence, budget,
failed verification) and internal errors, which print
{"error": "internal", ...} with the traceback on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .acceptance import format_report, run_suite, suite_report_json
from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
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
)
from .levy import (
    LevyPair,
    cumulants_from_levy,
    moments_of_classical_id,
    moments_of_free_id,
)
from .measures import Measure, measure_from_json, moments
from .noncrossing import (
    NCInterval,
    NCPartition,
    catalan,
    enumerate_nc,
    kreweras_complement,
    mobius_nc,
)
from .rays import (
    NontangentialRay,
    estimate_taylor_on_ray,
    invert_g_on_ray,
    verify_taylor_cumulants,
)
from .rmt import (
    compare_to_prediction,
    ensemble_spec_from_json,
    ensemble_spec_to_json,
    predicted_moments,
    sample_trace_moments,
)
from .series import r_series_from_moments, support_bound_from_cumulants

_NUMERIC_FAILURES = (NumericError, RegionTooLargeError, BudgetError)


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the shared error hierarchy
    instead of printing usage and exiting on its own."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ValidationError(message)


# ------------------------------------------------------------------- helpers


def _load_json_text(text: str, what: str):
    def reject_float(literal: str):
        raise ValidationError(
            f"{what}: float literal {literal!r} is not exact; "
            'write integers or "p/q" strings'
        )

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
    return mp.nstr(mp.mpf(value), digits)


def _complex_strs(value, digits: int) -> dict:
    z = mp.mpc(value)
    return {"real": mp.nstr(z.real, digits), "imag": mp.nstr(z.imag, digits)}


def _measure_from_file(path: str) -> Measure:
    return measure_from_json(_load_json_file(path, "measure"))


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out_path is None:
        print(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out_path}: {exc}") from exc


# -------------------------------------------------------------- subcommands


def _run_nc(args) -> tuple[dict, int]:
    if args.count is not None:
        n = args.count
        if n < 1:
            raise ValidationError("--count needs n >= 1")
        _check_printable(n, "--count")
        return {"n": n, "count": catalan(n)}, 0
    if args.list is not None:
        parts = enumerate_nc(args.list)
        return {
            "n": args.list,
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
    if kind == FREE:
        k = free_cumulants_from_moments(m)
    else:
        k = classical_cumulants_from_moments(m)
    return {"kind": kind, "k": _fractions_to_json(k.values)}, 0


def _run_moments(args) -> tuple[dict, int]:
    if args.measure is not None:
        if args.order is None:
            raise ValidationError("--measure needs --order")
        mu = _measure_from_file(args.measure)
        m = moments(mu, args.order)
        return {"order": args.order, "m": _fractions_to_json(m.values)}, 0
    kind = CLASSICAL if args.classical else FREE
    k = CumulantSequence(_sequence_from_text(args.cumulants, "--cumulants"), kind)
    if kind == FREE:
        m = moments_from_free_cumulants(k)
    else:
        m = moments_from_classical_cumulants(k)
    return {"kind": kind, "m": _fractions_to_json(m.values)}, 0


def _run_freeconv(args) -> tuple[dict, int]:
    a = MomentSequence(_sequence_from_text(args.a, "--a"))
    b = MomentSequence(_sequence_from_text(args.b, "--b"))
    return {"m": _fractions_to_json(free_convolve(a, b).values)}, 0


def _run_rseries(args) -> tuple[dict, int]:
    m = MomentSequence(_sequence_from_text(args.moments, "--moments"))
    series = r_series_from_moments(m)
    return {"r": _fractions_to_json(series.coeffs)}, 0


def _run_support_bound(args) -> tuple[dict, int]:
    if args.cumulants is not None:
        k = CumulantSequence(_sequence_from_text(args.cumulants, "--cumulants"))
    else:
        m = MomentSequence(_sequence_from_text(args.moments, "--moments"))
        k = free_cumulants_from_moments(m)
    bound = support_bound_from_cumulants(k)
    return {
        "k": _fractions_to_json(k.values),
        "bound": _exact_str(bound),
        "note": "support certified inside [-bound, bound]; deliberately "
        "conservative (16x the cumulant growth rate)",
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
    mu = _measure_from_file(args.measure)
    ray = NontangentialRay(alpha=args.alpha, beta=args.beta, tan_theta=args.tilt)
    with mp.workdps(args.dps):
        samples = invert_g_on_ray(mu, ray, dps=args.dps)
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
            },
            "dropped_levels": list(samples.dropped),
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
    gamma = as_fraction(args.gamma)
    sigma = _measure_from_file(args.sigma)
    pair = LevyPair(gamma, sigma)
    kind = CLASSICAL if args.classical else FREE
    k = cumulants_from_levy(pair, args.order, kind)
    if kind == FREE:
        m = moments_of_free_id(pair, args.order)
    else:
        m = moments_of_classical_id(pair, args.order)
    return {
        "kind": kind,
        "gamma": _exact_str(gamma),
        "order": args.order,
        "cumulants": _fractions_to_json(k.values),
        "moments": _fractions_to_json(m.values),
    }, 0


def _run_simulate(args) -> tuple[dict, int]:
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
        only = None
        if args.only:
            only = [s for chunk in args.only for s in chunk.split(",") if s]
        results = run_suite(only=only)
        print(format_report(results), file=sys.stderr)
        payload = suite_report_json(results)
        return payload, 0 if payload["passed"] else 2
    if args.measure is None:
        raise ValidationError("verify needs --measure FILE or --suite")
    if args.order is None:
        raise ValidationError("--measure needs --order")
    mu = _measure_from_file(args.measure)
    check = verify_taylor_cumulants(mu, args.order, dps=args.dps)
    with mp.workdps(args.dps):
        digits = min(args.dps, 30)
        passed = bool(mp.mpf(check.max_error) <= mp.mpf(args.tol))
        payload = {
            "order": check.order,
            "dps": args.dps,
            "tol": args.tol,
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


_TOL = _checked(mp.mpf, lambda v: mp.isfinite(v) and v > 0, "a positive number", True)
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
        "--upper", metavar="BLOCKS", help="interval top (default: one block)"
    )
    nc.set_defaults(run=_run_nc)

    cumulants = sub.add_parser("cumulants", help="cumulants from moments")
    kind = cumulants.add_mutually_exclusive_group()
    kind.add_argument("--free", action="store_true", default=True)
    kind.add_argument("--classical", action="store_true")
    cumulants.add_argument("--moments", required=True, metavar="JSON")
    cumulants.set_defaults(run=_run_cumulants)

    mom = sub.add_parser("moments", help="moments from cumulants or a measure")
    kind = mom.add_mutually_exclusive_group()
    kind.add_argument("--free", action="store_true", default=True)
    kind.add_argument("--classical", action="store_true")
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

    support = sub.add_parser("support-bound", help="certified support radius bound")
    source = support.add_mutually_exclusive_group(required=True)
    source.add_argument("--cumulants", metavar="JSON")
    source.add_argument("--moments", metavar="JSON")
    support.set_defaults(run=_run_support_bound)

    rtransform = sub.add_parser(
        "rtransform", help="numeric Taylor coefficients on a ray"
    )
    rtransform.add_argument("--measure", required=True, metavar="FILE")
    rtransform.add_argument("--order", type=int, required=True)
    rtransform.add_argument("--alpha", default="1", help="ray cone parameter (exact)")
    rtransform.add_argument("--beta", default="1/8", help="outermost radius (exact)")
    rtransform.add_argument(
        "--tilt", default="0", help="tangent of the ray angle off vertical (exact)"
    )
    rtransform.add_argument("--dps", type=_DPS, default=50, help="working precision")
    rtransform.add_argument(
        "--tol",
        type=_TOL,
        metavar="T",
        help="fail (exit 2) when any coefficient error estimate exceeds T",
    )
    rtransform.add_argument("--report", metavar="FILE", help="write JSON here")
    rtransform.set_defaults(run=_run_rtransform, out_flag="report")

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
    simulate.add_argument("--out", metavar="FILE", help="write JSON here")
    simulate.set_defaults(run=_run_simulate, out_flag="out")

    verify = sub.add_parser("verify", help="coefficient check or acceptance suite")
    verify.add_argument("--measure", metavar="FILE")
    verify.add_argument("--order", type=int)
    verify.add_argument("--dps", type=_DPS, default=50)
    verify.add_argument("--tol", type=_TOL, default="1e-4", help="max coefficient error")
    verify.add_argument("--suite", action="store_true", help="run all criteria")
    verify.add_argument(
        "--only",
        action="append",
        metavar="SLUGS",
        help="comma-separated criterion slugs (repeatable)",
    )
    verify.set_defaults(run=_run_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.run(args)
        out_path = getattr(args, getattr(args, "out_flag", ""), None)
        _emit(payload, out_path)
        return code
    except FreemomentsError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 2 if isinstance(exc, _NUMERIC_FAILURES) else 1
    except Exception as exc:
        # a defect in the program, not in the input: stdout stays JSON and
        # the traceback goes to stderr
        traceback.print_exc()
        detail = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": "internal", "detail": detail}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
