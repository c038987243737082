"""`cli`: one fresh `python -m freemoments.cli` process per op, one at a
time, so every op pays interpreter start, imports, argparse, JSON output
and cold per-order tables.

Each block of 20 ops covers every subcommand: 3 nc, 2 cumulants, 3 moments,
freeconv, 2 rseries, support-bound, levy, rtransform, verify --measure,
simulate, 2 verify --suite --only on cheap criteria, and 2 malformed inputs
that must end in {"error", "detail"} with exit code 1.  Input files are
written in set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference as ref
from harness import (CheckFailed, Overrun, Strata, jump_atoms, probability_atoms,
                     random_interval, random_nc, rational)

RSS_OF_CHILDREN = True
BLOCK = 20          # ops per block of the fixed mix
OPS = 400           # generated per run; the timed loop cycles if it runs out
CAP_S = 30.0
TRACE_OPS = 40
SUBCOMMANDS = ("nc", "cumulants", "moments", "freeconv", "rseries", "support-bound",
               "rtransform", "levy", "simulate", "verify")
SUITE_SLUGS = ("support-bound", "levy-correspondents", "nonreal-direction-flag",
               "pinned-r-transforms")
SRC = Path(__file__).resolve().parent.parent / "src"
WORK = Path(__file__).resolve().parent.parent / ".perfbench_work"

fm = None
mp = None
_workdir: Path | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


# ------------------------------------------------------------------- inputs


def _seq(rng: random.Random, n: int) -> str:
    return json.dumps([rational(rng) for _ in range(n)])


def _closed_measure(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"kind": "density", "name": "semicircle",
                "params": {"center": rational(rng, -4, 4, 4),
                           "radius": str(Fraction(rng.randint(1, 8), rng.randint(1, 4)))}}
    return {"kind": "discrete", "atoms": probability_atoms(rng, rng.randint(2, 4))}


# One simulate op per block cycles through these (kind, N): five blocks hold
# each once, so every run holds the free sum at N = 200, the largest child.
SIMULATE = (("gue", 200), ("wishart", 100), ("free_sum", 200), ("gue", 50), ("wishart", 150))


def _spec(rng: random.Random, strata: Strata) -> dict:
    kind, dim = strata.pick("sim", SIMULATE)
    data = {"kind": kind, "dim": dim, "trials": rng.randint(2, 8), "seed": rng.randrange(2**31)}
    if kind == "wishart":
        data["rate"] = rng.choice(["1/2", "1", "3/2"])
    if kind == "free_sum":
        part = {"kind": "deterministic", "dim": data["dim"],
                "measure": {"kind": "discrete", "atoms": [["-1", "1/2"], ["1", "1/2"]]}}
        data["parts"] = [part, {"kind": "gue", "dim": data["dim"]}]
    return data


def _malformed(rng: random.Random, variant: str) -> dict:
    r = rational(rng)
    n = rng.randint(5, 9)
    if variant == "float":
        return {"argv": ["cumulants", "--moments", f"[{json.dumps(r)}, 0.5]"]}
    if variant == "crossing":
        blocks = [[1, 3], [2, 4]] + [[x] for x in range(5, n + 1)]
        return {"argv": ["nc", "--kreweras", json.dumps(blocks)]}
    if variant == "empty":
        return {"argv": ["moments", "--cumulants", "[]"]}
    if variant == "not-int":
        return {"argv": ["nc", "--count", f"n{n}"]}
    if variant == "zero-denominator":
        return {"argv": ["rseries", "--moments", f'[{json.dumps(r)}, "{n}/0"]']}
    if variant == "order-mismatch":
        return {"argv": ["freeconv", "--a", _seq(rng, n), "--b", _seq(rng, n + 1)]}
    if variant == "unknown-criterion":
        return {"argv": ["verify", "--suite", "--only", f"no-such-criterion-{n}"]}
    if variant == "float-file":
        return {"argv": ["levy", "--gamma=" + r, "--sigma", "@sigma", "--order", str(n)],
                "files": {"sigma": f'{{"kind": "discrete", "atoms": [["{r}", 0.5]]}}'}}
    if variant == "unknown-field":
        spec = {"kind": "gue", "dim": 10 * n, "colour": n}
        return {"argv": ["simulate", "--spec", "@spec", "--order", "3"],
                "files": {"spec": json.dumps(spec)}}
    return {"argv": ["support-bound", "--cumulants", f"not json {r}"]}


MALFORMED = ("float", "crossing", "empty", "not-int", "zero-denominator", "order-mismatch",
             "unknown-criterion", "float-file", "unknown-field", "not-json")


def block(rng: random.Random, strata: Strata) -> list[dict]:
    def order(key, lo, hi):
        return strata.pick(key, range(lo, hi + 1))

    ops = []
    for _ in range(3):
        variant = strata.pick("nc", ("count", "list", "kreweras", "mobius"))
        if variant == "count":
            argv = ["nc", "--count", str(rng.randint(1, 14))]
        elif variant == "list":
            argv = ["nc", "--list", str(order("list", 3, 7))]
        elif variant == "kreweras":
            n = order("kr", 6, 10)
            argv = ["nc", "--kreweras", json.dumps(random_nc(rng, n))]
        else:
            iv = random_interval(rng, order("mb", 6, 10))
            argv = ["nc", "--mobius", json.dumps(iv["lower"]), "--upper", json.dumps(iv["upper"])]
        ops.append({"kind": "nc", "argv": argv})
    # one shared cycle for the ops that build the cold free tables, so that
    # every run reaches order 10 at least once
    ops.append({"kind": "cumulants", "argv": ["cumulants", "--moments", _seq(rng, order("free", 3, 10))]})
    ops.append({"kind": "cumulants", "argv": ["cumulants", "--classical", "--moments", _seq(rng, order("classical", 3, 10))]})
    ops.append({"kind": "moments", "argv": ["moments", "--cumulants", _seq(rng, order("free", 3, 10))]})
    ops.append({"kind": "moments", "argv": ["moments", "--classical", "--cumulants", _seq(rng, order("classical", 3, 10))]})
    ops.append({"kind": "moments", "argv": ["moments", "--measure", "@mu", "--order", str(order("mm", 3, 10))],
                "files": {"mu": json.dumps(_closed_measure(rng))}})
    p = order("fc", 3, 8)
    ops.append({"kind": "freeconv", "argv": ["freeconv", "--a", _seq(rng, p), "--b", _seq(rng, p)]})
    for key in ("rs1", "rs2"):
        ops.append({"kind": "rseries", "argv": ["rseries", "--moments", _seq(rng, order(key, 3, 12))]})
    flag = strata.pick("sbflag", ("--cumulants", "--moments"))
    ops.append({"kind": "support-bound", "argv": ["support-bound", flag, _seq(rng, order("free", 3, 10))]})
    levy = ["levy", "--gamma=" + rational(rng, -6, 6, 6), "--sigma", "@sigma", "--order", str(order("lv", 3, 8))]
    if strata.pick("lvkind", ("free", "classical")) == "classical":
        levy.append("--classical")
    ops.append({"kind": "levy", "argv": levy, "files": {"sigma": json.dumps({"kind": "discrete", "atoms": jump_atoms(rng)})}})
    ops.append({"kind": "rtransform",
                "argv": ["rtransform", "--measure", "@mu", "--order", str(order("rt", 2, 4))],
                "files": {"mu": json.dumps(_closed_measure(rng))}})
    ops.append({"kind": "verify",
                "argv": ["verify", "--measure", "@mu", "--order", "4", "--tol", "1e-5"],
                "files": {"mu": json.dumps(_closed_measure(rng))}})
    ops.append({"kind": "simulate", "argv": ["simulate", "--spec", "@spec", "--order", "4"],
                "files": {"spec": json.dumps(_spec(rng, strata))}})
    for _ in range(2):
        ops.append({"kind": "verify", "argv": ["verify", "--suite", "--only", strata.pick("slug", SUITE_SLUGS)]})
    for _ in range(2):
        ops.append(dict(_malformed(rng, strata.pick("bad", MALFORMED)), kind="error_path"))
    return ops


# ------------------------------------------------------------------- set-up


def setup(ops: list[dict]) -> dict:
    """Write every op's input files, then spawn the command line once."""
    global _workdir
    WORK.mkdir(exist_ok=True)
    _workdir = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    _workdir.mkdir()
    for op in ops:
        for text in op.get("files", {}).values():
            _file(text).write_text(text)
    done = _spawn(["-m", "freemoments.cli", "nc", "--count", "3"], CAP_S)
    if done.returncode != 0:
        raise RuntimeError(f"cold spawn failed: {done.stdout}{done.stderr}")
    return {}


def cleanup() -> None:
    if _workdir is not None:
        shutil.rmtree(_workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def _file(text: str) -> Path:
    return _workdir / (hashlib.sha256(text.encode()).hexdigest()[:24] + ".json")


def prepare(op: dict) -> list[str]:
    files = op.get("files", {})
    return [str(_file(files[a[1:]])) if a.startswith("@") else a for a in op["argv"]]


def run(op: dict, argv: list[str]):
    try:
        done = _spawn(["-m", "freemoments.cli", *argv], CAP_S - 1)
    except subprocess.TimeoutExpired:
        raise Overrun()
    if "Traceback (most recent call last)" in done.stderr:
        raise RuntimeError("traceback: " + done.stderr.strip().splitlines()[-1])
    return done.returncode, done.stdout


def run_traced(op: dict, argv: list[str], tracer):
    start = time.perf_counter()
    out = run(op, argv)
    tracer.sample(f"cli.{op['kind']}", time.perf_counter() - start)
    if argv[:2] == ["verify", "--suite"] and out[0] == 0:
        for row in json.loads(out[1])["criteria"]:
            tracer.sample(f"acceptance.{row['slug']}", row["seconds"])
    return out


# ------------------------------------------------------------------- checks


def _library():
    global fm, mp
    if fm is None:
        import mpmath
        import freemoments
        fm, mp = freemoments, mpmath
    return fm


def _fractions(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _seq_arg(argv, flag):
    return tuple(Fraction(v) for v in json.loads(argv[argv.index(flag) + 1]))


def _file_arg(argv, flag):
    return json.loads(Path(argv[argv.index(flag) + 1]).read_text())


def _nc(text):
    return _library().NCPartition.from_blocks(json.loads(text))


_suite_cache: dict[str, object] = {}


def _close(a: str, b, digits: int = 25) -> bool:
    with mp.workdps(60):
        value = mp.mpf(b)
        return abs(mp.mpf(a) - value) <= mp.mpf(10) ** -digits * max(1, abs(value))


def expected(argv: list[str], payload: dict) -> None:
    """Compare a successful payload with the library's own result."""
    fm = _library()
    sub = argv[0]
    classical = "--classical" in argv
    if sub == "nc":
        if argv[1] == "--count":
            ok = payload["count"] == fm.catalan(int(argv[2]))
        elif argv[1] == "--list":
            ok = payload["partitions"] == [[list(b) for b in p.blocks] for p in fm.enumerate_nc(int(argv[2]))]
        elif argv[1] == "--kreweras":
            pi = _nc(argv[2])
            ok = payload["kreweras"] == ref.kreweras([list(b) for b in pi.blocks], pi.n)
        else:
            lower, upper = _nc(argv[2]), _nc(argv[4])
            ok = payload["mobius"] == fm.mobius_nc(fm.NCInterval(lower, upper))
    elif sub == "cumulants":
        m = fm.MomentSequence(_seq_arg(argv, "--moments"))
        k = fm.classical_cumulants_from_moments(m) if classical else fm.free_cumulants_from_moments(m)
        ok = payload["k"] == _fractions(k.values)
    elif sub == "moments" and "--measure" in argv:
        mu = fm.measure_from_json(_file_arg(argv, "--measure"))
        ok = payload["m"] == _fractions(fm.moments(mu, int(argv[argv.index("--order") + 1])).values)
    elif sub == "moments":
        k = _seq_arg(argv, "--cumulants")
        m = (fm.moments_from_classical_cumulants(fm.CumulantSequence(k, fm.CLASSICAL)) if classical
             else fm.moments_from_free_cumulants(fm.CumulantSequence(k)))
        ok = payload["m"] == _fractions(m.values)
    elif sub == "freeconv":
        a, b = fm.MomentSequence(_seq_arg(argv, "--a")), fm.MomentSequence(_seq_arg(argv, "--b"))
        ok = payload["m"] == _fractions(fm.free_convolve(a, b).values)
    elif sub == "rseries":
        ok = payload["r"] == _fractions(fm.r_series_from_moments(fm.MomentSequence(_seq_arg(argv, "--moments"))).coeffs)
    elif sub == "support-bound":
        if "--cumulants" in argv:
            k = fm.CumulantSequence(_seq_arg(argv, "--cumulants"))
        else:
            k = fm.free_cumulants_from_moments(fm.MomentSequence(_seq_arg(argv, "--moments")))
        ok = payload["bound"] == str(fm.support_bound_from_cumulants(k)) and payload["k"] == _fractions(k.values)
    elif sub == "levy":
        gamma = next(a for a in argv if a.startswith("--gamma="))[len("--gamma="):]
        pair = fm.LevyPair(Fraction(gamma), fm.measure_from_json(_file_arg(argv, "--sigma")))
        p = int(argv[argv.index("--order") + 1])
        kind = fm.CLASSICAL if classical else fm.FREE
        m = fm.moments_of_classical_id(pair, p) if classical else fm.moments_of_free_id(pair, p)
        ok = (payload["cumulants"] == _fractions(fm.cumulants_from_levy(pair, p, kind).values)
              and payload["moments"] == _fractions(m.values))
    elif sub == "rtransform":
        mu = fm.measure_from_json(_file_arg(argv, "--measure"))
        samples = fm.invert_g_on_ray(mu, dps=50)
        est = fm.estimate_taylor_on_ray(samples, int(argv[argv.index("--order") + 1]))
        ok = (payload["dropped_levels"] == list(samples.dropped)
              and len(payload["coefficients"]) == est.order
              and all(_close(row["real"], c.real) and _close(row["imag"], c.imag)
                      for row, c in zip(payload["coefficients"], est.coefficients)))
    elif sub == "simulate":
        spec = fm.ensemble_spec_from_json(_file_arg(argv, "--spec"))
        p = int(argv[argv.index("--order") + 1])
        estimate = fm.sample_trace_moments(spec, p)
        exact = fm.predicted_moments(spec, p)
        within = all(row["within"] for row in fm.compare_to_prediction(estimate, exact))
        ok = (payload["within"] is within
              and payload["predicted"] == _fractions(exact.values)
              and all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                      for a, b in zip(payload["estimate"]["means"], estimate.means)))
    elif "--suite" in argv:
        slug = argv[argv.index("--only") + 1]
        if slug not in _suite_cache:
            _suite_cache[slug] = fm.run_suite(only=[slug])[0]
        want = _suite_cache[slug]
        row, = payload["criteria"]
        ok = row["slug"] == slug and row["passed"] is True and row["detail"] == want.detail
    else:
        mu = fm.measure_from_json(_file_arg(argv, "--measure"))
        check = fm.verify_taylor_cumulants(mu, int(argv[argv.index("--order") + 1]), dps=50)
        tol = mp.mpf(argv[argv.index("--tol") + 1])
        ok = (payload["passed"] is bool(check.max_error <= tol)
              and payload["exact"] == _fractions(check.exact)
              and _close(payload["max_error"], check.max_error, 20))
    if not ok:
        raise CheckFailed(f"{sub}: output differs from the library result")


def check(op: dict, argv: list[str], out) -> str:
    code, stdout = out
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailed(f"stdout is not JSON: {stdout[:80]!r}")
    if op["kind"] == "error_path":
        if code != 1 or not isinstance(payload, dict) or set(payload) != {"error", "detail"}:
            raise CheckFailed(f"malformed input gave exit {code} and {stdout[:80]!r}")
        return ""
    # verify exits 2 when the check it ran did not pass
    failing_check = argv[0] == "verify" and isinstance(payload, dict) and payload.get("passed") is False
    if code != (2 if failing_check else 0):
        raise CheckFailed(f"exit code {code}: {stdout[:120]!r}")
    expected(argv, payload)
    if failing_check:
        return f"verify reported max error {payload['max_error']} > tol, as the library does"
    return ""


# ------------------------------------------------------------ layer metrics


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import freemoments.cli; "
                 "print(time.perf_counter() - t)")
_COLD_PROBE = ("import time; from fractions import Fraction; import freemoments as fm; "
               "t = time.perf_counter()\n"
               "for p in range(1, 11): fm.free_cumulants_from_moments(fm.MomentSequence((Fraction(1),) * p))\n"
               "print(time.perf_counter() - t)")


def layer_metrics(tracer, setup_info: dict) -> dict:
    """Per-subcommand medians from the traced ops, plus two probes in fresh
    interpreters: the import alone, and the cold free-cumulant build for
    orders 1..10 (the orders the cumulants subcommand receives)."""
    imports = [float(_spawn(["-c", _IMPORT_PROBE], CAP_S).stdout) for _ in range(3)]
    cold = float(_spawn(["-c", _COLD_PROBE], CAP_S).stdout)
    out = {"cli.import_s": statistics.median(imports), "cumulants.cold_build_s": cold}
    for sub in SUBCOMMANDS + ("error_path",):
        samples = tracer.samples.get(f"cli.{sub}", [])
        out[f"cli.{sub}.p50_ms"] = 1000 * statistics.median(samples) if samples else 0.0
    for slug in SUITE_SLUGS:
        samples = tracer.samples.get(f"acceptance.{slug}", [])
        out[f"acceptance.{slug}.s"] = statistics.median(samples) if samples else 0.0
    return out
