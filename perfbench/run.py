#!/usr/bin/env python3
"""Benchmark of freemoments, end to end and per layer.

    python3 perfbench/run.py --workload {exact,ray,matrix,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  Each workload generates its op list from the seed alone, sets up
(import plus warm-up, timed several times), runs ops one at a time for at
least S seconds and at least 100 ops, then checks every output outside the
timed region.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, measured on a
fixed op prefix run once untraced and once traced.  Metric names and units
come from BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import importlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    Tracer,
    apply_checks,
    digest,
    generate_ops,
    peak_rss_mb,
    run_one,
    scaled_latencies,
    timed_loop,
)
from speed import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "ray", "matrix", "cli")
CPUS_ALLOWED = len(os.sched_getaffinity(0))  # before the speed reference pins this process
SETUP_REPEATS = 3      # set-ups per run; setup_s is their median
MIN_OPS = 100          # so that ten samples lie beyond the 90th percentile
HARD_LIMIT_S = 90.0    # the timed loop starts no op after this
SPEED_FLAG = (0.5, 2.0)  # a run outside these slow-down factors is flagged
PROBE_TIMEOUT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="ops a timed run holds at least (smoke tests lower it)")
    parser.add_argument("--trace-ops", type=int,
                        help="length of the traced op prefix (default: the workload's)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this fresh process and exit")
    return parser.parse_args(argv)


# --------------------------------------------------------------------- stamp


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return f"unverified (env {BLAS_THREADS})"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp() -> dict:
    import mpmath
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": CPUS_ALLOWED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -------------------------------------------------------------------- set-up


def _timed_setup(wl, ops) -> tuple[tuple[float, float], dict]:
    """Run the workload's set-up; returns its start and end and its result."""
    start = time.perf_counter()
    info = wl.setup(ops)
    return (start, time.perf_counter()), info


def _probe_setups(args, count: int) -> list[tuple[float, float]]:
    """Start and end of the set-up of `count` fresh processes (import and
    warm-up cannot be repeated inside one).  perf_counter reads the
    system-wide monotonic clock, so the times compare across processes."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        out.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return out


def _check_program_origin() -> None:
    mod = sys.modules.get("freemoments")
    if mod is not None and not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"freemoments was imported from {mod.__file__}, not from {SRC}")


# ------------------------------------------------------------------ the runs


def _summary(latencies: list[float], completed: int, wall: float) -> tuple[float, float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return completed / wall, 1000 * statistics.median(latencies), 1000 * deciles[8]


def _untraced(args, wl, ops, prepared, setups, setup_info, spec, speed):
    results, start, end = timed_loop(
        ops, lambda j: wl.run(ops[j], prepared[j]), args.seconds, args.min_ops,
        wl.BLOCK, wl.CAP_S, HARD_LIMIT_S)
    speed.stop()
    wall = end - start
    peak_rss = peak_rss_mb(getattr(wl, "RSS_OF_CHILDREN", False))
    apply_checks(results, ops, prepared, wl.check)
    failed = sum(1 for r in results if r.failure)
    completed = len(results) - failed
    raw = [r.seconds for r in results]
    scaled = scaled_latencies(results, speed)
    run_factor = speed.factor(start, end)
    ops_per_s, p50, p90 = _summary(scaled, completed, wall / run_factor)
    values = {
        "setup_s": statistics.median((t1 - t0) / speed.factor(t0, t1) for t0, t1 in setups),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_ratio": completed / len(results),
        "peak_rss_mb": peak_rss,
    }
    raw_ops, raw_p50, raw_p90 = _summary(raw, completed, wall)
    print(f"timed: {len(results)} ops in {wall:.3f} s")
    print(f"speed: reference median {1000 * REFERENCE_S * run_factor:.4f} ms over the timed loop "
          f"({len(speed.samples)} samples in a separate process on CPU {speed.cpu}); "
          f"timings are scaled to {1000 * REFERENCE_S:g} ms")
    if not SPEED_FLAG[0] <= run_factor <= SPEED_FLAG[1]:
        print(f"speed: FLAGGED, the machine ran at {1 / run_factor:.3g} times reference speed, "
              f"outside the slow-down factors {SPEED_FLAG}; compare the unscaled figures")
    print(f"unscaled: ops_per_s {raw_ops:.6g}, latency_p50_ms {raw_p50:.6g}, "
          f"latency_p90_ms {raw_p90:.6g}, setup_s {statistics.median(t1 - t0 for t0, t1 in setups):.6g}")
    print(f"error_ratio: {failed / len(results):.6f} ({failed} failed / {len(results)} attempted)")
    return results, values, "end_to_end"


def _traced(args, wl, ops, prepared, setups, setup_info, spec, speed):
    count = min(args.trace_ops or wl.TRACE_OPS, len(ops))
    base = [run_one(j, ops[j], lambda: wl.run(ops[j], prepared[j]), wl.CAP_S)
            for j in range(count)]
    tracer = Tracer()
    traced = [run_one(j, ops[j], lambda: wl.run_traced(ops[j], prepared[j], tracer), wl.CAP_S)
              for j in range(count)]
    probe = getattr(wl, "probe", None)
    if probe is not None:
        for j in range(count):
            probe(ops[j], prepared[j], tracer)
    apply_checks(base, ops, prepared, wl.check)
    apply_checks(traced, ops, prepared, wl.check)

    values = {}
    for item in spec["per_layer"]:
        name = item["name"]
        if name.endswith(".busy_s"):
            values[name] = tracer.busy(name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            prefix = name[: -len(".calls")]
            values[name] = sum(1 for n, *_ in tracer.spans
                               if n == prefix or n.startswith(prefix + "."))
        else:
            values[name] = 0.0
    if "cumulants.cold_build_s" in setup_info:
        values["cumulants.cold_build_s"] = setup_info["cumulants.cold_build_s"]
    layer_metrics = getattr(wl, "layer_metrics", None)
    if layer_metrics is not None:
        values.update(layer_metrics(tracer, setup_info))
    untraced_s = sum(r.seconds for r in base)
    traced_s = sum(r.seconds for r in traced)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    print(f"traced: the first {count} ops, once untraced ({untraced_s:.3f} s) "
         f"and once traced ({traced_s:.3f} s)")
    return base + traced, values, "per_layer"


def _cleanup(wl) -> None:
    cleanup = getattr(wl, "cleanup", None)
    if cleanup is not None:
        cleanup()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "freemoments" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(f"wl_{args.workload}")
    ops = generate_ops(wl.block, args.seed, wl.OPS)
    if args.setup_probe:
        try:
            interval, _ = _timed_setup(wl, ops)
        finally:
            _cleanup(wl)
        print(json.dumps(interval))
        return 0
    speed = None if args.trace else Speedometer()
    try:
        setups = [] if args.trace else _probe_setups(args, SETUP_REPEATS - 1)
        interval, setup_info = _timed_setup(wl, ops)
        setups.append(interval)
        _check_program_origin()
        prepared = [wl.prepare(op) for op in ops]
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}")
        print(f"ops: {len(ops)} generated, digest sha256:{digest(ops)}")
        print(f"caps: {wl.CAP_S:g} s per op, timed loop starts no op after {HARD_LIMIT_S:g} s, "
             f"at least {args.min_ops} ops")
        run = _traced if args.trace else _untraced
        results, values, section = run(args, wl, ops, prepared, setups, setup_info, spec, speed)
    finally:
        _cleanup(wl)
        if speed is not None:
            speed.stop()
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    metrics = {}
    for item in spec[section]:
        metrics[item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}
        print(f"  {item['name']:<40} {values[item['name']]:.6g} {item['unit']}")
    failures = [r for r in results if r.failure]
    for r in failures[:20]:
        print(f"failed op #{r.index} ({r.kind}): {r.failure}: {r.detail}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed ops")
    notes = [r for r in results if r.note and not r.failure]
    for r in notes[:20]:
        print(f"note op #{r.index} ({r.kind}): {r.note}")
    if notes:
        print(f"notes: {len(notes)} of {len(results)} ops")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
