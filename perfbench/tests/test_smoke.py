"""Smoke tests of the benchmark at tiny size.

    python -m pytest perfbench/tests -q

Each workload runs once untraced and once traced with a handful of ops; the
last stdout line must be the result object with every metric BENCHMARK.json
names, and every op must pass its check.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))

from harness import Strata, digest, generate_ops  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", trace, "--min-ops", "4", "--trace-ops", "4")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 4
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_follows_the_seed(workload):
    module = __import__(f"wl_{workload}")
    block = module.block
    rng = random.Random(3)
    assert len(block(rng, Strata(rng))) == module.BLOCK
    assert digest(generate_ops(block, 3, 60)) == digest(generate_ops(block, 3, 60))
    assert digest(generate_ops(block, 3, 60)) != digest(generate_ops(block, 4, 60))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_ray_check_compares_estimates_with_the_reference():
    import mpmath
    sys.path.insert(0, str(ROOT / "src"))
    import freemoments
    import wl_ray
    from harness import CheckFailed

    wl_ray.fm, wl_ray.mp = freemoments, mpmath
    op = {"kind": "semicircle", "center": "0", "radius": "2"}
    mu = wl_ray.prepare(op)
    exact = tuple(freemoments.free_cumulants_from_moments(
        freemoments.moments(mu, wl_ray.ORDER)).values[:wl_ray.ORDER])
    with mpmath.workdps(wl_ray.DPS):
        good = tuple(mpmath.mpc(wl_ray._mpf(k)) for k in exact)
        wl_ray.check(op, mu, (exact, good, mpmath.mpf(0)))
        bad = good[:2] + (good[2] + mpmath.mpf("1e-3"),) + good[3:]
        with pytest.raises(CheckFailed):
            wl_ray.check(op, mu, (exact, bad, mpmath.mpf(0)))  # a reported error of 0 is not trusted


@pytest.mark.parametrize("kind, p, extra, order", [
    # two trials whose order-4 moments agree closely while both lie 1 % low
    ("wishart", 4, {"dim": 250, "seed": 212473335, "shift": "1/2", "rate": "3/2"}, 4),
    # an odd moment of 0 whose fluctuation grows as scale^5
    ("gue", 6, {"dim": 400, "seed": 1445731488, "scale": "2"}, 5),
])
def test_matrix_check_notes_an_oracle_miss_and_rejects_a_wrong_prediction(kind, p, extra, order):
    import numpy
    sys.path.insert(0, str(ROOT / "src"))
    import freemoments
    import wl_matrix
    from harness import CheckFailed

    wl_matrix.fm, wl_matrix.np = freemoments, numpy
    op = {"kind": kind, "p": p, "spec": dict(extra, kind=kind, trials=2)}
    prepared = wl_matrix.prepare(op)
    estimate, exact, rows = wl_matrix.run(op, prepared)
    assert not rows[order - 1]["within"]
    assert f"order {order}" in wl_matrix.check(op, prepared, (estimate, exact, rows))
    values = list(exact.values)
    values[order - 1] += 1
    wrong = freemoments.MomentSequence(tuple(values))
    with pytest.raises(CheckFailed):
        wl_matrix.check(op, prepared, (estimate, wrong, freemoments.compare_to_prediction(estimate, wrong)))
