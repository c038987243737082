"""Acceptance gate: runs the ten-criterion battery once and asserts every
criterion passes inside its runtime budget.  One parametrized test per
criterion gives one pass/fail line each under ``pytest -v``; the printed
report repeats the outcome with timing and detail."""

import pytest

import freemoments.acceptance as acceptance
import freemoments.cumulants as cumulants
from freemoments.acceptance import CRITERIA, format_report, run_suite
from freemoments.errors import ValidationError
from freemoments.noncrossing import NCPartition

SLUGS = [c.slug for c in CRITERIA]


@pytest.fixture(scope="module")
def suite_results():
    results = run_suite()
    print()
    print(format_report(results))
    return {r.slug: r for r in results}


@pytest.mark.parametrize("slug", SLUGS)
def test_criterion(suite_results, slug):
    result = suite_results[slug]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {slug} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{slug}: {result.detail}"


def test_all_ten_criteria_ran(suite_results):
    assert sorted(suite_results) == sorted(SLUGS)
    assert len(SLUGS) == 10


def test_runtime_budgets(suite_results):
    for criterion in CRITERIA:
        seconds = suite_results[criterion.slug].seconds
        assert seconds <= criterion.budget_seconds, (
            f"{criterion.slug} took {seconds:.1f}s, "
            f"budget {criterion.budget_seconds:.0f}s"
        )
    total = sum(r.seconds for r in suite_results.values())
    assert total < 300, f"whole battery took {total:.0f}s, budget 300s"


def test_report_formatting(suite_results):
    report = format_report(list(suite_results.values()))
    lines = report.splitlines()
    assert len(lines) == len(SLUGS) + 1
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    assert lines[-1].endswith("criteria passed")


def test_only_filter_runs_requested_subset():
    results = run_suite(only=["series-matches-partitions", "support-bound"])
    assert [r.slug for r in results] == [
        "series-matches-partitions",
        "support-bound",
    ]
    assert all(r.passed for r in results)


def test_unknown_criterion_rejected():
    with pytest.raises(ValidationError, match="unknown criteria"):
        run_suite(only=["not-a-criterion"])
    with pytest.raises(ValidationError, match="no criteria selected"):
        run_suite(only=[])


def test_negative_control_corrupted_reference_fails_by_name(corrupt_semicircle):
    # The true even moments of the standard semicircle are 1 and 2; claim
    # the fourth is 1 and the Taylor-recovery criterion must fail, naming
    # the corrupted case.
    results = run_suite(only=["taylor-recovery"])
    assert len(results) == 1
    result = results[0]
    assert result.slug == "taylor-recovery"
    assert not result.passed
    assert "semicircle" in result.detail


def test_negative_control_does_not_touch_other_cases(corrupt_semicircle):
    # Corrupting the semicircle reference must not affect a run filtered to
    # criteria that never consult it.
    results = run_suite(only=["moment-cumulant-roundtrip"])
    assert results[0].passed


def test_negative_control_wrong_mobius_value_fails_by_interval(monkeypatch):
    # One closed-form value off by one on a single interval of NC(7): the
    # defining relation breaks there first, and the detail names it.
    lower = NCPartition.from_blocks([[1], [2, 3], [4], [5], [6], [7]])
    upper = NCPartition.from_blocks([[1, 2, 3, 4], [5], [6, 7]])
    true_mobius = acceptance.mobius_nc

    def off_by_one(interval):
        value = true_mobius(interval)
        return value + 1 if (interval.lower, interval.upper) == (lower, upper) else value

    monkeypatch.setattr(acceptance, "mobius_nc", off_by_one)
    [result] = run_suite(only=["lattice-size-bounds"])
    assert not result.passed
    assert result.detail.split("; ")[0].endswith(f"{lower.blocks} <= {upper.blocks}")


def test_negative_control_corrupted_sweep_fails_series_by_name(monkeypatch):
    # The production R series is the functional-relation sweep.  Shift the
    # last free cumulant it returns by one: series-matches-partitions must
    # fail on every comparison with it, while the Lagrange chain and the
    # partition sum, which share no code with the sweep, still agree.
    true_sweep = cumulants._free_sweep

    def corrupted(values, moments_known):
        m, k = true_sweep(values, moments_known)
        return m, k[:-1] + [k[-1] + 1]

    monkeypatch.setattr(cumulants, "_free_sweep", corrupted)
    [result] = run_suite(only=["series-matches-partitions"])
    assert result.slug == "series-matches-partitions"
    assert not result.passed
    assert result.detail.startswith(
        "200/400 checks failed: sequence 0: series and functional-relation "
        "cumulants differ; sequence 1: series and functional-relation"
    )
