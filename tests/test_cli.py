"""End-to-end tests of the command line: golden outputs, exit codes,
JSON error payloads, file round trips, and determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import freemoments
from freemoments.cli import JSON_MAX_DEPTH, main
from freemoments.measures import Measure, measure_to_json
from freemoments.noncrossing import catalan
from freemoments.rmt import MatrixEnsembleSpec, ensemble_spec_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def semicircle_file(tmp_path):
    path = tmp_path / "semicircle.json"
    path.write_text(json.dumps(measure_to_json(Measure.semicircle(0, 2))))
    return str(path)


@pytest.fixture
def two_atom_file(tmp_path):
    mu = Measure.discrete([(-1, "1/2"), (1, "1/2")])
    path = tmp_path / "two_atom.json"
    path.write_text(json.dumps(measure_to_json(mu)))
    return str(path)


_SEMICIRCLE = {
    "kind": "density",
    "name": "semicircle",
    "params": {"center": "0", "radius": "2"},
}


# ------------------------------------------------------------ exact goldens


def test_nc_count_golden(capsys):
    code, data = run_json(capsys, "nc", "--count", "4")
    assert code == 0
    assert data == {"n": 4, "count": 14}


def test_nc_list(capsys):
    code, data = run_json(capsys, "nc", "--list", "3")
    assert code == 0
    assert data["count"] == 5
    assert [[1], [2], [3]] in data["partitions"]
    assert [[1, 2, 3]] in data["partitions"]


def test_nc_kreweras(capsys):
    code, data = run_json(capsys, "nc", "--kreweras", "[[1,3],[2]]")
    assert code == 0
    assert data["kreweras"] == [[1, 2], [3]]


def test_nc_mobius_top_interval(capsys):
    code, data = run_json(capsys, "nc", "--mobius", "[[1],[2],[3],[4]]")
    assert code == 0
    assert data["mobius"] == -5


def test_cumulants_golden(capsys):
    code, data = run_json(capsys, "cumulants", "--moments", "[0,1,0,2]")
    assert code == 0
    assert data["k"] == ["0", "1", "0", "0"]


def test_cumulants_classical(capsys):
    code, data = run_json(capsys, "cumulants", "--classical", "--moments", "[0,1,0,3]")
    assert code == 0
    assert data["k"] == ["0", "1", "0", "0"]


def test_moments_from_cumulants(capsys):
    code, data = run_json(capsys, "moments", "--cumulants", '["0","1","0","0"]')
    assert code == 0
    assert data["m"] == ["0", "1", "0", "2"]
    # Poisson(1): all classical cumulants 1, moments the Bell numbers
    code, data = run_json(
        capsys, "moments", "--classical", "--cumulants", '["1","1","1","1","1"]'
    )
    assert code == 0
    assert data == {"kind": "classical", "m": ["1", "2", "5", "15", "52"]}


def test_moments_from_measure_file(capsys, semicircle_file):
    code, data = run_json(
        capsys, "moments", "--measure", semicircle_file, "--order", "6"
    )
    assert code == 0
    assert data["m"] == ["0", "1", "0", "2", "0", "5"]


def test_moments_order_past_the_budget_is_refused_before_any_moment(
    capsys, semicircle_file, monkeypatch
):
    # the semicircle's moments took 4 s at order 500; the estimate from the
    # order, the kind and the sizes of the input refuses it before any moment
    from freemoments import measures

    def refuse(*args, **kwargs):
        raise AssertionError("a moment was computed")

    monkeypatch.setattr(measures, "moments", refuse)
    for order in ("500", str(10**400)):
        code, data = run_json(
            capsys, "moments", "--measure", semicircle_file, "--order", order
        )
        assert code == 2 and data["error"] == "budget"


def test_freeconv_bernoulli_self_sum(capsys):
    code, data = run_json(capsys, "freeconv", "--a", "[0,1,0,1]", "--b", "[0,1,0,1]")
    assert code == 0
    assert data["m"] == ["0", "2", "0", "6"]


def test_rseries_matches_cumulants(capsys):
    code, data = run_json(capsys, "rseries", "--moments", '["1","2","5","14"]')
    assert code == 0
    assert data["r"] == ["1", "1", "1", "1"]


def test_support_bound_from_moments(capsys):
    code, data = run_json(capsys, "support-bound", "--moments", "[0,1,0,2,0,5]")
    assert code == 0
    assert data["bound"] == "16"


def test_support_bound_from_cumulants(capsys):
    code, data = run_json(capsys, "support-bound", "--cumulants", '["0","1/4"]')
    assert code == 0
    assert data["bound"] == "8"


def test_support_bound_note_states_its_hypothesis(capsys):
    # finitely many cumulants do not bound the support: (1 - e) delta_0 +
    # (e/2)(delta_-100 + delta_100) with e = 1e-4 has k_1 = 0, k_2 = 1 and
    # bound 16, but support radius 100
    code, data = run_json(capsys, "support-bound", "--cumulants", '["0","1"]')
    assert code == 0
    assert data["bound"] == "16"
    note = data["note"]
    assert "|k_n| <= L^n for every n" in note
    assert "[-4L, 4L]" in note
    assert "certified" not in note


def test_support_bound_huge_cumulant(capsys):
    huge = 10**400 + 1
    code, data = run_json(capsys, "support-bound", "--cumulants", json.dumps([0, str(huge)]))
    assert code == 0
    assert (Fraction(data["bound"]) / 16) ** 2 >= huge


def test_levy_tables_both_kinds(capsys, tmp_path):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(
        json.dumps(measure_to_json(Measure.discrete([(1, "1/2")])))
    )
    code, data = run_json(
        capsys, "levy", "--gamma", "1/2", "--sigma", str(sigma), "--order", "4"
    )
    assert code == 0
    assert data["cumulants"] == ["1", "1", "1", "1"]
    assert data["moments"] == ["1", "2", "5", "14"]
    code, data = run_json(
        capsys,
        "levy", "--gamma", "1/2", "--sigma", str(sigma), "--order", "4",
        "--classical",
    )
    assert code == 0
    assert data["cumulants"] == ["1", "1", "1", "1"]
    assert data["moments"] == ["1", "2", "5", "15"]


def test_levy_takes_a_negative_rational_drift_after_a_space(capsys, tmp_path):
    # argparse would read -1/2 as an option; both spellings give one result
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(measure_to_json(Measure.discrete([(1, "1/2")]))))
    spaced = run_json(capsys, "levy", "--gamma", "-1/2", "--sigma", str(sigma), "--order", "3")
    joined = run_json(capsys, "levy", "--gamma=-1/2", "--sigma", str(sigma), "--order", "3")
    assert spaced == joined
    code, data = spaced
    assert code == 0
    assert data["gamma"] == "-1/2" and data["cumulants"] == ["0", "1", "1"]


def test_levy_order_past_the_budget_is_refused_before_any_moment(capsys, tmp_path, monkeypatch):
    # order 200 of this pair took 37 s; the estimate from the sizes of the
    # input refuses it before any cumulant or moment is taken
    from freemoments import levy

    def refuse(*args, **kwargs):
        raise AssertionError("a cumulant was computed")

    monkeypatch.setattr(levy, "cumulants_from_levy", refuse)
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps({"kind": "discrete", "atoms": [["1/3", "1/7"], ["-5/11", "2/13"]]}))
    for order in ("200", str(10**400)):
        code, data = run_json(
            capsys, "levy", "--gamma", "1/3", "--sigma", str(sigma), "--order", order
        )
        assert code == 2 and data["error"] == "budget"
    # a bad order is still a validation error
    code, data = run_json(capsys, "levy", "--gamma", "1/3", "--sigma", str(sigma), "--order", "0")
    assert code == 1 and data["error"] == "validation"


# ------------------------------------------------------- validation errors


@pytest.mark.parametrize(
    "argv",
    [
        ("nc",),
        ("nc", "--count", "4", "--list", "3"),
        ("nc", "--unknown-flag"),
        ("cumulants", "--moments", "not json"),
        ("cumulants", "--moments", "[]"),
        ("moments", "--cumulants", "[1]", "--measure", "x.json"),
        ("freeconv", "--a", "[0,1]", "--b", "[0,1,0]"),
        ("no-such-subcommand",),
        ("verify",),
        ("verify", "--measure", "/nonexistent.json", "--order", "2"),
        ("verify", "--suite", "--only", "no-such-criterion"),
        # an empty selection runs nothing, so it cannot pass
        ("verify", "--suite", "--only", ""),
        ("verify", "--suite", "--only", ","),
        # removed flags: free is the default kind, and every result goes to
        # stdout
        ("cumulants", "--free", "--moments", "[0,1,0,2]"),
        ("moments", "--free", "--cumulants", "[0,1,0,2]"),
        ("rtransform", "--measure", "x.json", "--order", "2", "--report", "F"),
        ("simulate", "--spec", "x.json", "--order", "2", "--out", "F"),
    ],
)
def test_validation_problems_exit_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"error", "detail"}
    assert payload["error"] == "validation"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("rtransform", "--measure", "@semicircle", "--order", "2", "--tol", "abc"),
        ("rtransform", "--measure", "@semicircle", "--order", "2", "--tol", "nan"),
        ("verify", "--measure", "@semicircle", "--order", "2", "--tol", "abc"),
        ("verify", "--measure", "@semicircle", "--order", "2", "--tol", "nan"),
        ("verify", "--measure", "@semicircle", "--order", "2", "--tol=-1e-5"),
        ("verify", "--measure", "@semicircle", "--order", "2", "--tol", "0"),
        ("verify", "--measure", "@semicircle", "--order", "2", "--dps", "0"),
        ("rtransform", "--measure", "@semicircle", "--order", "2", "--dps", "0"),
        ("simulate", "--spec", "@gue", "--order", "2", "--budget", "nan"),
        ("simulate", "--spec", "@gue", "--order", "2", "--budget", "0"),
        ("simulate", "--spec", "@gue", "--order", "2", "--budget", "-1"),
        # the cone |tan theta| < 1 is open
        ("rtransform", "--measure", "@semicircle", "--order", "2", "--tilt", "1"),
        # the suite has no budget flag; the matrix criterion fits the default
        ("verify", "--suite", "--only", "support-bound", "--budget", "1e12"),
    ],
)
def test_hostile_numeric_flags_exit_1(capsys, semicircle_file, gue_spec_file, argv):
    files = {"@semicircle": semicircle_file, "@gue": gue_spec_file}
    code, data = run_json(capsys, *(files.get(a, a) for a in argv))
    assert code == 1
    assert data["error"] == "validation"
    assert set(data) == {"error", "detail"}


def test_numeric_flags_accept_decimal_tol_and_infinite_budget(
    capsys, two_atom_file, gue_spec_file
):
    code, data = run_json(
        capsys, "verify", "--measure", two_atom_file, "--order", "2", "--tol", "1e-5"
    )
    assert code == 0
    assert data["tol"] == "1e-5"  # echoed as given
    code, data = run_json(
        capsys, "simulate", "--spec", gue_spec_file, "--order", "2", "--budget", "inf"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("nc", "--kreweras", "[[]]"),
        ("nc", "--mobius", "[[]]"),
        ("nc", "--mobius", "[[1]]", "--upper", "[[1], []]"),
        ("nc", "--kreweras", '[[1, "a"]]'),
        ("nc", "--kreweras", "[1, 2]"),
        ("nc", "--kreweras", "[[1, 1000000000000000000]]"),
        # an integer literal past the interpreter's int/str digit limit
        ("nc", "--kreweras", "[[1, " + "9" * 5000 + "]]"),
    ],
)
def test_nc_malformed_blocks_exit_1(capsys, argv):
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"] == "validation"
    assert set(data) == {"error", "detail"}


@pytest.mark.parametrize(
    "argv",
    [
        ("nc", "--count", "8000"),
        ("nc", "--count", "1000000000000"),
        ("nc", "--mobius", json.dumps([[x] for x in range(1, 8001)])),
    ],
)
def test_nc_unprintable_results_rejected_up_front(capsys, monkeypatch, argv):
    # Catalan(n) and |Mobius| are below 4^n: the estimate rejects the input
    # before the number is computed
    import freemoments.cli as cli

    def never(*args):
        raise AssertionError("computed a result the estimate should reject")

    monkeypatch.setattr(cli, "catalan", never)
    monkeypatch.setattr(cli, "mobius_nc", never)
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"] == "size-limit"
    assert set(data) == {"error", "detail"}


@pytest.mark.parametrize("flag", [("cumulants", "--moments"), ("moments", "--cumulants")])
def test_unprintable_exact_result_is_a_size_limit_error(capsys, flag):
    # m_2 - m_1^2 (or k_2 + k_1^2) of two 4000-digit values has about 8000
    # digits; its size is known only once it is computed
    big = "9" * 4000
    code, data = run_json(capsys, *flag, json.dumps([big, big]))
    assert code == 1
    assert data["error"] == "size-limit"
    assert str(sys.get_int_max_str_digits()) in data["detail"]


def test_nc_mobius_on_many_elements(capsys):
    # O(n) Kreweras: 7000 singletons up to the one-block partition give
    # -Catalan(6999), which still prints
    code, data = run_json(capsys, "nc", "--mobius", json.dumps([[x] for x in range(1, 7001)]))
    assert code == 0
    assert data["mobius"] == -catalan(6999)


def test_internal_error_keeps_json_contract(capsys, monkeypatch):
    import freemoments.cli as cli

    def broken(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "_run_nc", broken)
    code, out, err = run_cli(capsys, "nc", "--count", "4")
    assert code == 2
    assert json.loads(out) == {
        "error": "internal",
        "detail": "RuntimeError: simulated defect",
    }
    assert "Traceback" in err and "simulated defect" in err


def test_float_literals_rejected(capsys):
    code, data = run_json(capsys, "cumulants", "--moments", "[0, 0.5]")
    assert code == 1
    assert data["error"] == "validation"
    assert "0.5" in data["detail"]


def test_error_payload_carries_code(capsys):
    code, data = run_json(capsys, "moments", "--cumulants", '["1/0"]')
    assert code == 1
    assert data["error"] == "validation"


# ----------------------------------------------------------- numeric paths


def test_rtransform_report(capsys, two_atom_file):
    code, data = run_json(
        capsys,
        "rtransform", "--measure", two_atom_file, "--order", "3", "--tol", "1e-8",
    )
    assert code == 0
    assert data["within_tol"] is True
    assert len(data["points"]) == 21  # levels 7..27, all an order <= 6 reads
    assert data["ray"]["levels"] == 41  # the ray's grid, not the levels tried
    assert data["levels_tried"] == 21 and data["dropped_levels"] == []
    assert data["points"][0]["index"] == data["ray"]["first_level"] == 7
    assert {"index", "radius", "r_value", "residual", "stability"} <= set(
        data["points"][0]
    )
    coeffs = data["coefficients"]
    # two-atom measure at +-1: first cumulants are 0, 1, 0
    assert abs(float(coeffs[0]["real"])) < 1e-12
    assert abs(float(coeffs[1]["real"]) - 1) < 1e-12
    assert abs(float(coeffs[2]["real"])) < 1e-12
    assert not any(row["nonreal"] for row in coeffs)


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_rtransform_reports_the_default_ray_up_to_order_6(capsys, tmp_path, order):
    # a fit of order p inverts only 3 (p + 1) levels, but the report keeps
    # the 21 of invert_g_on_ray's default order, bit for bit
    import mpmath as mp

    from freemoments.cli import _complex_strs, _num_str, _taylor_rows
    from freemoments.rays import estimate_taylor_on_ray, invert_g_on_ray

    mu = Measure.discrete([(-1, "1/2"), (1, "1/4"), (2, "1/4")])
    path = tmp_path / "three_atom.json"
    path.write_text(json.dumps(measure_to_json(mu)))
    code, data = run_json(capsys, "rtransform", "--measure", str(path), "--order", str(order))
    assert code == 0
    samples = invert_g_on_ray(mu, dps=50)
    with mp.workdps(50):
        points = [
            {
                "index": j,
                "radius": _num_str(t, 30),
                "r_value": _complex_strs(r, 30),
                "residual": _num_str(res, 30),
                "stability": _num_str(stab, 30),
            }
            for j, t, r, res, stab in zip(
                samples.indices, samples.radii, samples.r_values,
                samples.residuals, samples.stability,
            )
        ]
        rows = _taylor_rows(estimate_taylor_on_ray(samples, order), 30)
    assert len(points) == 21
    assert data["points"] == points
    assert data["coefficients"] == rows


def test_order_above_6_inverts_the_levels_its_fit_reads(capsys, two_atom_file):
    # a ray inverted for order 6 keeps 21 points, too few for an order-8
    # fit, which reads 3 (8 + 1) = 27
    code, data = run_json(capsys, "rtransform", "--measure", two_atom_file, "--order", "8")
    assert code == 0
    assert [point["index"] for point in data["points"]] == list(range(7, 34))
    assert data["levels_tried"] == 27
    assert len(data["coefficients"]) == 8
    # k_8 = -5 comes out within 1e-2
    code, data = run_json(
        capsys, "verify", "--measure", two_atom_file, "--order", "8", "--tol", "1e-2"
    )
    assert code == 0 and data["passed"] is True


def test_rtransform_tol_failure_exits_2(capsys, two_atom_file):
    code, out, _ = run_cli(
        capsys,
        "rtransform", "--measure", two_atom_file, "--order", "3",
        "--tol", "1e-60",
    )
    assert code == 2
    assert json.loads(out)["within_tol"] is False


@pytest.mark.parametrize("command", ["rtransform", "verify"])
@pytest.mark.parametrize(
    "mu",
    [Measure.discrete([]), Measure.semicircle(0, 2, mass=0)],
    ids=["no-atoms", "mass-0"],
)
def test_zero_measure_on_the_ray_exits_1(capsys, tmp_path, command, mu):
    # G = 0 has no inverse, so no choice of ray helps: an input error, not
    # a region-too-large one
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(measure_to_json(mu)))
    code, data = run_json(capsys, command, "--measure", str(path), "--order", "2")
    assert code == 1
    assert data["error"] == "validation"
    assert "zero measure" in data["detail"]



@pytest.mark.parametrize("command", ["rtransform", "verify"])
@pytest.mark.parametrize(
    "mu",
    [
        Measure.semicircle(0, 2, mass=2),
        Measure.discrete([(0, "1/2")]),
        # each weight prints, but the mass has about 6000 digits, more than
        # the interpreter prints
        Measure.discrete([(0, Fraction(1, 10**3000 + 7)), (1, Fraction(1, 10**3000 + 9))]),
    ],
    ids=["mass-2-semicircle", "half-mass-atom", "unprintable-mass"],
)
def test_non_probability_measure_on_the_ray_exits_1(capsys, tmp_path, command, mu):
    # K(z) - 1/z keeps the pole (mass - 1)/z: the fit would report garbage
    # (k_2 ~ 1e16 for the mass-2 semicircle) or a misleading point count
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(measure_to_json(mu)))
    code, out, err = run_cli(capsys, command, "--measure", str(path), "--order", "3")
    data = json.loads(out)
    assert code == 1
    assert data["error"] == "validation"
    assert "probability measure" in data["detail"]
    assert "Traceback" not in err


def _nested_free_sums_text(depth: int) -> str:
    """`depth` free sums, each of the next one and a GUE part, as JSON text
    (which json.dumps cannot write when deep): 2 depth + 1 brackets deep."""
    gue = '{"kind": "gue", "dim": 2}'
    text = gue
    for _ in range(depth):
        text = '{"kind": "free_sum", "dim": 2, "parts": [' + text + ", " + gue + "]}"
    return text


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["cumulants", "--moments", "[" * 2000], None, None),
        (
            ["rtransform", "--measure", "@", "--order", "2"],
            "atoms.json",
            '{"kind": "discrete", "atoms": ' + "[" * 2000 + "]" * 2000 + "}",
        ),
        (["simulate", "--spec", "@", "--order", "1"], "spec.json", _nested_free_sums_text(490)),
        (["simulate", "--spec", "@", "--order", "1"], "spec.json", _nested_free_sums_text(2000)),
    ],
    ids=["moments", "measure-atoms", "free-sums-490", "free-sums-2000"],
)
def test_deeply_nested_json_is_a_validation_error(capsys, tmp_path, argv, name, text):
    # refused on the text, before the decoder or the spec builder recurses
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        argv = [str(path) if a == "@" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert "Traceback" not in err
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "validation"
    assert data["detail"].endswith("JSON nested deeper than 32 brackets")


def test_json_nesting_limit_is_32_brackets_outside_strings(capsys):
    # 32 brackets decode (and the nested lists are refused as no numbers),
    # 33 are refused before decoding; brackets in a string do not count
    def detail(text: str) -> str:
        code, data = run_json(capsys, "cumulants", "--moments", text)
        assert code == 1 and data["error"] == "validation"
        return data["detail"]

    limit = "--moments: JSON nested deeper than 32 brackets"
    assert JSON_MAX_DEPTH == 32
    assert detail("[" * 32 + "]" * 32) != limit
    assert detail("[" * 33 + "]" * 33) == limit
    assert detail('["' + "[" * 40 + '"]') != limit
    assert detail('["\\"' + "{" * 40 + '"]') != limit  # an escaped quote stays in the string
    assert detail('["\\\\", ' + "[" * 33 + "]" * 33 + "]") == limit  # an escaped backslash


@pytest.mark.parametrize("depth, code", [(15, 0), (16, 1)], ids=["31-brackets", "33-brackets"])
def test_nesting_limit_is_the_same_in_both_entry_forms(capsys, entry, tmp_path, depth, code):
    # a fresh process and cli.main under pytest have different stacks; the
    # stated limit gives both the same answer
    path = tmp_path / "spec.json"
    path.write_text(_nested_free_sums_text(depth))
    argv = ["simulate", "--spec", str(path), "--order", "2"]
    done = _spawn([*entry, *argv])
    in_code, in_out, _ = run_cli(capsys, *argv)
    assert done.returncode == in_code == code, done.stdout
    assert _strict_json(done.stdout) == json.loads(in_out)
    assert "Traceback" not in done.stderr


def test_rtransform_bad_ray_exits_1(capsys, two_atom_file):
    code, out, _ = run_cli(
        capsys,
        "rtransform", "--measure", two_atom_file, "--order", "3",
        "--tilt", "2",
    )
    assert code == 1
    assert json.loads(out)["error"] == "validation"


def test_rtransform_takes_a_negative_rational_tilt_after_a_space(capsys, two_atom_file):
    argv = ("rtransform", "--measure", two_atom_file, "--order", "2")
    spaced = run_json(capsys, *argv, "--tilt", "-1/2")
    assert spaced == run_json(capsys, *argv, "--tilt=-1/2")
    code, data = spaced
    assert code == 0
    assert data["ray"]["tan_theta"] == "-1/2"


def test_rtransform_alpha_is_not_a_flag(capsys, two_atom_file):
    # the cone |tan theta| < 1 is fixed; the echo still prints its alpha
    code, data = run_json(
        capsys, "rtransform", "--measure", two_atom_file, "--order", "2", "--alpha", "1"
    )
    assert code == 1
    assert data["error"] == "validation"
    code, data = run_json(capsys, "rtransform", "--measure", two_atom_file, "--order", "2")
    assert code == 0
    assert data["ray"] == {
        "alpha": "1", "beta": "1/8", "tan_theta": "0", "levels": 41, "first_level": 7
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "--only", "support-bound", "--measure", "@mu",
         "--order", "2", "--tol", "1e-99"],
        ["verify", "--suite", "--only", "support-bound", "--order", "2"],
        ["verify", "--measure", "@mu", "--order", "2", "--only", "support-bound"],
        ["moments", "--cumulants", "[1,1]", "--order", "5"],
        ["moments", "--measure", "@mu", "--order", "2", "--classical"],
        ["verify", "--suite", "--only", "support-bound", "--tol", "1e-99"],
        ["verify", "--suite", "--only", "support-bound", "--dps", "3"],
        ["nc", "--count", "4", "--upper", "[[9]]"],
        ["nc", "--kreweras", "[[1,3],[2]]", "--upper", "[[1,2,3]]"],
        ["verify", "--suite", "--only", "support-bound", "--measure", "@mu", "--order", "2"],
        # a given flag is refused even at the --measure path's default
        ["verify", "--suite", "--only", "support-bound", "--tol", "1e-4"],
        ["nc", "--count", "4", "--upper", "[[1,2,3,4]]"],
    ],
    ids=["suite-measure", "suite-order", "measure-only", "cumulants-order",
         "measure-classical", "suite-tol", "suite-dps", "count-upper",
         "kreweras-upper", "suite-measure-order", "suite-default-tol",
         "count-valid-upper"],
)
def test_flags_the_mode_would_ignore_exit_1(capsys, two_atom_file, argv):
    argv = [two_atom_file if a == "@mu" else a for a in argv]
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"] == "validation"


@pytest.fixture
def gue_spec_file(tmp_path):
    spec = MatrixEnsembleSpec(kind="gue", dim=60, trials=6, seed=11)
    path = tmp_path / "gue.json"
    path.write_text(json.dumps(ensemble_spec_to_json(spec)))
    return str(path)


def test_simulate_deterministic_and_seed_override(capsys, gue_spec_file):
    code1, out1, _ = run_cli(capsys, "simulate", "--spec", gue_spec_file, "--order", "4")
    code2, out2, _ = run_cli(capsys, "simulate", "--spec", gue_spec_file, "--order", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(
        capsys, "simulate", "--spec", gue_spec_file, "--order", "4", "--seed", "12"
    )
    assert code3 == 0
    assert out3 != out1
    data = json.loads(out3)
    assert data["spec"]["seed"] == 12
    assert data["estimate"]["rng"] == "numpy-pcg64"
    assert len(data["comparison"]) == 4


# --------------------------------------------------------- fresh processes
#
# A spawned test runs the CLI in each way a user starts it, through the
# `entry` fixture; CI installs the package, so both ways run there.

_SRC = os.path.dirname(os.path.dirname(freemoments.__file__))


def _spawn(argv, stdout=subprocess.PIPE, timeout=120, **env):
    """Run argv in a fresh interpreter that imports this checkout's package,
    with the variables env added to the environment."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        argv, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


@pytest.fixture(params=["module", "script"])
def entry(request):
    """`python -m freemoments.cli`, and the `freemoments` script that
    installing the package puts on PATH.  A missing script skips its tests,
    except on GitHub Actions: CI installs the package, so there it fails
    them."""
    if request.param == "module":
        return [sys.executable, "-m", "freemoments.cli"]
    if shutil.which("freemoments") is None:
        reason = "the `freemoments` script is not on PATH (`pip install -e .` puts it there)"
        if os.environ.get("GITHUB_ACTIONS") == "true":
            pytest.fail(reason)
        pytest.skip(reason)
    return ["freemoments"]


# The JSON files that an argv names as @name.
_FILES = {
    "@semicircle": dict(_SEMICIRCLE, mass="1"),
    "@mass-2": dict(_SEMICIRCLE, mass="2"),
    "@two-atom": {"kind": "discrete", "atoms": [["-1", "1/2"], ["1", "1/2"]]},
    "@one-atom": {"kind": "discrete", "atoms": [["0", "1"]]},
    "@gue": {"kind": "gue", "dim": 20, "trials": 2, "seed": 3},
    "@gue-1e200": {"kind": "gue", "dim": 10, "trials": 2, "scale": "1e200"},
    "@wishart-1e308": {"kind": "wishart", "dim": 10, "trials": 2, "rate": "2", "scale": "1e308"},
}


def _with_files(tmp_path, argv):
    def path(arg):
        if arg not in _FILES:
            return arg
        file = tmp_path / f"{arg[1:]}.json"
        file.write_text(json.dumps(_FILES[arg]))
        return str(file)

    return [path(arg) for arg in argv]


@pytest.mark.parametrize(
    "argv", [("nc", "--count", "4"), ("nc", "--count", "0")], ids=["result", "error"]
)
def test_closed_stdout_exits_1_without_traceback(entry, argv):
    # the reader of stdout is gone before the JSON is printed, as in
    # `freemoments ... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _spawn([*entry, *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["nc", "--count", "4"], 0, {"n": 4, "count": 14}),
        (["moments", "--classical", "--cumulants", '["1","1","1","1","1"]'], 0,
         {"kind": "classical", "m": ["1", "2", "5", "15", "52"]}),
        (["rtransform", "--measure", "@semicircle", "--order", "2", "--tilt", "1/2"], 0,
         {"ray": {"alpha": "1", "beta": "1/8", "tan_theta": "1/2", "levels": 41,
                  "first_level": 7}}),
        # b_1's error estimate is about 1e26 this close to 0: the ray reports
        # the tolerance as missed, not as met
        (["rtransform", "--measure", "@semicircle", "--order", "2", "--beta", "1e-30",
          "--tol", "1e-4"], 2, {"within_tol": False}),
        (["rtransform", "--measure", "@mass-2", "--order", "3"], 1, {"error": "validation"}),
        (["verify", "--measure", "@mass-2", "--order", "3"], 1, {"error": "validation"}),
        # finite samples, but the stderr of m_1 overflows
        (["simulate", "--spec", "@gue-1e200", "--order", "1"], 1, {"error": "size-limit"}),
        # sampled entries past the float range, refused before the eigensolver
        (["simulate", "--spec", "@wishart-1e308", "--order", "1"], 1, {"error": "size-limit"}),
    ],
    ids=["nc-count", "classical-moments", "ray-tilt", "ray-too-small", "rtransform-mass-2",
         "verify-mass-2", "gue-1e200", "wishart-1e308"],
)
def test_each_entry_form_keeps_the_contract(entry, tmp_path, argv, code, expected):
    # strict JSON on stdout and the exit code; no traceback and no numpy
    # overflow warning on stderr, which an in-process test cannot see
    done = _spawn([*entry, *_with_files(tmp_path, argv)])
    assert done.returncode == code, done.stdout
    data = _strict_json(done.stdout)
    assert {key: data.get(key) for key in expected} == expected
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("command", ["rtransform", "verify"])
@pytest.mark.parametrize("dps", ["100000", str(10**400)], ids=["1e5", "1e400"])
def test_huge_precision_is_refused_at_once_by_the_budget(tmp_path, command, dps):
    # a one-atom law at 100000 digits gave no answer within 20 s before the
    # ray had a work budget; now the estimate refuses it before any
    # evaluation of G, and 10^400 digits, which mpmath cannot set, alike
    argv = [command, "--measure", "@one-atom", "--order", "2", "--dps", dps]
    done = _spawn([sys.executable, "-m", "freemoments.cli", *_with_files(tmp_path, argv)],
                  timeout=20)
    assert done.returncode == 2, done.stdout
    assert _strict_json(done.stdout)["error"] == "budget"
    assert "Traceback" not in done.stderr


_HEAVY = {"mpmath", "numpy", "freemoments.acceptance", "freemoments.rays", "freemoments.rmt"}


@pytest.fixture(scope="module")
def pycache_prefix(tmp_path_factory):
    """The package compiled into a bytecode cache outside the source tree,
    as an installed package runs from bytecode.  A spawn that leaves the
    package out caches the libraries it imports there too, so that the
    tests' spawns need not compile them from source."""
    prefix = str(tmp_path_factory.mktemp("pycache"))
    subprocess.run(
        [sys.executable, "-X", f"pycache_prefix={prefix}", "-m", "compileall", "-q",
         os.path.dirname(freemoments.__file__)],
        check=True, timeout=120,
    )
    subprocess.run(
        [sys.executable, "-c", "import argparse, fractions, json, mpmath, numpy"],
        check=True, timeout=120,
        env=dict(os.environ, PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE=""),
    )
    return prefix


@pytest.mark.parametrize(
    "argv, heavy",
    [
        (["nc", "--count", "4"], set()),
        (["rseries", "--moments", '["0","1","0","2"]'], set()),
        (["cumulants", "--moments", '["0","1","0","2"]'], set()),
        (["moments", "--measure", "@semicircle", "--order", "4"], set()),
        (["levy", "--gamma", "1/2", "--sigma", "@two-atom", "--order", "3"], set()),
        (["rtransform", "--measure", "@semicircle", "--order", "2"], {"mpmath", "freemoments.rays"}),
        (["simulate", "--spec", "@gue", "--order", "2"], {"numpy", "freemoments.rmt"}),
    ],
    ids=["nc", "rseries", "cumulants", "moments", "levy", "rtransform", "simulate"],
)
def test_compiled_subcommands_import_only_their_layers(
    entry, pycache_prefix, tmp_path, argv, heavy
):
    # the exact subcommands load no numeric library; the ray loads mpmath
    # and its layer without numpy, simulate numpy and its layer
    # the spawn writes no bytecode, so what it reads is compileall's
    done = _spawn(
        [*entry, *_with_files(tmp_path, argv)], PYTHONPYCACHEPREFIX=pycache_prefix,
        PYTHONDONTWRITEBYTECODE="1", PYTHONPROFILEIMPORTTIME="1", PYTHONVERBOSE="1",
    )
    assert done.returncode == 0, done.stdout
    lines = done.stderr.splitlines()
    names = {line.split("|")[-1].strip() for line in lines if line.startswith("import time:")}
    assert "freemoments" in names and names & _HEAVY == heavy
    # every module of the package ran from the compiled cache, the
    # cli too (which `-m` runs without an import line)
    compiled = os.path.join(pycache_prefix, os.path.dirname(freemoments.__file__).lstrip(os.sep))
    read = {
        os.path.basename(line.rstrip("'")).split(".")[0]
        for line in lines if line.startswith(f"# code object from '{compiled}{os.sep}")
    }
    ours = {name.rsplit(".", 1)[-1] for name in names if name.startswith("freemoments.")}
    assert {"__init__", "cli"} | ours <= read


# Runs in a fresh interpreter, whose sys.modules shows what was imported.
_PROBE_HEAD = """
import contextlib, io, json, sys

HEAVY = ("mpmath", "numpy", "freemoments.acceptance", "freemoments.rays", "freemoments.rmt")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

import freemoments
seen = {"after_import": loaded()}
from freemoments import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, json.loads(out.getvalue()), loaded()]
"""

_IMPORT_PROBE = _PROBE_HEAD + """
measure, sigma, spec = sys.argv[1:]
seen["nc"] = run("nc", "--count", "4")
seen["rseries"] = run("rseries", "--moments", '["0","1","0","2"]')
seen["rseries_loads_series"] = "freemoments.series" in sys.modules
seen["cumulants"] = run("cumulants", "--moments", '["0","1","0","2"]')
seen["moments"] = run("moments", "--measure", measure, "--order", "4")
seen["levy"] = run("levy", "--gamma", "1/2", "--sigma", sigma, "--order", "3")
seen["rtransform"] = run("rtransform", "--measure", measure, "--order", "2")
seen["simulate"] = run("simulate", "--spec", spec, "--order", "4")
print(json.dumps(seen))
"""

# The battery's probe needs an interpreter of its own: after the calls above
# mpmath, numpy and the numeric layers are loaded whatever the battery does.
_SUITE_PROBE = _PROBE_HEAD + """
seen["suite"] = run("verify", "--suite", "--only", "levy-correspondents")
seen["suite_refused"] = run("verify", "--suite", "--only", "no-such-slug")
seen["suite_loads_series"] = "freemoments.series" in sys.modules
print(json.dumps(seen))
"""


def _probe(script, *args):
    done = _spawn([sys.executable, "-c", script, *args])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_each_subcommand_imports_only_its_layers(
    capsys, semicircle_file, two_atom_file, gue_spec_file
):
    seen = _probe(_IMPORT_PROBE, semicircle_file, two_atom_file, gue_spec_file)
    # the package and the exact subcommands load neither mpmath nor numpy,
    # nor the numeric layers and the acceptance battery
    assert seen["after_import"] == []
    assert seen["nc"] == [0, {"n": 4, "count": 14}, []]
    assert seen["rseries"] == [0, {"r": ["0", "1", "0", "0"]}, []]
    # rseries prints the free cumulants, without the series layer
    assert seen["rseries_loads_series"] is False
    assert seen["cumulants"] == [0, {"kind": "free", "k": ["0", "1", "0", "0"]}, []]
    assert seen["moments"] == [0, {"order": 4, "m": ["0", "1", "0", "2"]}, []]
    code, levy, modules = seen["levy"]
    assert code == 0 and levy["cumulants"] == ["1/2", "2", "0"] and modules == []
    # the ray loads mpmath and its own layer, still without numpy
    code, _, modules = seen["rtransform"]
    assert code == 0 and modules == ["mpmath", "freemoments.rays"]
    code, out, modules = seen["simulate"]
    assert "numpy" in modules and "freemoments.rmt" in modules
    # sampling with numpy imported late gives what this process, which
    # imported numpy up front, gives
    assert [code, out] == list(run_json(capsys, "simulate", "--spec", gue_spec_file, "--order", "4"))


def test_an_exact_criterion_of_the_battery_imports_no_numeric_layer():
    # an exact criterion, and a refused slug, load the battery without
    # mpmath, numpy or the rays, rmt and series layers
    seen = _probe(_SUITE_PROBE)
    assert seen["after_import"] == []
    code, suite, modules = seen["suite"]
    assert code == 0 and suite["passed"] and modules == ["freemoments.acceptance"]
    code, refused, modules = seen["suite_refused"]
    assert code == 1 and refused["error"] == "validation"
    assert modules == ["freemoments.acceptance"]
    assert seen["suite_loads_series"] is False



def test_simulate_out_file(capsys, gue_spec_file, tmp_path):
    # the result goes to stdout only; `> FILE` writes it to a file
    out_path = tmp_path / "report.json"
    code, data = run_json(
        capsys,
        "simulate", "--spec", gue_spec_file, "--order", "2", "--out", str(out_path),
    )
    assert code == 1
    assert data["error"] == "validation"
    assert not out_path.exists()


def test_simulate_budget_exit_2(capsys, gue_spec_file):
    code, data = run_json(
        capsys,
        "simulate", "--spec", gue_spec_file, "--order", "4", "--budget", "10",
    )
    assert code == 2
    assert data["error"] == "budget"


@pytest.mark.parametrize(
    "spec, error",
    [
        ({"kind": "gue", "dim": 4, "scale": "1e400"}, "validation"),
        (
            {
                "kind": "deterministic",
                "dim": 4,
                "measure": {"kind": "discrete", "atoms": [["1e400", "1"]]},
            },
            "validation",
        ),
        # the spec fits floats, the predicted m_4 = 2 * 10^400 does not
        ({"kind": "gue", "dim": 4, "scale": "1e100"}, "size-limit"),
    ],
)
def test_simulate_past_float_range_is_an_input_error(capsys, tmp_path, spec, error):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with np.errstate(over="ignore", invalid="ignore"):
        code, data = run_json(capsys, "simulate", "--spec", str(path), "--order", "4")
    assert code == 1
    assert data["error"] == error


@pytest.mark.parametrize(
    "command, payload",
    [
        # JSON true is an int to Python, but not a count or a seed
        ("simulate", {"kind": "gue", "dim": True}),
        ("simulate", {"kind": "gue", "dim": 4, "trials": True}),
        ("simulate", {"kind": "gue", "dim": 4, "seed": True}),
        # a misspelt measure field must not fall back to its default
        ("moments", dict(_SEMICIRCLE, Mass="3")),
        ("levy", {"kind": "discrete", "atoms": [["1", "1"]], "weight": "1"}),
        (
            "simulate",
            {
                "kind": "deterministic",
                "dim": 4,
                "measure": {"kind": "discrete", "atoms": [["1", "1"]], "Mass": "1"},
            },
        ),
    ],
)
def test_json_booleans_and_unknown_measure_fields_exit_1(
    capsys, tmp_path, command, payload
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "simulate": ("simulate", "--spec", str(path), "--order", "2"),
        "moments": ("moments", "--measure", str(path), "--order", "2"),
        "levy": ("levy", "--gamma", "0", "--sigma", str(path), "--order", "2"),
    }[command]
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"] == "validation"


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "spec",
    [
        # finite samples, but the stderr of m_1 overflows
        {"kind": "gue", "dim": 10, "trials": 2, "scale": "1e200"},
        # sampled entries past the float range, refused before the eigensolver
        {"kind": "wishart", "dim": 10, "trials": 2, "rate": "2", "scale": "1e308"},
    ],
)
def test_simulate_sample_past_float_range_is_size_limit(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(path), "--order", "1")
    assert code == 1
    assert _strict_json(out)["error"] == "size-limit"


def test_simulate_huge_order_is_refused_by_the_budget(capsys, tmp_path, gue_spec_file):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"kind": "gue", "dim": 10}))
    for spec in (gue_spec_file, str(small)):
        for order in ("100000", str(10**400)):
            code, data = run_json(capsys, "simulate", "--spec", spec, "--order", order)
            assert code == 2
            assert data["error"] == "budget"


def test_non_finite_float_never_reaches_stdout(capsys, gue_spec_file, monkeypatch):
    import freemoments.rmt as rmt

    rows = [{"within": True, "allowance": math.inf}]
    monkeypatch.setattr(rmt, "compare_to_prediction", lambda estimate, exact: rows)
    code, out, _ = run_cli(capsys, "simulate", "--spec", gue_spec_file, "--order", "2")
    assert code == 2
    assert _strict_json(out)["error"] == "internal"


def test_simulate_exact_for_deterministic_measure(capsys, tmp_path):
    mu = Measure.discrete([(-1, "1/2"), (1, "1/2")])
    spec = MatrixEnsembleSpec(kind="deterministic", dim=30, trials=2, seed=0, measure=mu)
    path = tmp_path / "det.json"
    path.write_text(json.dumps(ensemble_spec_to_json(spec)))
    code, data = run_json(capsys, "simulate", "--spec", str(path), "--order", "4")
    assert code == 0
    assert data["within"] is True
    assert data["estimate"]["means"] == [0.0, 1.0, 0.0, 1.0]


# ----------------------------------------------------------------- verify


def test_verify_single_measure(capsys, two_atom_file):
    code, data = run_json(
        capsys, "verify", "--measure", two_atom_file, "--order", "4"
    )
    assert code == 0
    assert data["passed"] is True
    assert data["exact"] == ["0", "1", "0", "-1"]
    assert float(data["max_error"]) < 1e-4


def test_verify_suite_filter_and_report_lines(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "--only", "support-bound,levy-correspondents"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [c["slug"] for c in data["criteria"]] == [
        "support-bound",
        "levy-correspondents",
    ]
    lines = err.strip().splitlines()
    assert lines[0].startswith("PASS support-bound")
    assert lines[1].startswith("PASS levy-correspondents")
    assert lines[-1] == "2/2 criteria passed"


def test_verify_suite_negative_control_named_failure(capsys, corrupt_semicircle):
    code, out, err = run_cli(capsys, "verify", "--suite", "--only", "taylor-recovery")
    assert code == 2
    data = json.loads(out)
    assert data["passed"] is False
    taylor = data["criteria"][0]
    assert taylor["slug"] == "taylor-recovery"
    assert taylor["passed"] is False
    assert "semicircle" in taylor["detail"]
    assert "FAIL taylor-recovery" in err


# --------------------------------------------------- refusals before any work
#
# Whatever the input decides is refused before any work: an invalid order
# with "validation" and exit 1, an estimate past a work budget with
# "budget" and exit 2, in that order.

_LAWS = {
    "two-atom": Measure.discrete([(-1, "1/2"), (1, "1/2")]),
    "uniform": Measure.uniform(-1, 1),
    "semicircle": Measure.semicircle(0, 2),
    "cauchy": Measure.cauchy(),
}


def _law_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(measure_to_json(_LAWS[name])))
    return str(path)


@pytest.mark.parametrize("law", _LAWS)
@pytest.mark.parametrize("order", [-1, -(10**4), -(10**12), -(10**400)],
                         ids=["-1", "-1e4", "-1e12", "-1e400"])
def test_negative_moment_orders_are_validation_errors(capsys, tmp_path, law, order):
    # the order is checked before the work is estimated: the estimate of a
    # negative order of a discrete or uniform law once read as a budget
    code, data = run_json(
        capsys, "moments", "--measure", _law_file(tmp_path, law), "--order", str(order)
    )
    assert code == 1 and data["error"] == "validation"


# every budget's detail: what takes the work, the estimate, the budget and
# the remedy (errors._check_work)
_BUDGET_DETAIL = re.compile(
    r"\S.* takes? an estimated (\d\.\d\de\+\d+|past 1e300) [a-z ]+, "
    r"past the budget of \d\.\d\de\+\d+; \S.*"
)


def _refuse(*args, **kwargs):
    raise AssertionError("the guarded work ran")


@pytest.mark.parametrize(
    "argv, guarded",
    [
        ("rtransform --measure @one-atom --order 2 --dps", "rays._transform_pair"),
        ("verify --measure @one-atom --order 2 --dps", "rays._transform_pair"),
        ("levy --gamma=1/3 --sigma @two-atom --order", "levy.cumulants_from_levy"),
        ("moments --measure @semicircle --order", "measures.moments"),
        ("simulate --spec @gue --order", "rmt.sample_matrix"),
    ],
    ids=["rtransform-dps", "verify-dps", "levy-order", "moments-order", "simulate-order"],
)
@pytest.mark.parametrize("size", ["100000", str(10**400)], ids=["1e5", "1e400"])
def test_every_budget_refuses_through_the_one_check(
    capsys, tmp_path, monkeypatch, argv, guarded, size
):
    import importlib

    module, name = guarded.split(".")
    monkeypatch.setattr(importlib.import_module(f"freemoments.{module}"), name, _refuse)
    code, data = run_json(capsys, *_with_files(tmp_path, [*argv.split(), size]))
    assert code == 2 and data["error"] == "budget", data
    assert _BUDGET_DETAIL.fullmatch(data["detail"]), data["detail"]
    assert ("past 1e300" in data["detail"]) == (size != "100000")


def test_budget_error_is_raised_only_by_the_one_check():
    # a new budget goes through errors._check_work, not a copy of it
    package = os.path.dirname(freemoments.__file__)
    raising = [
        name
        for name in sorted(os.listdir(package))
        if name.endswith(".py")
        and "BudgetError(" in open(os.path.join(package, name), encoding="utf-8").read()
    ]
    assert raising == ["errors.py"]


@pytest.mark.parametrize("command", ["rtransform", "verify"])
@pytest.mark.parametrize("order", ["11", str(10**400)], ids=["11", "1e400"])
def test_an_order_past_the_ray_is_refused_before_any_evaluation(
    capsys, tmp_path, monkeypatch, command, order
):
    # an order-p fit reads 3 (p + 1) levels and the ray has 34: order 11 of
    # the uniform law at 3200 digits inverted all 34 before the fit refused it
    from freemoments import rays

    calls = []
    build = rays._transform_pair

    def counting_build(source):
        evaluate = build(source)
        return lambda w: calls.append(w) or evaluate(w)

    monkeypatch.setattr(rays, "_transform_pair", counting_build)
    argv = [command, "--measure", _law_file(tmp_path, "uniform"), "--order", order]
    code, data = run_json(capsys, *argv, "--dps", "3200")
    assert code == 1 and data["error"] == "validation"
    assert "at most 10" in data["detail"]
    assert calls == []
