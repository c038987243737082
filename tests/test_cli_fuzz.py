"""Property fuzz of the command line: every subcommand, fed arbitrary JSON
payloads and flag values, ends in one strict JSON document on stdout with
exit code 0, 1 or 2, and never in the internal-error payload.

Sizes are bounded on purpose: the budgets of `moments --measure --order`
and `levy --order` admit seconds per call, and the budget of `--dps` still
admits about 3200 digits, seconds per call, so an unbounded draw could run
for minutes without finding anything.  Orders stay in -1..8, `simulate`
dimensions at or below 6 with at most 3 trials, and `--dps` at or below
60.  `nc` sizes reach two past the lattice's ceiling: the output budget
of `nc --list` refuses n = 12 up front and admits n = 11, 2.7 s.
`verify --suite` is fuzzed only with slugs no criterion has, since a real
criterion takes 0.1-17 s.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freemoments.cli import main
from freemoments.noncrossing import MAX_N

_SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_TEXT = st.sampled_from(
    ["1/2", "-3", "0", "7", "-1/4", "2/3", "1.25", "1e3", "1e-3", "1e99999",
     "abc", "", " 1", "1/0", "0x10", "nan", "inf", "p/q"]
)
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=9)
    | _TEXT
    | st.floats(allow_nan=True, allow_infinity=True, width=16)
)
_KEYS = st.sampled_from(
    ["kind", "atoms", "mass", "name", "params", "center", "radius", "rate",
     "scale", "a", "b", "dim", "trials", "seed", "measure", "parts", "shift",
     "Mass", "extra"]
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _mostly(valid, junk=_SCALAR, odds=10):
    """Draws from junk about one time in `odds` and from valid otherwise, so
    most examples get past validation and into the computation.  The junk
    index sits inside the range: generation favours its ends."""
    return st.integers(min_value=0, max_value=odds - 1).flatmap(
        lambda i: junk if i == odds // 2 else valid
    )


def _corrupted(objects):
    """JSON objects, one time in three with one of their own fields, or a
    new one, set to arbitrary JSON."""
    def edit(obj):
        key = st.sampled_from(sorted(obj)) | _KEYS
        change = _mostly(st.none(), st.tuples(key, _JSON), odds=3)
        return change.map(lambda kv: obj if kv is None else dict(obj, **{kv[0]: kv[1]}))

    return objects.flatmap(edit)


_EXACT = st.integers(min_value=-3, max_value=9) | st.sampled_from(
    ["1/2", "-1/4", "2/3", "1.25", "1e-3", "-7/3"]
)
_VALUE = _mostly(_EXACT)
_ORDER = _mostly(st.integers(min_value=1, max_value=8), st.sampled_from([-1, 0, "x", "1.5", ""]))
_SEQUENCE = _mostly(st.lists(_VALUE, min_size=1, max_size=8), _JSON)

_WEIGHT = _mostly(st.sampled_from(["1/2", "1", "1/3", "2"]))
_ATOMS = st.tuples(
    st.dictionaries(st.integers(min_value=-4, max_value=4), _WEIGHT, min_size=1, max_size=4),
    _mostly(st.just([]), st.lists(_JSON, min_size=1, max_size=1)),
).map(lambda pair: [[str(t), w] for t, w in pair[0].items()] + pair[1])
_DISCRETE = st.fixed_dictionaries({"kind": st.just("discrete"), "atoms": _ATOMS})
_DENSITY = st.sampled_from(
    [("semicircle", {"center": "0", "radius": "2"}),
     ("semicircle", {"center": "-1/2", "radius": "1/3"}),
     ("marchenko_pastur", {"rate": "2"}),
     ("marchenko_pastur", {"rate": "3/2"}),
     ("cauchy", {"center": "0", "scale": "1"}),
     ("uniform", {"a": "-1", "b": "3/2"})]
).map(lambda shape: {"kind": "density", "name": shape[0], "params": shape[1]})
_MASSED = st.tuples(_DENSITY, st.none() | _WEIGHT).map(
    lambda pair: pair[0] if pair[1] is None else dict(pair[0], mass=pair[1])
)
_MEASURE = _mostly(_corrupted(_DISCRETE | _MASSED), _JSON)


# JSON true is the int 1 to Python, so it passes for a count unless refused
_COUNT_JUNK = st.just(True) | _SCALAR


def _spec_leaf(dim):
    common = {
        "trials": _mostly(st.integers(min_value=1, max_value=3), _COUNT_JUNK),
        "seed": _mostly(st.integers(min_value=0, max_value=9), _COUNT_JUNK),
        "scale": _VALUE,
        "shift": _VALUE,
    }
    rate = _mostly(st.sampled_from(["1/2", "1", "2", "5/3"]))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("gue"), "dim": dim}, optional=common),
        st.fixed_dictionaries(
            {"kind": st.just("wishart"), "dim": dim, "rate": rate}, optional=common
        ),
        st.fixed_dictionaries(
            {"kind": st.just("deterministic"), "dim": dim,
             "measure": _mostly(_DISCRETE, _MEASURE)},
            optional=common,
        ),
    )


_DIM = _mostly(st.integers(min_value=1, max_value=6), _COUNT_JUNK, odds=4)
_FREE_SUM = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.fixed_dictionaries(
        {"kind": st.just("free_sum"), "dim": st.just(n),
         "parts": _mostly(
             st.lists(_spec_leaf(_mostly(st.just(n))), min_size=2, max_size=2),
             st.lists(_spec_leaf(_mostly(st.just(n))), max_size=3),
         )}
    )
)
_SPEC = _mostly(_corrupted(_spec_leaf(_DIM) | _FREE_SUM), _JSON)


def _file(payload) -> st.SearchStrategy:
    """File contents: the JSON text of a payload, or text that is not JSON."""
    return _mostly(payload.map(json.dumps), st.sampled_from(["", "{", "[1, 2", "null", "1.5"]))


def _run(argv: list[str], files: dict[str, str], tmp) -> None:
    """Write the files, run the command line and check its contract."""
    resolved = []
    for arg in argv:
        if arg in files:
            path = tmp / arg.strip("@")
            path.write_text(files[arg])
            arg = str(path)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)

    def refuse(token):
        raise AssertionError(f"{token} is not strict JSON")

    payload = json.loads(out.getvalue(), parse_constant=refuse)
    assert code in (0, 1, 2), (resolved, code)
    assert isinstance(payload, dict), (resolved, payload)
    assert payload.get("error") != "internal", (resolved, files, payload, err.getvalue())


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _set_partition(n: int):
    """A set partition of {1..n} from a block label per element; crossing
    ones included, which the lattice must reject."""
    def blocks(labels):
        grouped: dict[int, list[int]] = {}
        for element, label in enumerate(labels, start=1):
            grouped.setdefault(label, []).append(element)
        return list(grouped.values())

    labels = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    return labels.map(blocks)


def _nc_argv():
    size = _mostly(
        st.integers(min_value=1, max_value=MAX_N + 2), st.sampled_from([-1, 0, "x", "1.5", ""])
    ).map(str)
    blocks = st.integers(min_value=1, max_value=MAX_N + 2).flatmap(_set_partition)
    payload = _mostly(blocks, _JSON).map(json.dumps)
    return st.one_of(
        st.tuples(st.just("--count"), size),
        st.tuples(st.just("--list"), size),
        st.tuples(st.just("--kreweras"), payload),
        st.tuples(st.just("--mobius"), payload),
        st.tuples(st.just("--mobius"), payload, st.just("--upper"), payload),
    ).map(lambda args: ["nc", *args])


def _sequence_argv():
    seq = _SEQUENCE.map(lambda value: [json.dumps(value)])
    kind = st.sampled_from([[], ["--classical"]])
    return st.one_of(
        st.tuples(st.just(["cumulants"]), kind, st.just(["--moments"]), seq),
        st.tuples(st.just(["moments"]), kind, st.just(["--cumulants"]), seq),
        st.tuples(st.just(["freeconv", "--a"]), seq, st.just(["--b"]), seq),
        st.tuples(st.just(["rseries", "--moments"]), seq),
        st.tuples(st.sampled_from([["support-bound", "--cumulants"],
                                   ["support-bound", "--moments"]]), seq),
    ).map(lambda parts: [a for part in parts for a in part])


@settings(max_examples=200, **_SETTINGS)
@given(argv=_nc_argv() | _sequence_argv())
def test_fuzz_exact_commands(tmp, argv):
    _run(argv, {}, tmp)


@settings(max_examples=120, **_SETTINGS)
@given(
    measure=_file(_MEASURE),
    order=_ORDER.map(str),
    gamma=_VALUE.map(str),
    spaced=st.booleans(),
    classical=st.booleans(),
    levy=st.booleans(),
)
def test_fuzz_measure_commands(tmp, measure, order, gamma, spaced, classical, levy):
    if levy:
        # the drift after a space too, where a negative rational must not
        # read as an option
        drift = ["--gamma", gamma] if spaced else [f"--gamma={gamma}"]
        argv = ["levy", *drift, "--sigma", "@measure", "--order", order]
    else:
        argv = ["moments", "--measure", "@measure", "--order", order]
    if classical:
        argv.append("--classical")
    _run(argv, {"@measure": measure}, tmp)


@pytest.mark.filterwarnings("ignore:weights of the deterministic measure")
@settings(max_examples=150, **_SETTINGS)
@given(
    spec=_file(_SPEC),
    order=_ORDER.map(str),
    seed=st.none() | st.integers(min_value=-1, max_value=9).map(str),
    budget=_mostly(st.none(), st.sampled_from(["1", "1e12", "inf", "nan", "-1", "abc"])),
)
def test_fuzz_simulate(tmp, spec, order, seed, budget):
    argv = ["simulate", "--spec", "@spec", "--order", order]
    if seed is not None:
        argv += ["--seed", seed]
    if budget is not None:
        argv += ["--budget", budget]
    _run(argv, {"@spec": spec}, tmp)


@settings(max_examples=10, **_SETTINGS)
@given(
    measure=_file(_MEASURE),
    order=_mostly(st.integers(min_value=1, max_value=4), st.sampled_from([-1, 0, 9])).map(str),
    dps=_mostly(st.sampled_from(["15", "30", "60"]), st.sampled_from(["1", "0", "abc"])),
    tol=st.sampled_from([[], ["--tol", "1e-3"], ["--tol", "1e-40"], ["--tol", "-1"]]),
    ray=st.sampled_from(
        [[], ["--beta", "1/16"], ["--tilt", "1/2"], ["--tilt", "-1/2"], ["--tilt=-1/2"],
         ["--tilt", "1"], ["--beta", "0"], ["--alpha", "abc"]]
    ),
    command=st.sampled_from(["rtransform", "verify", "suite"]),
)
def test_fuzz_ray_commands(tmp, measure, order, dps, tol, ray, command):
    if command == "suite":
        argv = ["verify", "--suite", "--only", "no-such-slug," + order]
    else:
        argv = [command, "--measure", "@measure", "--order", order, "--dps", dps, *tol]
        if command == "rtransform":
            argv += ray
    _run(argv, {"@measure": measure}, tmp)
