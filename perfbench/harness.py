"""Input generators, timing loop, wall-clock caps, spans and summaries shared by the
four workloads.

Nothing here imports the program: the workload modules do that inside their
timed set-up, so that import cost is part of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import signal
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

WRONG = "wrong-result"
EXCEPTION = "exception"
OVERRUN = "overrun"


class Overrun(BaseException):
    """Raised by the wall-clock cap.  A BaseException, so that handlers in
    the program that catch ordinary errors cannot swallow it."""


class CheckFailed(Exception):
    """An op produced an output that disagrees with its reference."""


@contextlib.contextmanager
def cap(seconds: float):
    """Interrupt the enclosed block after `seconds` of wall time (SIGALRM;
    pure-Python work is interrupted between bytecodes, a native call when
    it returns)."""
    def fire(signum, frame):
        raise Overrun()

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ------------------------------------------------------------------- inputs


def rational(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 9) -> str:
    """A small random rational as a 'p/q' string, in the style of the
    acceptance battery's generator."""
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, den)))


def probability_atoms(rng: random.Random, count: int) -> list[list[str]]:
    """`count` distinct rational atoms in [-8, 8] with rational weights
    summing to 1."""
    locations: dict[Fraction, int] = {}
    while len(locations) < count:
        locations[Fraction(rng.randint(-8, 8), rng.randint(1, 4))] = rng.randint(1, 9)
    total = sum(locations.values())
    return [[str(t), str(Fraction(w, total))] for t, w in sorted(locations.items())]


def jump_atoms(rng: random.Random) -> list[list[str]]:
    """The atoms of a random discrete jump measure of a Levy pair, in the
    style of the acceptance battery."""
    atoms: dict[Fraction, Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        atoms[t] = atoms.get(t, Fraction(0)) + Fraction(rng.randint(1, 8), rng.randint(1, 8))
    return [[str(t), str(w)] for t, w in sorted(atoms.items())]


def random_nc(rng: random.Random, n: int) -> list[list[int]]:
    """A random non-crossing partition: walk 1..n with a stack of open
    blocks, closing some of them and then joining the top one or opening a
    new one."""
    blocks: list[list[int]] = []
    stack: list[int] = []
    for x in range(1, n + 1):
        for _ in range(rng.randint(0, len(stack))):
            if rng.random() < 0.5:
                stack.pop()
        if stack and rng.random() < 0.5:
            blocks[stack[-1]].append(x)
        else:
            blocks.append([x])
            stack.append(len(blocks) - 1)
    return sorted(blocks)


def random_interval(rng: random.Random, n: int) -> dict:
    """[lower, upper] in NC(n): upper is random, lower its meet (blockwise
    intersections) with another random partition."""
    upper = random_nc(rng, n)
    lower = sorted(
        sorted(set(x) & set(y)) for x in random_nc(rng, n) for y in upper if set(x) & set(y)
    )
    return {"n": n, "lower": lower, "upper": upper}


class Strata:
    """Balanced draws: each key cycles through a seeded shuffle of its
    values, so every run sees each value equally often while the concrete
    inputs still change with the seed."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._queues: dict[str, list] = {}

    def pick(self, key: str, values):
        queue = self._queues.get(key)
        if not queue:
            queue = list(values)
            self.rng.shuffle(queue)
            self._queues[key] = queue
        return queue.pop()


def generate_ops(block_fn, seed: int, count: int) -> list[dict]:
    """`count` ops built from shuffled blocks of a fixed kind mix (count is
    a multiple of the block length)."""
    rng = random.Random(seed)
    strata = Strata(rng)
    ops: list[dict] = []
    while len(ops) < count:
        block = block_fn(rng, strata)
        rng.shuffle(block)
        ops.extend(block)
    return ops[:count]


def digest(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cold_build(fm, free_max: int, classical_max: int = 0) -> float:
    """Fill the program's per-order cumulant tables in ascending order and
    return the time of these first calls (the cold build)."""
    start = time.perf_counter()
    for p in range(1, free_max + 1):
        ones = (Fraction(1),) * p
        fm.free_cumulants_from_moments(fm.MomentSequence(ones))
        fm.moments_from_free_cumulants(fm.CumulantSequence(ones))
    for p in range(1, classical_max + 1):
        ones = (Fraction(1),) * p
        fm.classical_cumulants_from_moments(fm.MomentSequence(ones))
        fm.moments_from_classical_cumulants(fm.CumulantSequence(ones, fm.CLASSICAL))
    return time.perf_counter() - start


# ------------------------------------------------------------------- tracing


@dataclass
class Tracer:
    """In-memory spans (name, start, end, parent) and counters, recorded by
    the benchmark around its own calls into the program."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def busy(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Busy time of `name` minus the time its direct child spans cover."""
        total = 0.0
        mine = set()
        for idx, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                mine.add(idx)
                total += end - start
        for _, start, end, parent in self.spans:
            if parent in mine:
                total -= end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


# ---------------------------------------------------------------- the loop


@dataclass
class OpResult:
    index: int
    kind: str
    start: float
    seconds: float
    output: object = None
    failure: str | None = None  # WRONG, EXCEPTION or OVERRUN
    detail: str = ""
    note: str = ""  # a check's remark on an op that passed


def run_one(index: int, op: dict, call, cap_s: float) -> OpResult:
    """Time one closed-loop request under the wall-clock cap."""
    start = time.perf_counter()
    try:
        with cap(cap_s):
            output = call()
    except Overrun:
        return OpResult(index, op["kind"], start, time.perf_counter() - start,
                        failure=OVERRUN, detail=f"exceeded the {cap_s:g} s cap")
    except Exception as exc:  # an op must never stop the benchmark
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return OpResult(index, op["kind"], start, time.perf_counter() - start,
                        failure=EXCEPTION, detail=detail)
    return OpResult(index, op["kind"], start, time.perf_counter() - start, output)


def timed_loop(ops, call, seconds: float, min_ops: int, block: int, cap_s: float,
               hard_limit_s: float) -> tuple[list[OpResult], float, float]:
    """Run ops one after another until `seconds` have passed, at least
    `min_ops` ops are done and the last block of the mix is complete, so
    that every run holds the same shares of op kinds (never past
    `hard_limit_s`).  Returns the results and the start and end of the timed
    loop."""
    results: list[OpResult] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= hard_limit_s:
            break
        if elapsed >= seconds and len(results) >= min_ops and len(results) % block == 0:
            break
        j = i % len(ops)
        results.append(run_one(j, ops[j], lambda: call(j), cap_s))
        i += 1
    return results, start, time.perf_counter()


def apply_checks(results: list[OpResult], ops, prepared, check) -> None:
    """Check every completed op outside the timed region; an op index seen
    twice must give the same output as its first run.  A check that passes
    may return a remark, which is kept as the op's note."""
    first: dict[int, object] = {}
    for res in results:
        if res.failure is not None:
            continue
        if res.index in first:
            if res.output != first[res.index]:
                res.failure, res.detail = WRONG, "output differs from the first run of the same op"
            continue
        first[res.index] = res.output
        try:
            res.note = check(ops[res.index], prepared[res.index], res.output) or ""
        except CheckFailed as exc:
            res.failure, res.detail = WRONG, str(exc)
        except Exception as exc:
            res.failure = EXCEPTION
            res.detail = "check raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()


# --------------------------------------------------------------- statistics


def scaled_latencies(results: list[OpResult], speed) -> list[float]:
    """Per-op wall times, failed ops included, scaled to the reference
    speed of the interval each op ran in."""
    return [r.seconds / speed.factor(r.start, r.start + r.seconds) for r in results]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
