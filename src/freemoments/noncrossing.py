"""Non-crossing set partitions of {1, ..., n}.

Provides enumeration in canonical order, the refinement order, the Kreweras
complement, and the Mobius function of intervals in the non-crossing
partition lattice.  The Mobius value is computed in closed form by splitting
an interval into full sub-lattices; a brute-force sweep of the defining
relation over a linear extension of the interval is exported as an
independent oracle for tests.

Block representation: a partition is a tuple of blocks, each block a strictly
increasing tuple of integers, blocks ordered by their least element.  Every
question of which block holds an element goes through one derived encoding,
the label tuple: ``labels[x - 1]`` is the least element of the block holding
x.  It is computed once per partition and cached on it, and enumerate_nc
hands out the same partition objects for every call at one order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import SizeLimitError, ValidationError

MAX_N = 14  # enumeration ceiling: NC(14) has 2674440 partitions

Blocks = tuple[tuple[int, ...], ...]


def catalan(n: int) -> int:
    """n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValidationError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _canonicalize(blocks: Iterable[Iterable[int]]) -> Blocks:
    return tuple(
        sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    )


def _parse_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    """Canonical form of caller-supplied blocks.  Empty blocks and non-int
    elements are rejected first, since sorting cannot order them."""
    out = []
    for block in blocks:
        try:
            block = tuple(block)
        except TypeError:
            raise ValidationError(f"block {block!r} is not a sequence") from None
        if not block:
            raise ValidationError("empty block in partition")
        for x in block:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValidationError(f"block element {x!r} is not an int")
        out.append(block)
    return _canonicalize(out)


def _check_partition(blocks: Blocks, n: int) -> None:
    # distinct ints, n of them, from 1 to n: exactly {1..n}, checked in
    # O(elements) so a huge element costs nothing to reject
    seen: set[int] = set()
    for block in blocks:
        for x in block:
            if x in seen:
                raise ValidationError(f"element {x} appears twice")
            seen.add(x)
    if len(seen) != n or min(seen) != 1 or max(seen) != n:
        raise ValidationError(f"blocks do not partition 1..{n}: {sorted(seen)}")


def _labels(blocks: Blocks, n: int) -> tuple[int, ...]:
    out = [0] * n
    for block in blocks:
        for x in block:
            out[x - 1] = block[0]
    return tuple(out)


def _labels_noncrossing(labels: tuple[int, ...]) -> bool:
    # Walk 1..n keeping a stack of open blocks, named by their labels; a
    # partition is non-crossing exactly when blocks close in well-nested
    # bracket order.
    last = {label: x for x, label in enumerate(labels, start=1)}
    stack: list[int] = []
    for x, label in enumerate(labels, start=1):
        if label == x:
            stack.append(label)
        elif stack[-1] != label:
            return False
        if last[label] == x:
            stack.pop()
    return True


@dataclass(frozen=True)
class NCPartition:
    """A non-crossing partition of {1..n} in canonical block order."""

    n: int
    blocks: Blocks

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("partition ground set must be nonempty")
        if self.blocks != _parse_blocks(self.blocks):
            raise ValidationError("blocks not in canonical order")
        _check_partition(self.blocks, self.n)
        if not _labels_noncrossing(self.labels):
            raise ValidationError(f"partition has a crossing: {self.blocks}")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "NCPartition":
        canon = _parse_blocks(blocks)
        if n is None:
            n = max((b[-1] for b in canon), default=0)
        return cls(n, canon)

    @classmethod
    def full(cls, n: int) -> "NCPartition":
        return cls(n, (tuple(range(1, n + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        """Multiset of block sizes, sorted descending."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """labels[x - 1] is the least element of the block holding x."""
        return _labels(self.blocks, self.n)


def _shift(blocks: Blocks, offset: int) -> Blocks:
    return tuple(tuple(x + offset for x in b) for b in blocks)


def iter_nc_blocks(n: int) -> Iterator[Blocks]:
    """Yield the raw block tuples of all non-crossing partitions of {1..n}.

    Built by choosing the block of 1 and filling the gaps between its
    consecutive elements independently, so every partition appears exactly
    once.  Order of emission is not specified; enumerate_nc sorts.
    """
    if n == 0:
        yield ()
        return

    def rec(prev: int, first_block: tuple[int, ...], middle: Blocks) -> Iterator[Blocks]:
        # close the block of 1 here; the remainder {prev+1..n} is free
        for tail in iter_nc_blocks(n - prev):
            yield (first_block,) + middle + _shift(tail, prev)
        # or extend the block of 1 with some q > prev
        for q in range(prev + 1, n + 1):
            for gap in iter_nc_blocks(q - 1 - prev):
                yield from rec(q, first_block + (q,), middle + _shift(gap, prev))

    yield from rec(1, (1,), ())


@lru_cache(maxsize=16)
def _lattice(n: int) -> tuple[NCPartition, ...]:
    # the objects themselves are cached, so their labels are computed once
    # per partition per order, not once per call
    out = []
    for blocks in sorted(iter_nc_blocks(n)):
        p = NCPartition.__new__(NCPartition)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "blocks", blocks)
        out.append(p)
    return tuple(out)


def enumerate_nc(n: int) -> list[NCPartition]:
    """All non-crossing partitions of {1..n}, sorted lexicographically on the
    canonical block form.  Guarded by the size ceiling MAX_N."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > MAX_N:
        raise SizeLimitError(f"n={n} exceeds the enumeration ceiling {MAX_N}")
    return list(_lattice(n))


def refines(p: NCPartition, q: NCPartition) -> bool:
    """True iff every block of p is contained in a block of q."""
    if p.n != q.n:
        raise ValidationError("partitions live on different ground sets")
    # x and the least element of its p-block must share a q-block
    owner = q.labels
    return all(owner[a - 1] == owner[i] for i, a in enumerate(p.labels))


@dataclass(frozen=True)
class NCInterval:
    """An interval [lower, upper] in the refinement order of NC(n)."""

    lower: NCPartition
    upper: NCPartition

    def __post_init__(self) -> None:
        if self.lower.n != self.upper.n:
            raise ValidationError("interval endpoints on different ground sets")
        if not refines(self.lower, self.upper):
            raise ValidationError("invalid interval: lower does not refine upper")


def _kreweras_blocks(blocks: Blocks, n: int) -> Blocks:
    # The cycles of pi^-1 gamma with gamma = (1 2 ... n), where pi sends each
    # element to the next one of its block (Nica-Speicher, Lecture 18).
    # Started at its least element, each cycle comes out increasing.
    prev = [0] * (n + 1)
    for block in blocks:
        for i, x in enumerate(block):
            prev[x] = block[i - 1]
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = prev[x % n + 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def kreweras_complement(p: NCPartition) -> NCPartition:
    """Kreweras complement: the coarsest partition of the interleaved copies
    whose union with p stays non-crossing, pulled back to {1..n}."""
    return NCPartition(p.n, _kreweras_blocks(p.blocks, p.n))


def mobius_full(k: int) -> int:
    """Mobius value of the full interval [discrete, one-block] in NC(k)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return (-1) ** (k - 1) * catalan(k - 1)


def mobius_nc(interval: NCInterval) -> int:
    """Mobius function of an NC(n) interval, via the canonical factorization:
    restrict the lower partition to each block of the upper one, and split
    each restricted piece into full sub-lattices indexed by the blocks of its
    Kreweras complement."""
    lower, upper = interval.lower, interval.upper
    # every block of lower lies in one window (block) of upper; number each
    # window 1..k and file the lower blocks under their window's label
    rank = [0] * (lower.n + 1)
    for window in upper.blocks:
        for i, x in enumerate(window, start=1):
            rank[x] = i
    pieces: dict[int, list[tuple[int, ...]]] = {w[0]: [] for w in upper.blocks}
    for block in lower.blocks:
        pieces[upper.labels[block[0] - 1]].append(tuple(rank[x] for x in block))
    total = 1
    for window in upper.blocks:
        for v in _kreweras_blocks(tuple(pieces[window[0]]), len(window)):
            total *= mobius_full(len(v))
    return total


def mobius_nc_poset(interval: NCInterval) -> int:
    """Brute-force Mobius value from the defining relation
    mu(lower, q) = -sum of mu(lower, r) over lower <= r < q, over NC(n).

    Uses only enumeration and refinement.  Exponential; intended as a
    cross-check oracle for mobius_nc.
    """
    lower, upper = interval.lower, interval.upper
    between = [
        q for q in enumerate_nc(lower.n) if refines(lower, q) and refines(q, upper)
    ]
    # a linear extension, finer first: lower is first, upper last, and every
    # r < q comes before q; partitions with as many blocks as q never refine it
    between.sort(key=lambda q: -q.num_blocks)
    values: list[int] = []
    for q in between:
        # zip stops at q: it pairs each partition before q with its value
        below = (m for r, m in zip(between, values) if refines(r, q))
        values.append(-sum(below) if values else 1)
    return values[-1]
