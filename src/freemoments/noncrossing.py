"""Non-crossing set partitions of {1, ..., n}.

Provides enumeration in canonical order, the refinement order, the Kreweras
complement, and the Mobius function of intervals in the non-crossing
partition lattice.  The Mobius value is computed in closed form by splitting
an interval into full sub-lattices; a brute-force poset recursion is exported
as an independent oracle for tests.

Block representation: a partition is a tuple of blocks, each block a strictly
increasing tuple of integers, blocks ordered by their least element.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import SizeLimitError, ValidationError

DEFAULT_MAX_N = 14
MAX_N_ENV_VAR = "FREEMOMENTS_MAX_N"

Blocks = tuple[tuple[int, ...], ...]


def catalan(n: int) -> int:
    """n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValidationError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def size_ceiling(max_n: int | None = None) -> int:
    """Resolve the enumeration ceiling: explicit argument, else environment
    override, else the package default."""
    if max_n is not None:
        return max_n
    env = os.environ.get(MAX_N_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(
                f"{MAX_N_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    return DEFAULT_MAX_N


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
    seen: set[int] = set()
    for block in blocks:
        for x in block:
            if x in seen:
                raise ValidationError(f"element {x} appears twice")
            seen.add(x)
    if seen != set(range(1, n + 1)):
        raise ValidationError(f"blocks do not partition 1..{n}: {sorted(seen)}")


def _blocks_noncrossing(blocks: Blocks, n: int) -> bool:
    # Walk 1..n keeping a stack of open blocks; a partition is non-crossing
    # exactly when blocks close in well-nested bracket order.
    owner = {}
    last = {}
    for idx, block in enumerate(blocks):
        for x in block:
            owner[x] = idx
        last[idx] = block[-1]
    stack: list[int] = []
    open_set: set[int] = set()
    closed: set[int] = set()
    for x in range(1, n + 1):
        b = owner[x]
        if b in closed:
            return False
        if b in open_set:
            if stack[-1] != b:
                return False
        else:
            stack.append(b)
            open_set.add(b)
        if last[b] == x:
            stack.pop()
            open_set.discard(b)
            closed.add(b)
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
        if not _blocks_noncrossing(self.blocks, self.n):
            raise ValidationError(f"partition has a crossing: {self.blocks}")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "NCPartition":
        canon = _parse_blocks(blocks)
        if n is None:
            n = max((b[-1] for b in canon), default=0)
        return cls(n, canon)

    @classmethod
    def discrete(cls, n: int) -> "NCPartition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> "NCPartition":
        return cls(n, (tuple(range(1, n + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        """Multiset of block sizes, sorted descending."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def block_index_of(self) -> dict[int, int]:
        return {x: i for i, b in enumerate(self.blocks) for x in b}


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """True iff ``blocks`` is a non-crossing partition of {1..max element}.

    Raises ValidationError when the input is not a set partition at all.
    """
    canon = _parse_blocks(blocks)
    n = max((b[-1] for b in canon), default=0)
    if n == 0:
        raise ValidationError("empty partition")
    _check_partition(canon, n)
    return _blocks_noncrossing(canon, n)


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
def _sorted_nc_blocks(n: int) -> tuple[Blocks, ...]:
    return tuple(sorted(iter_nc_blocks(n)))


def enumerate_nc(n: int, max_n: int | None = None) -> list[NCPartition]:
    """All non-crossing partitions of {1..n}, sorted lexicographically on the
    canonical block form.  Guarded by a size ceiling (argument, else the
    FREEMOMENTS_MAX_N environment variable, else 14)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    ceiling = size_ceiling(max_n)
    if n > ceiling:
        raise SizeLimitError(
            f"n={n} exceeds the enumeration ceiling {ceiling}; "
            f"pass max_n or set {MAX_N_ENV_VAR}"
        )
    out = []
    for blocks in _sorted_nc_blocks(n):
        p = NCPartition.__new__(NCPartition)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "blocks", blocks)
        out.append(p)
    return out


def refines(p: NCPartition, q: NCPartition) -> bool:
    """True iff every block of p is contained in a block of q."""
    if p.n != q.n:
        raise ValidationError("partitions live on different ground sets")
    owner = q.block_index_of()
    for block in p.blocks:
        idx = owner[block[0]]
        if any(owner[x] != idx for x in block[1:]):
            return False
    return True


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
    # i ~ j (i < j) in the complement iff {i+1..j} is a union of blocks,
    # i.e. the sizes of the blocks fully inside (i, j] sum to j - i.
    spans = [(b[0], b[-1], len(b)) for b in blocks]
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, n):
        for j in range(i + 1, n + 1):
            inside = sum(size for lo, hi, size in spans if lo > i and hi <= j)
            if inside == j - i:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return _canonicalize(groups.values())


def kreweras_complement(p: NCPartition) -> NCPartition:
    """Kreweras complement: the coarsest partition of the interleaved copies
    whose union with p stays non-crossing, pulled back to {1..n}."""
    return NCPartition(p.n, _kreweras_blocks(p.blocks, p.n))


def _restrict_relabel(p: NCPartition, window: tuple[int, ...]) -> NCPartition:
    # restriction of p to a subset, relabelled order-preservingly to {1..k}
    pos = {x: i + 1 for i, x in enumerate(window)}
    member = set(window)
    blocks = []
    for b in p.blocks:
        sub = tuple(pos[x] for x in b if x in member)
        if sub:
            blocks.append(sub)
    return NCPartition(len(window), _canonicalize(blocks))


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
    total = 1
    for window in interval.upper.blocks:
        sub = _restrict_relabel(interval.lower, window)
        comp = kreweras_complement(sub)
        for v in comp.blocks:
            total *= mobius_full(len(v))
    return total


def mobius_nc_poset(interval: NCInterval, max_n: int | None = None) -> int:
    """Brute-force Mobius value by poset recursion over NC(n).

    Exponential; intended as a cross-check oracle for mobius_nc.
    """
    n = interval.lower.n
    lattice = enumerate_nc(n, max_n=max_n)
    lower, upper = interval.lower, interval.upper
    between = [q for q in lattice if refines(lower, q) and refines(q, upper)]
    values: dict[Blocks, int] = {}

    def mu(q: NCPartition) -> int:
        if q.blocks in values:
            return values[q.blocks]
        acc = -sum(
            mu(r) for r in between if refines(r, q) and r.blocks != q.blocks
        )
        values[q.blocks] = acc
        return acc

    values[lower.blocks] = 1
    return mu(upper)
