import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from freemoments.errors import SizeLimitError, ValidationError
from freemoments.noncrossing import (
    NCInterval,
    NCPartition,
    catalan,
    enumerate_nc,
    kreweras_complement,
    mobius_full,
    mobius_nc,
    mobius_nc_poset,
    refines,
)

from oracles import (
    catalan_recurrence,
    has_crossing,
    noncrossing_partitions,
    poset_mobius_all,
    set_partitions,
)


def blocks_of(p):
    return p.blocks


def singletons(n):
    """The bottom of NC(n): every element in its own block."""
    return NCPartition.from_blocks([[i] for i in range(1, n + 1)])


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_filter_oracle(n):
    ours = [p.blocks for p in enumerate_nc(n)]
    assert ours == noncrossing_partitions(n)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (6, 132)])
def test_enumeration_counts(n, count):
    assert len(enumerate_nc(n)) == count
    assert catalan(n) == catalan_recurrence(n)


def test_enumeration_sorted_and_canonical():
    parts = enumerate_nc(5)
    assert [p.blocks for p in parts] == sorted(p.blocks for p in parts)
    assert len({p.blocks for p in parts}) == len(parts)
    for p in parts:
        assert all(b == tuple(sorted(b)) for b in p.blocks)
        assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)


def test_enumeration_n3_explicit():
    assert [p.blocks for p in enumerate_nc(3)] == [
        ((1,), (2,), (3,)),
        ((1,), (2, 3)),
        ((1, 2), (3,)),
        ((1, 2, 3),),
        ((1, 3), (2,)),
    ]


def test_size_ceiling():
    with pytest.raises(SizeLimitError):
        enumerate_nc(15)
    with pytest.raises(ValidationError):
        enumerate_nc(0)


# ---------------------------------------------------------------- crossing test


def test_is_noncrossing_examples():
    assert NCPartition.from_blocks([(1, 3), (2,)]).n == 3
    assert NCPartition.from_blocks([(1, 4), (2, 3)]).n == 4
    with pytest.raises(ValidationError, match="crossing"):
        NCPartition.from_blocks([(1, 3), (2, 4)])
    with pytest.raises(ValidationError, match="twice"):
        NCPartition.from_blocks([(1, 2), (2, 3)])
    with pytest.raises(ValidationError, match="do not partition"):
        NCPartition.from_blocks([(1,), (3,)])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.data())
def test_is_noncrossing_matches_quartic_oracle(n, data):
    parts = set_partitions(n)
    blocks = data.draw(st.sampled_from(parts))
    if has_crossing(blocks):
        with pytest.raises(ValidationError, match="crossing"):
            NCPartition.from_blocks(blocks)
    else:
        assert NCPartition.from_blocks(blocks).n == n


def test_ncpartition_validation():
    with pytest.raises(ValidationError):
        NCPartition(4, ((1, 3), (2, 4)))
    with pytest.raises(ValidationError):
        NCPartition(3, ((1, 2),))
    with pytest.raises(ValidationError):
        NCPartition(2, ((2,), (1,)))  # not canonical order
    p = NCPartition.from_blocks([[3], [1, 2]])
    assert p.blocks == ((1, 2), (3,))
    assert p.n == 3


@pytest.mark.parametrize(
    "blocks", [[[]], [[1], []], [[1, "a"]], [["a"]], [1, 2], [[1, 10**18]]]
)
def test_malformed_blocks_rejected_before_sorting(blocks):
    with pytest.raises(ValidationError):
        NCPartition.from_blocks(blocks)
    with pytest.raises(ValidationError):
        NCPartition(1, tuple(blocks))


def test_rejecting_a_huge_element_allocates_little():
    # validation is O(elements), not O(max element)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            NCPartition.from_blocks([[1, 10**6]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- kreweras


def test_kreweras_examples():
    assert kreweras_complement(singletons(3)) == NCPartition.full(3)
    assert kreweras_complement(NCPartition.full(3)) == singletons(3)
    k = kreweras_complement(NCPartition.from_blocks([(1, 2), (3,)]))
    assert k.block_sizes() == (2, 1)
    assert k.blocks == ((1,), (2, 3))


def _interleave(p: NCPartition, k: NCPartition):
    # p on odd positions 2i-1, complement on even positions 2i
    blocks = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks += [tuple(2 * x for x in b) for b in k.blocks]
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_union_noncrossing_and_maximal(n):
    for p in enumerate_nc(n):
        k = kreweras_complement(p)
        assert p.num_blocks + k.num_blocks == n + 1
        assert not has_crossing(_interleave(p, k))
        # maximality: merging any two complement blocks creates a crossing
        # somewhere in the interleaved picture
        for i in range(k.num_blocks):
            for j in range(i + 1, k.num_blocks):
                merged = [sorted(b) for b in k.blocks]
                merged[i] = sorted(merged[i] + merged[j])
                del merged[j]
                raw = tuple(
                    sorted((tuple(b) for b in merged), key=lambda b: b[0])
                )
                interleaved = tuple(
                    sorted(
                        [tuple(2 * x - 1 for x in b) for b in p.blocks]
                        + [tuple(2 * x for x in b) for b in raw],
                        key=lambda b: b[0],
                    )
                )
                if not has_crossing(interleaved):
                    pytest.fail(f"complement of {p.blocks} not maximal")


@pytest.mark.parametrize("n", range(1, 8))
def test_kreweras_double_complement_preserves_block_sizes(n):
    # K(K(pi)) is pi rotated one step down: x -> x - 1, and 1 -> n
    for p in enumerate_nc(n):
        kk = kreweras_complement(kreweras_complement(p))
        rotated = [[(x - 2) % n + 1 for x in b] for b in p.blocks]
        assert kk == NCPartition.from_blocks(rotated, n)


def test_kreweras_large_extremes():
    n = 2000
    assert kreweras_complement(singletons(n)) == NCPartition.full(n)
    assert kreweras_complement(NCPartition.full(n)) == singletons(n)


# ---------------------------------------------------------------- mobius


def test_mobius_full_interval_values():
    for n, expected in [(1, 1), (2, -1), (3, 2), (4, -5), (5, 14)]:
        interval = NCInterval(singletons(n), NCPartition.full(n))
        assert mobius_nc(interval) == expected
        assert mobius_full(n) == expected


def test_mobius_point_interval():
    p = NCPartition.from_blocks([(1, 2), (3,)])
    assert mobius_nc(NCInterval(p, p)) == 1


def test_invalid_interval():
    lower = NCPartition.full(3)
    upper = singletons(3)
    with pytest.raises(ValidationError):
        NCInterval(lower, upper)
    with pytest.raises(ValidationError):
        NCInterval(singletons(2), singletons(3))


@pytest.mark.parametrize("n", range(1, 6))
def test_mobius_closed_form_matches_poset_oracle(n):
    partitions = enumerate_nc(n)
    oracle = poset_mobius_all([p.blocks for p in partitions])
    for x in partitions:
        for y in partitions:
            if refines(x, y):
                got = mobius_nc(NCInterval(x, y))
                assert got == oracle[(x.blocks, y.blocks)], (x.blocks, y.blocks)
                assert got == mobius_nc_poset(NCInterval(x, y))


@pytest.mark.parametrize("n", range(2, 8))
def test_mobius_sum_over_lattice_vanishes(n):
    bottom = singletons(n)
    top = NCPartition.full(n)
    total_from_bottom = sum(
        mobius_nc(NCInterval(bottom, p)) for p in enumerate_nc(n)
    )
    total_to_top = sum(mobius_nc(NCInterval(p, top)) for p in enumerate_nc(n))
    assert total_from_bottom == 0
    assert total_to_top == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_and_mobius_within_power_bound(n):
    parts = enumerate_nc(n)
    assert len(parts) <= 4**n
    top = NCPartition.full(n)
    assert all(abs(mobius_nc(NCInterval(p, top))) <= 4**n for p in parts)


# ---------------------------------------------------------------- refinement


def test_refines_basic():
    a = singletons(4)
    b = NCPartition.from_blocks([(1, 2), (3, 4)])
    c = NCPartition.full(4)
    assert refines(a, b) and refines(b, c) and refines(a, c)
    assert not refines(c, b)
    with pytest.raises(ValidationError):
        refines(singletons(2), singletons(3))
