import gc
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdeg.errors import TypeMismatch
from arcdeg.partitions import Partition, is_column_strip
from arcdeg.verify import all_partitions, subpartitions

parts_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=8)


def skew_column_counts(beta: Partition, gamma: Partition) -> dict[int, int]:
    """Reference: the number of boxes of the skew diagram beta/gamma in
    each column (1-based), for gamma contained in beta; columns without
    boxes are omitted."""
    counts: dict[int, int] = {}
    for i, b in enumerate(beta):
        for col in range(gamma.part_at(i) + 1, b + 1):
            counts[col] = counts.get(col, 0) + 1
    return counts


def recursive_all_partitions(max_weight: int) -> list[Partition]:
    """Reference: every partition of weight 0..max_weight, depth first
    with larger parts first, by recursion."""
    out = [Partition()]

    def rec(remaining: int, cap: int, acc: list[int]):
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            out.append(Partition(tuple(acc)))
            rec(remaining - p, p, acc)
            acc.pop()

    rec(max_weight, max_weight, [])
    return out


def recursive_subpartitions(beta: Partition) -> list[Partition]:
    """Reference: every partition contained in beta, in the same order,
    by recursion."""
    out: list[Partition] = []

    def rec(i: int, cap: int, acc: list[int]):
        out.append(Partition(tuple(acc)))
        if i >= len(beta):
            return
        for p in range(min(cap, beta[i]), 0, -1):
            acc.append(p)
            rec(i + 1, p, acc)
            acc.pop()

    rec(0, beta.max_part, [])
    return out


def test_partition_walk_matches_the_recursive_reference_in_order():
    for w in range(13):
        assert all_partitions(w) == recursive_all_partitions(w), w
    betas = recursive_all_partitions(10)
    assert len(betas) == 139
    for beta in betas:
        assert subpartitions(beta) == recursive_subpartitions(beta), beta


def test_partition_walk_takes_more_parts_than_the_recursion_limit():
    column = Partition((1,) * 1500)
    subs = subpartitions(column)
    assert len(subs) == 1501
    assert subs == [Partition((1,) * k) for k in range(1501)]


def test_partition_walk_leaves_no_cyclic_garbage():
    gc.disable()
    try:
        gc.collect()
        subpartitions(Partition((4, 3, 2, 1)))
        all_partitions(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weight_examples():
    assert Partition.of(4, 3, 3, 2, 1).weight() == 13
    assert Partition().weight() == 0
    assert Partition.of(5, 5, 4, 3, 3, 3, 2, 2, 1, 1).weight() == 29


def test_moment_examples():
    assert Partition.of(4, 3, 3, 2, 1).moment() == 19
    assert Partition().moment() == 0
    assert Partition.of(2, 1, 1, 1, 1).moment() == 10


def test_moment_is_the_weighted_sum_of_parts_up_to_weight_12():
    for p in all_partitions(12):
        assert p.moment() == sum(i * part for i, part in enumerate(p))


def test_contains_examples():
    assert Partition.of(4, 3, 3, 2, 1).contains(Partition.of(3, 2, 1, 1))
    assert not Partition.of(2, 2).contains(Partition.of(3))
    assert Partition.of(7).contains(Partition.of(7))


def test_skew_column_counts_examples():
    assert skew_column_counts(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)) == {3: 2, 2: 1, 1: 1}
    assert skew_column_counts(Partition.of(2, 1), Partition.of(1)) == {2: 1, 1: 1}
    assert skew_column_counts(Partition.of(5), Partition.of(5)) == {}


def test_is_column_strip_requires_containment():
    with pytest.raises(TypeMismatch):
        is_column_strip(Partition.of(2, 2), Partition.of(3))


def test_is_column_strip_examples():
    assert not is_column_strip(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1))
    assert is_column_strip(Partition.of(2, 1), Partition.of(1))
    assert is_column_strip(Partition.of(4), Partition.of(4))
    assert is_column_strip(Partition.of(3, 1), Partition.of(1))
    assert not is_column_strip(Partition.of(3, 2), Partition.of(1))


def test_is_column_strip_matches_column_counts_up_to_weight_12():
    pairs = 0
    for beta in all_partitions(12):
        for gamma in subpartitions(beta):
            expected = all(c <= 1 for c in skew_column_counts(beta, gamma).values())
            assert is_column_strip(beta, gamma) == expected, (beta, gamma)
            pairs += 1
    assert pairs == 8855


def test_normalization_and_text():
    assert tuple(Partition.of(0, 3, 1, 3)) == (3, 3, 1)
    assert tuple(Partition.from_text("4,3,3,2,1")) == (4, 3, 3, 2, 1)
    assert Partition.from_text("") == Partition()
    assert Partition.of(4, 3).to_text() == "4,3"
    assert Partition().to_text() == ""
    with pytest.raises(ValueError):
        Partition.of(-1)


def test_partition_parts_are_integers():
    for parts in ((True, 2), (2.5,), (3.0, 1), ("3",), (False,)):
        with pytest.raises(ValueError):
            Partition(parts)


def test_bad_parts_are_rejected_with_the_offending_part():
    for parts, shown in (((3, -1), "-1"), ((True, 2), "True"), ((2.5,), "2.5"), (("3",), "'3'")):
        with pytest.raises(ValueError, match=rf"^partition parts must be nonnegative integers, got {re.escape(shown)}$"):
            Partition(parts)
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
        Partition.from_text("3,x")


def test_partition_is_the_tuple_of_its_parts_from_every_constructor():
    walked = all_partitions(10)
    assert len(walked) == 139  # partitions of 0..10: 1 + 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22 + 30 + 42
    for p in walked:
        parts = tuple(p)
        built = [Partition(parts), Partition((0,) + parts[::-1]), Partition.of(*parts), Partition.from_text(p.to_text())]
        for q in built:
            assert type(q) is Partition
            assert q == parts and hash(q) == hash(parts)
    plain = [tuple(p) for p in walked]
    assert [tuple(p) for p in sorted(walked)] == sorted(plain)
    for p, x in zip(walked, plain):
        for q, y in zip(walked, plain):
            assert (p < q, p == q, p <= q) == (x < y, x == y, x <= y)
    assert len(set(walked) | set(plain)) == len(walked)


def test_walked_partitions_are_canonical_without_the_constructor():
    walked = all_partitions(12)
    assert len(walked) == 272  # partitions of 0..12
    for p in walked + [q for beta in walked for q in subpartitions(beta)]:
        assert type(p) is Partition and p == Partition(p)


@given(parts_lists)
def test_constructor_canonicalizes(parts):
    p = Partition(tuple(parts))
    assert list(p) == sorted((x for x in parts if x > 0), reverse=True)
    assert Partition.from_text(p.to_text()) == p


@given(parts_lists, parts_lists)
def test_weight_splits_over_skew_columns(a, b):
    p, q = Partition(tuple(a)), Partition(tuple(b))
    if p.contains(q):
        assert p.weight() == q.weight() + sum(skew_column_counts(p, q).values())


def test_moment_drops_when_two_ones_merge():
    # replacing 1 + 1 by a single 2 strictly lowers the moment
    for base in [(1, 1), (3, 1, 1), (2, 2, 1, 1, 1)]:
        p = Partition(base)
        ones = [x for x in base if x == 1]
        assert len(ones) >= 2
        merged = Partition(tuple(x for x in base if x != 1) + (2,) + (1,) * (len(ones) - 2))
        assert merged.moment() < p.moment()
        assert merged.weight() == p.weight()
