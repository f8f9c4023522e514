import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdeg.errors import TypeMismatch
from arcdeg.partitions import Partition, is_column_strip, skew_column_counts

parts_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=8)


def test_weight_examples():
    assert Partition.of(4, 3, 3, 2, 1).weight() == 13
    assert Partition().weight() == 0
    assert Partition.of(5, 5, 4, 3, 3, 3, 2, 2, 1, 1).weight() == 29


def test_moment_examples():
    assert Partition.of(4, 3, 3, 2, 1).moment() == 19
    assert Partition().moment() == 0
    assert Partition.of(2, 1, 1, 1, 1).moment() == 10


def test_contains_examples():
    assert Partition.of(4, 3, 3, 2, 1).contains(Partition.of(3, 2, 1, 1))
    assert not Partition.of(2, 2).contains(Partition.of(3))
    assert Partition.of(7).contains(Partition.of(7))


def test_skew_column_counts_examples():
    assert skew_column_counts(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)) == {3: 2, 2: 1, 1: 1}
    assert skew_column_counts(Partition.of(2, 1), Partition.of(1)) == {2: 1, 1: 1}
    assert skew_column_counts(Partition.of(5), Partition.of(5)) == {}


def test_skew_column_counts_requires_containment():
    with pytest.raises(TypeMismatch):
        skew_column_counts(Partition.of(2, 2), Partition.of(3))


def test_is_column_strip_examples():
    assert not is_column_strip(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1))
    assert is_column_strip(Partition.of(2, 1), Partition.of(1))
    assert is_column_strip(Partition.of(4), Partition.of(4))


def test_normalization_and_text():
    assert Partition.of(0, 3, 1, 3).parts == (3, 3, 1)
    assert Partition.from_text("4,3,3,2,1").parts == (4, 3, 3, 2, 1)
    assert Partition.from_text("") == Partition()
    assert Partition.of(4, 3).to_text() == "4,3"
    assert Partition().to_text() == ""
    with pytest.raises(ValueError):
        Partition.of(-1)


def test_partition_parts_are_integers():
    for parts in ((True, 2), (2.5,), (3.0, 1), ("3",), (False,)):
        with pytest.raises(ValueError):
            Partition(parts)


@given(parts_lists)
def test_constructor_canonicalizes(parts):
    p = Partition(tuple(parts))
    assert list(p.parts) == sorted((x for x in parts if x > 0), reverse=True)
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
