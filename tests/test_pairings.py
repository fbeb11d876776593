import itertools

import pytest

from qtwick import (
    PairPartition,
    SizeLimitError,
    cross_nest,
    cross_nest_counts,
    enumerate_counted_pairings,
    enumerate_pair_partitions,
)

from _brute import chord_stats, pairings_rgs

DOUBLE_FACTORIALS = [1, 3, 15, 105, 945, 10395]


@pytest.mark.parametrize("n, count", list(enumerate(DOUBLE_FACTORIALS, start=1)))
def test_census(n, count):
    assert len(enumerate_pair_partitions(n)) == count


def test_enumeration_matches_rgs_filter():
    for n in range(1, 5):
        ours = {p.pairs for p in enumerate_pair_partitions(n)}
        brute = {tuple(sorted(p)) for p in pairings_rgs(n)}
        assert ours == brute


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(1, 5):
        listed = [p.pairs for p in enumerate_pair_partitions(n)]
        assert listed == sorted(set(listed))


def test_small_enumerations_explicit():
    assert [p.pairs for p in enumerate_pair_partitions(1)] == [((1, 2),)]
    assert [p.pairs for p in enumerate_pair_partitions(2)] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_size_cap():
    with pytest.raises(SizeLimitError):
        enumerate_pair_partitions(9)
    with pytest.raises(ValueError):
        enumerate_pair_partitions(0)


def test_pair_partition_canonicalizes():
    p = PairPartition(((3, 4), (2, 1)))
    assert p.pairs == ((1, 2), (3, 4))
    assert p.n == 2
    assert p.size == 4
    assert str(p) == "{(1,2),(3,4)}"
    assert p.block_of() == {1: 1, 2: 1, 3: 2, 4: 2}


def test_pair_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        PairPartition(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PairPartition(((1, 2), (4, 5)))
    with pytest.raises(ValueError):
        PairPartition(((1, 1),))


@pytest.mark.parametrize(
    "pairs, expected",
    [
        (((1, 4), (2, 5), (3, 6)), (3, 0)),
        (((1, 6), (2, 5), (3, 4)), (0, 3)),
        (((1, 4), (2, 6), (3, 5)), (2, 1)),
    ],
)
def test_counts_three_pair_examples(pairs, expected):
    assert cross_nest_counts(PairPartition(pairs)) == expected


def test_report_positions_are_increasing_tuples():
    p = PairPartition(((1, 4), (2, 6), (3, 5)))
    crossings, nestings = cross_nest(p)
    assert len(crossings) == 2 and len(nestings) == 1
    for quad in crossings + nestings:
        assert list(quad) == sorted(quad)
    assert (1, 2, 4, 6) in crossings
    assert (2, 3, 5, 6) in nestings


def test_counts_agree_with_interval_oracle():
    for n in range(1, 6):
        for p in enumerate_pair_partitions(n):
            assert cross_nest_counts(p) == chord_stats(p.pairs)


def test_counted_enumeration_agrees_with_oracle():
    for n in range(1, 7):
        counted = enumerate_counted_pairings(n)
        assert [pairs for pairs, _, _ in counted] == [p.pairs for p in enumerate_pair_partitions(n)]
        for pairs, cross, nest in counted:
            assert (cross, nest) == chord_stats(pairs)
    with pytest.raises(SizeLimitError):
        enumerate_counted_pairings(9)
    with pytest.raises(ValueError):
        enumerate_counted_pairings(0)


def test_cross_nest_disjoint_partition_of_pairs_of_blocks():
    for n in range(1, 6):
        for p in enumerate_pair_partitions(n):
            crossings, nestings = cross_nest(p)
            assert (len(crossings), len(nestings)) == cross_nest_counts(p)
            disjoint = 0
            for a, b in itertools.combinations(sorted(p.pairs), 2):
                inside = sum(1 for x in b if a[0] < x < a[1])
                disjoint += inside == 0
            assert len(crossings) + len(nestings) + disjoint == n * (n - 1) // 2


def test_extreme_counts_unique_at_n_three():
    counts = [cross_nest_counts(p) for p in enumerate_pair_partitions(3)]
    assert counts.count((3, 0)) == 1
    assert counts.count((0, 3)) == 1
    assert counts.count((2, 1)) >= 1
