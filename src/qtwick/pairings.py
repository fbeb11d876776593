"""Pair partitions of {1,...,2n} and their crossing/nesting statistics.

A pair partition (perfect matching) is stored canonically as pairs (w, z) with
w < z, listed in increasing order of w.  An index tuple in which every value
occurs exactly twice links to the pairing of its equal-value positions
(coeffs.normal_order builds it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeLimitError, ValidationError
from .floats import _check_int

# (2n-1)!! pairings: n = 7 means 135,135 of them, listed in 0.13-0.21 s and
# 50-69 MB; n = 8 would mean 2,027,025, listed in 0.9-1.3 s but at
# 0.56-0.85 GB, so memory holds the cap
MAX_ENUMERATION_PAIRS = 7

Pairs = tuple[tuple[int, int], ...]


def _pair(pair: object) -> tuple[int, int]:
    """A pair of two positions as integers, the smaller first."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValidationError(f"need a pair of two positions, got {pair!r}") from None
    a, b = _check_int("position", a), _check_int("position", b)
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PairPartition:
    """Perfect matching of {1,...,2n} in canonical (w, z) order."""

    pairs: Pairs

    def __post_init__(self) -> None:
        try:
            given = tuple(self.pairs)
        except TypeError:
            raise ValidationError(f"need a sequence of pairs, got {self.pairs!r}") from None
        canon = tuple(sorted(map(_pair, given)))
        object.__setattr__(self, "pairs", canon)
        flat = sorted(x for p in canon for x in p)
        if flat != list(range(1, 2 * len(canon) + 1)):
            raise ValidationError(
                f"pairs {self.pairs!r} do not partition 1..{2 * len(canon)}"
            )

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def block_of(self) -> dict[int, int]:
        """Map each position to the 1-based index of its pair."""
        out: dict[int, int] = {}
        for k, (w, z) in enumerate(self.pairs, start=1):
            out[w] = k
            out[z] = k
        return out

    def __str__(self) -> str:
        return "{" + ",".join(f"({w},{z})" for w, z in self.pairs) + "}"


def _parse_pairing(text: str) -> PairPartition:
    """A pairing written as w-z tokens, separated by commas or semicolons."""
    pairs = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        a, _, b = token.partition("-")
        if not a.isdecimal() or not b.isdecimal():
            raise ValidationError(f"bad pair token {token!r}; use w-z")
        pairs.append((int(a), int(b)))
    return PairPartition(tuple(pairs))


Quads = tuple[tuple[int, int, int, int], ...]


def cross_nest(partition: PairPartition) -> tuple[Quads, Quads]:
    """Crossings (w_i, w_j, z_i, z_j) and nestings (w_i, w_j, z_j, z_i).

    Every pair of pairs that is not disjoint is one or the other, recorded as
    a position 4-tuple in increasing order: for a crossing the first pair
    closes between the second pair's endpoints, for a nesting the second pair
    sits strictly inside the first.
    """
    pairs = partition.pairs
    crossings = []
    nestings = []
    for (w1, z1), (w2, z2) in itertools.combinations(pairs, 2):
        # pairs are sorted by opener, so w1 < w2 always
        if w2 < z1 < z2:
            crossings.append((w1, w2, z1, z2))
        elif z2 < z1:
            nestings.append((w1, w2, z2, z1))
    return tuple(crossings), tuple(nestings)


def cross_nest_counts(partition: PairPartition) -> tuple[int, int]:
    """(crossings, nestings) of a pair partition."""
    crossings, nestings = cross_nest(partition)
    return len(crossings), len(nestings)


def _placements(n: int, prefix, token, last) -> list:
    """Every pair partition of {1,...,2n} in lexicographic pair-list order,
    as (head, crossings, nestings, tails): a head is prefix and a token per
    pair for the first n // 2 pairs, and tails, shared by every head that
    leaves the same free points, lists their completions (suffix, crossings,
    nestings).  token(w, z) stands for a pair (w, z) and last(w, z) for the
    pair placed last, each made once.  Hard-capped at n <= MAX_ENUMERATION_PAIRS."""
    n = _check_int("n", n, 1)
    if n > MAX_ENUMERATION_PAIRS:
        raise SizeLimitError(
            f"refusing to enumerate (2n-1)!! pairings for n={n} > {MAX_ENUMERATION_PAIRS}"
        )
    size = 2 * n
    points = range(size + 1)
    tokens = [[token(w, z) for z in points] for w in points]
    lasts = [[last(w, z) for z in points] for w in points]

    def steps(free: tuple[int, ...]):
        # the new pair (a, b) = (free[0], free[k]) opens above every placed
        # pair, so every placed point above a is a closer: b - a - k of them
        # lie inside (a, b) and cross it, (size - b) - (m - 1 - k) lie above
        # b and nest it; neither count reads more than the free points
        a, m = free[0], len(free)
        for k in range(1, m):
            b = free[k]
            yield tokens[a][b], free[1:k] + free[k + 1:], b - a - k, size - b - (m - 1 - k)

    # the completions (suffix, crossings, nestings) of a free tuple depend on
    # that tuple alone, so each is built once and shared by every prefix
    # that leaves it
    memo: dict[tuple[int, ...], list] = {}

    def tails(free: tuple[int, ...]) -> list:
        done = memo.get(free)
        if done is None:
            if len(free) == 2:
                a, b = free
                done = [(lasts[a][b], b - a - 1, size - b)]
            else:
                done = [(tok + suffix, cross + c, nest + s)
                        for tok, rest, cross, nest in steps(free)
                        for suffix, c, s in tails(rest)]
            memo[free] = done
        return done

    # place the first n // 2 pairs (the heads) one step at a time; each
    # head's rows are its tails, one contiguous block of them
    heads = [(prefix, 0, 0, tuple(range(1, size + 1)))]
    for _ in range(n // 2):
        heads = [(head + tok, cross + c, nest + s, rest)
                 for head, cross, nest, free in heads
                 for tok, rest, c, s in steps(free)]
    out = [(head, cross, nest, tails(free)) for head, cross, nest, free in heads]
    # tails refers to itself, so the memo would live until the next cyclic
    # collection; clearing it frees the tails no head holds now
    memo.clear()
    return out


def enumerate_counted_pairings(n: int) -> list[tuple[Pairs, int, int]]:
    """(pairs, crossings, nestings) of all (2n-1)!! pair partitions of
    {1,...,2n} in lexicographic order, counted while the pairs are placed:
    the first n // 2 one at a time, the rest from completions built once per
    set of free points left and shared by every prefix that leaves it;
    hard-capped at n <= MAX_ENUMERATION_PAIRS."""
    def pair(w: int, z: int) -> Pairs:
        return ((w, z),)

    return [(head + suffix, cross + c, nest + s)
            for head, cross, nest, tails in _placements(n, (), pair, pair)
            for suffix, c, s in tails]


def enumerate_pair_partitions(n: int) -> list[PairPartition]:
    """All (2n-1)!! pair partitions of {1,...,2n}; hard-capped at
    n <= MAX_ENUMERATION_PAIRS."""
    return [PairPartition(pairs) for pairs, _, _ in enumerate_counted_pairings(n)]
