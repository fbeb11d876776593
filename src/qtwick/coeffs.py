"""Commutation coefficient tables, the two-point sampler, and normal ordering.

A table stores one base value mu(i, j) per index pair i < j together with a
positive scale t.  Every other coefficient mu_{e,e'}(i, j) over the letters
{1, *} follows from three rules: swapping the two slots inverts the value,
conjugating both letters inverts the value, and the (*, 1) entry is t times
the (*, *) entry for i < j.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonPairClassError, SizeLimitError, ValidationError
from .pairings import PairPartition, cross_nest, cross_nest_counts
from .wickpoly import LETTERS, QTPolynomial, check_eps

# a whole sampled table of 4096 sites holds 8.4M pairs (67 MB packed) and
# samples in 0.11-0.14 s; it admits the largest lambda run (3162 sites, 2
# pairs).  A sampled_table draws whole on any read but a first single read,
# which draws only the pairs it reads, at a cost that does not grow with n;
# the cap still bounds its n
MAX_TABLE_SITES = 4096
# the coeffs artifact lists one row per pair: 1024 sites are 523776 rows.
# In a fresh process, csv (5 MB) takes 0.36-0.42 s to write or --check and
# peaks at 54-59 MB, text (8 MB) 0.39-0.46 s at 58 MB, and json (26 MB)
# 0.50-0.54 s to write or --check at 132 and 181 MB
MAX_LISTED_SITES = 1024

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# pairs drawn per step of sample_packed
_SAMPLE_CHUNK = 1 << 16


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalizer of the splitmix64 generator, applied in place to a uint64
    array; numpy's uint64 arithmetic wraps mod 2^64 as the generator needs."""
    x ^= x >> 30
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> 27
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> 31
    return x


def _derive_seeds(master: int, ranks: np.ndarray) -> np.ndarray:
    """derive_seed(master, k) for each k of a uint64 array of ranks, computed
    in place: every step writes into `ranks`, as a fresh array per step
    would cost a page fault per page at the sampler's chunk size."""
    ranks *= np.uint64(_GAMMA)
    ranks += np.uint64((master + _GAMMA) & _MASK64)
    return _splitmix64(ranks)


def derive_seed(master: int, k: int) -> int:
    """Seed of sub-task k: splitmix64 applied to master + (k+1) steps of the
    golden-ratio increment.  Stable across versions and platforms."""
    return int(_derive_seeds(master, np.array([k & _MASK64], dtype=np.uint64))[0])


def _pair_rank(i: int, j: int) -> int:
    """Rank of the pair (i, j), i < j, in an ordering independent of any cutoff:
    pairs are ranked by j first, then i."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def _pair_count(n: int) -> int:
    """Number of pairs i < j <= n, which is also the packed length of n sites."""
    return n * (n - 1) // 2 if n > 1 else 0


def _check_scale(t: float) -> float:
    if not math.isfinite(t):
        raise ValidationError(f"need a finite t, got t={t}")
    if t <= 0:
        raise ValidationError("need t > 0")
    return float(t)


def _two_point(q: float, t: float) -> float:
    """P(+1) of the two-point law with mean q/t, after checking q and t."""
    if not math.isfinite(q):
        raise ValidationError(f"need a finite q, got q={q}")
    _check_scale(t)
    if abs(q) > t:
        raise ValidationError(f"two-point law needs |q| <= t, got q={q}, t={t}")
    return 0.5 * (1.0 + q / t)


def _table_law(n: int, q: float, t: float) -> float:
    """P(+1) of a sampled n-site table, after the checks sample_packed makes:
    q and t first, then n.  sampled_table makes them before it draws
    anything, so that it refuses what sampling the whole table would."""
    p_plus = _two_point(q, t)
    if n < 1:
        raise ValidationError("need n >= 1")
    if n > MAX_TABLE_SITES:
        raise SizeLimitError(f"{n} sites exceed the {MAX_TABLE_SITES}-site table cap")
    return p_plus


def _draw(ranks: np.ndarray, seed: int, p_plus: float) -> np.ndarray:
    """Base values of the pairs of a uint64 array of ranks, which it
    overwrites: the pair of rank k is +1 when the top 53 bits of
    derive_seed(seed, k), as a uniform on [0, 1), fall below p_plus, and -1
    otherwise."""
    bits = _derive_seeds(seed, ranks)
    bits >>= 11
    u = bits.astype(np.float64)
    u *= 2.0**-53
    return np.where(u < p_plus, 1.0, -1.0)


def sample_ranks(ranks: Sequence[int] | np.ndarray, q: float, t: float, seed: int) -> np.ndarray:
    """Draw the base coefficients of the pairs of the given ranks, in the
    order given: the same values sample_packed draws at those ranks, at a
    cost that does not grow with the size of the table."""
    return _draw(np.array(ranks, dtype=np.uint64), seed, _two_point(q, t))


def sample_packed(n: int, q: float, t: float, seed: int) -> np.ndarray:
    """Draw the base coefficient for every pair i < j <= n, in pair-rank order.

    Each value is +1 or -1 with P(+1) = (1 + q/t)/2, so the mean is q/t and
    the second moment is exactly 1.  The pair of rank k draws the top 53 bits
    of derive_seed(seed, k) as a uniform on [0, 1), so every draw depends on
    its rank alone: the sample for a smaller n is a prefix of the sample for
    a larger one, and sample_ranks draws any subset with the same bits.
    """
    p_plus = _table_law(n, q, t)
    count = _pair_count(n)
    out = np.empty(count)
    # in chunks, so that the bits and uniforms of the whole table are never
    # alive.  `chunk` holds each chunk's values until the next chunk is drawn:
    # the allocator then reuses the freed temporaries of a chunk instead of
    # returning them to the system and faulting them back in (at 4096 sites,
    # 0.22 s against 0.11-0.13 s on a 2-core Xeon host)
    for start in range(0, count, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, count)
        chunk = _draw(np.arange(start, stop, dtype=np.uint64), seed, p_plus)
        out[start:stop] = chunk
    return out


class PackedBase(Mapping):
    """Read-only mapping {(i, j): base value} over values packed in pair-rank
    order; it iterates in that order, j first, then i."""

    def __init__(self, packed: np.ndarray):
        self.packed = packed

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        rank = _pair_rank(i, j)
        if 0 < i < j and rank < self.packed.size:
            return self.packed.item(rank)
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        pairs = ((i, j) for j in itertools.count(2) for i in range(1, j))
        return itertools.islice(pairs, self.packed.size)

    def __len__(self) -> int:
        return self.packed.size


def sample_base(n: int, q: float, t: float, seed: int) -> PackedBase:
    """sample_packed as a read-only mapping {(i, j): value}."""
    return PackedBase(sample_packed(n, q, t, seed))


def _pack(base: Mapping[tuple[int, int], float]) -> np.ndarray:
    """Base values of a hand-built table in pair-rank order, 0.0 for a pair
    the table leaves out."""
    for (i, j), v in base.items():
        if not (0 < i < j):
            raise ValidationError(f"base key ({i},{j}) must satisfy 0 < i < j")
        if v == 0:
            raise ValidationError(f"base value for ({i},{j}) must be nonzero")
    packed = np.zeros(max((_pair_rank(i, j) + 1 for i, j in base), default=0))
    for (i, j), v in base.items():
        packed[_pair_rank(i, j)] = v
    return packed


def _coefficient(
    left: str, right: str, m: float | np.ndarray, t: float, ordered: bool
) -> float | np.ndarray:
    """mu_{left,right}(i, j) from the base value m = mu(min, max) of the pair,
    where ordered tells whether i < j; m may be a float or an array."""
    if left != right:
        return t * m if left == "*" else 1.0 / (t * m)
    return m if (left == "*") == ordered else 1.0 / m


class CoefficientTable:
    """Lazy family of commutation coefficients over base values and a scale t.

    The base values live in one float64 array indexed by pair rank, so the
    table restricted to n sites is the prefix of length n(n-1)/2.  `base` is
    either a mapping {(i, j): value}, which may leave pairs out, or a
    sequence of nonzero values in pair-rank order.  A float64 array that owns
    its data is taken over without a copy and made read-only.
    """

    def __init__(self, base: Mapping[tuple[int, int], float] | Sequence[float], t: float):
        self.t = _check_scale(t)
        if isinstance(base, Mapping):
            packed = _pack(base)
            gaps = np.flatnonzero(packed == 0.0)
            covered = int(gaps[0]) if gaps.size else packed.size
        else:
            owned = isinstance(base, np.ndarray) and base.dtype == np.float64 and base.base is None
            packed = base if owned else np.array(base, dtype=np.float64)
            if packed.ndim != 1:
                raise ValidationError("packed base values must form a 1-d array")
            if not packed.all():
                raise ValidationError("packed base values must be nonzero")
            covered = packed.size
        if not np.isfinite(packed).all():
            raise ValidationError("base values must be finite")
        packed.flags.writeable = False
        self._packed = packed
        # pairs of rank below this all have a base value; ranks are j-major,
        # so the table covers n sites exactly when n(n-1)/2 pairs fit below it
        self._covered = covered
        # pairs of rank below this are stored, with 0.0 for a pair left out
        self._size = packed.size

    @property
    def max_index(self) -> int:
        """Largest j of any pair (i, j) with a base value; 1 for an empty table."""
        if not self._size:
            return 1
        return (1 + math.isqrt(8 * self._size - 7)) // 2 + 1

    def covers(self, n: int) -> bool:
        """True when every pair i < j <= n has a base value."""
        return _pair_count(n) <= self._covered

    def _check_covers(self, n: int) -> None:
        if not self.covers(n):
            raise ValidationError(f"table does not cover all pairs up to {n}")

    def packed(self, n: int) -> np.ndarray:
        """Read-only base values of every pair i < j <= n, in pair-rank order."""
        self._check_covers(n)
        return self._packed[:_pair_count(n)]

    def _read(self, ranks: int | Sequence[int] | np.ndarray) -> float | np.ndarray:
        """Base value, as a Python float, of the pair of one rank below
        _size, or the base values of an array of such ranks; 0.0 for a pair
        the table leaves out.  Every read of fewer than all pairs goes
        through here."""
        if isinstance(ranks, (int, np.integer)):
            return self._packed.item(ranks)
        return self._packed[ranks]

    def base_value(self, i: int, j: int) -> float:
        """Base value mu(i, j) for 0 < i < j."""
        if 0 < i < j and (rank := _pair_rank(i, j)) < self._size:
            m = self._read(rank)
            if m:
                return m
        raise ValidationError(f"table has no base value for pair ({i},{j})")

    def lookup(self, left: str, right: str, i: int, j: int) -> float:
        """Coefficient mu_{left,right}(i, j) for i != j."""
        if left not in LETTERS or right not in LETTERS:
            raise ValueError(f"letters must be '1' or '*', got ({left!r},{right!r})")
        if i == j:
            raise ValueError("coefficients are only defined for distinct indices")
        m = self.base_value(i, j) if i < j else self.base_value(j, i)
        return _coefficient(left, right, m, self.t, i < j)

    def base_matrix(self, n: int) -> np.ndarray:
        """(n, n) array with entry [i-1, j-1] = base(i, j) for i < j, zeros elsewhere."""
        values = self.packed(n)
        out = np.zeros((n, n))
        # the strict lower triangle of out.T, row by row, is the pair-rank order
        out.T[np.tri(n, n, -1, dtype=bool)] = values
        return out


class _SampledTable(CoefficientTable):
    """sampled_table's table.  Its first read draws only the distinct ranks
    it asks for, unless it is a bulk read (packed, base_matrix); any later
    read draws the whole table, so that reading every pair one at a time
    costs about one whole draw."""

    def __init__(self, n: int, q: float, t: float, seed: int):
        _table_law(n, q, t)
        self.t = float(t)
        self._law = (n, q, t, seed)
        self._packed = None
        self._covered = self._size = _pair_count(n)
        self._read_ranks = False

    def packed(self, n: int) -> np.ndarray:
        if self._packed is None and self.covers(n):
            self._packed = sample_packed(*self._law)
            self._packed.flags.writeable = False
        return super().packed(n)

    def _read(self, ranks: int | Sequence[int] | np.ndarray) -> float | np.ndarray:
        if self._packed is None:
            if not self._read_ranks:
                self._read_ranks = True
                _, q, t, seed = self._law
                distinct, read = np.unique(ranks, return_inverse=True)
                values = sample_ranks(distinct, q, t, seed)[read]
                return values.item() if isinstance(ranks, (int, np.integer)) else values
            self.packed(self._law[0])
        return super()._read(ranks)


def sampled_table(n: int, q: float, t: float, seed: int) -> CoefficientTable:
    """The table of sample_packed(n, q, t, seed), refused as that would be,
    drawn as it is read (see _SampledTable) with the same bits."""
    return _SampledTable(n, q, t, seed)


@dataclass(frozen=True)
class NormalOrderResult:
    """Outcome of ordering a pair-class word into adjacent (opener, closer) blocks."""

    beta: float
    pairing: PairPartition
    pattern: str  # letters reordered pairwise: opener, closer, opener, closer, ...


def _closed_form_factors(pairing: PairPartition) -> list[tuple[int, int]]:
    """Positions (x, y) of the coefficients the reordering incurs, one factor
    lookup(eps[x], eps[y], value[x], value[y]) each, in product order; x is
    always in the pair that opens first."""
    crossings, nestings = cross_nest(pairing)
    # first pair's closer moves past the second pair's opener
    factors = [(c, b) for _, b, c, _ in crossings]
    for _, b, c, d in nestings:
        # outer closer moves past the inner closer, then the inner opener
        factors += [(d, c), (d, b)]
    return factors


def _beta_closed_form(
    values: Sequence[int], eps: str, pairing: PairPartition, table: CoefficientTable
) -> float:
    """Product over crossings and nestings of the coefficients the reordering incurs."""
    beta = 1.0
    for x, y in _closed_form_factors(pairing):
        beta *= table.lookup(eps[x - 1], eps[y - 1], values[x - 1], values[y - 1])
    return beta


def normal_order(
    values: Sequence[int], eps: str, table: CoefficientTable
) -> NormalOrderResult:
    """Reorder a word whose class is a pairing into adjacent pairs, collecting
    one commutation coefficient per transposition.

    The positions holding equal values form the pairing, and the product of
    the coefficients is the closed form indexed by its crossings and
    nestings; tests/_brute.py keeps the transposition walk it equals.
    """
    values = tuple(values)
    check_eps(eps)
    if len(values) != len(eps):
        raise ValueError(f"{len(values)} values but pattern of length {len(eps)}")
    if not values:
        raise ValueError("the empty word has no pairing")
    where: dict[int, list[int]] = {}
    for pos, v in enumerate(values, start=1):
        where.setdefault(v, []).append(pos)
    if any(len(block) != 2 for block in where.values()):
        raise NonPairClassError(f"tuple {values!r} is not a perfect pairing of its positions")
    pairing = PairPartition(tuple(map(tuple, where.values())))
    beta = _beta_closed_form(values, eps, pairing, table)
    pattern = "".join(eps[w - 1] + eps[z - 1] for w, z in pairing.pairs)
    return NormalOrderResult(beta=beta, pairing=pairing, pattern=pattern)


def pair_pattern_is_default(pairing: PairPartition, eps: str) -> bool:
    """True when every pair opens with '1' and closes with '*'."""
    check_eps(eps)
    return all(eps[w - 1] == "1" and eps[z - 1] == "*" for w, z in pairing.pairs)


def pair_limit_monomial(pairing: PairPartition, eps: str) -> QTPolynomial:
    """Limiting monomial q^cross * t^nest of a pairing class under the default
    covariance; zero unless every pair has the ('1','*') pattern."""
    check_eps(eps)
    if len(eps) != pairing.size:
        raise ValueError(
            f"pattern of length {len(eps)} for a pairing of {pairing.size} positions"
        )
    if not pair_pattern_is_default(pairing, eps):
        return QTPolynomial.zero()
    return QTPolynomial.monomial(*cross_nest_counts(pairing))
