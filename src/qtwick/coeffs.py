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
from .floats import _check_finite, _check_int, _check_scale
from .pairings import PairPartition, cross_nest, cross_nest_counts
from .wickpoly import LETTERS, QTPolynomial, check_eps

# a whole sampled table of 4096 sites holds 8.4M pairs (67 MB packed) and
# samples in 0.04-0.05 s in-process; it admits the largest lambda run (3162
# sites, 2 pairs).  A sampled_table draws whole on any read but a first single read,
# which draws only the pairs it reads, at a cost that does not grow with n;
# the cap still bounds its n
MAX_TABLE_SITES = 4096
# the coeffs artifact lists one row per pair: 1024 sites are 523776 rows.
# In a fresh process, csv (5 MB) takes 0.09-0.14 s to write or --check and
# peaks at 49-54 MB, text (8 MB) 0.09-0.10 s at 58 MB, and json (26 MB)
# 0.11-0.13 s to write or --check at 107 and 132 MB
MAX_LISTED_SITES = 1024

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# pairs drawn per step of sample_packed: a step's arrays of this length
# (the ranks, overwritten by their values, and one scratch) fit in L2
_SAMPLE_CHUNK = 1 << 14


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalizer of the splitmix64 generator, applied in place to a uint64
    array; numpy's uint64 arithmetic wraps mod 2^64 as the generator needs.
    Each xorshift writes x >> s into one scratch array, not into a
    temporary of its own."""
    tmp = np.empty_like(x)
    x ^= np.right_shift(x, 30, out=tmp)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, 27, out=tmp)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, 31, out=tmp)
    return x


def _derive_seeds(master: int, ranks: np.ndarray) -> np.ndarray:
    """derive_seed(master, k) for each k of a uint64 array of ranks, computed
    in place: every step writes into `ranks`, as a fresh array per step
    would cost a page fault per page of a large array.  A master that is no
    integer raises ValidationError."""
    ranks *= np.uint64(_GAMMA)
    ranks += np.uint64((_check_int("seed", master) + _GAMMA) & _MASK64)
    return _splitmix64(ranks)


def derive_seed(master: int, k: int) -> int:
    """Seed of sub-task k: splitmix64 applied to master + (k+1) steps of the
    golden-ratio increment.  Stable across versions and platforms.  master
    and k are read modulo 2^64, so master and master + 2^64 (or -5 and
    2^64 - 5) derive the same seeds."""
    ranks = np.array([_check_int("k", k) & _MASK64], dtype=np.uint64)
    return int(_derive_seeds(master, ranks)[0])


def _pair_rank(i: int | np.ndarray, j: int | np.ndarray) -> int | np.ndarray:
    """Rank of the pair (i, j), i < j, in an ordering independent of any cutoff:
    pairs are ranked by j first, then i.  That is (j-1)(j-2)/2 + i - 1, or
    j(j-3)/2 + i with j(j-3) even: three steps on int arrays, not five."""
    return (j * (j - 3) >> 1) + i


def _pair_count(n: int) -> int:
    """Number of pairs i < j <= n, which is also the packed length of n sites."""
    return n * (n - 1) // 2 if n > 1 else 0


def _two_point(q: float, t: float) -> float:
    """P(+1) of the two-point law with mean q/t, after checking q and t."""
    _check_finite("q", q)
    _check_scale(t)
    if abs(q) > t:
        raise ValidationError(f"two-point law needs |q| <= t, got q={q}, t={t}")
    return 0.5 * (1.0 + q / t)


def _table_law(n: int, q: float, t: float, seed: int) -> float:
    """P(+1) of a sampled n-site table, after the checks sample_packed makes:
    q and t first, then n, then the seed.  sampled_table makes them before
    it draws anything, so that it refuses what sampling the whole table
    would."""
    p_plus = _two_point(q, t)
    if _check_int("n", n, 1) > MAX_TABLE_SITES:
        raise SizeLimitError(f"{n} sites exceed the {MAX_TABLE_SITES}-site table cap")
    _check_int("seed", seed)
    return p_plus


def _draw(ranks: np.ndarray, seed: int, p_plus: float) -> np.ndarray:
    """Base values of the pairs of a uint64 array of ranks, returned as a
    float64 view of its memory: the pair of rank k is +1 when the top 53
    bits b of derive_seed(seed, k), as a uniform b * 2^-53 on [0, 1), fall
    below p_plus, and -1 otherwise.  Both b * 2^-53 and p_plus * 2^53 are
    exact, so that is the integer test b < cut = ceil(p_plus * 2^53), which
    holds exactly when the whole 64-bit word is below cut << 11."""
    bits = _derive_seeds(seed, ranks)
    cut = math.ceil(p_plus * 2.0**53)
    # 2 * (word < cut << 11) - 1, written over the words: a take from
    # [-1, 1] or a bool-float multiply would allocate a copy per call
    signs = bits.view(np.float64)
    if cut == 2**53:  # p_plus = 1: cut << 11 = 2^64 is past every word
        signs.fill(1.0)
    else:
        np.copyto(signs, bits < np.uint64(cut << 11))
        signs *= 2.0
        signs -= 1.0
    return signs


def sample_ranks(ranks: Sequence[int] | np.ndarray, q: float, t: float, seed: int) -> np.ndarray:
    """Draw the base coefficients of the pairs of the given ranks, in the
    order given: the same values sample_packed draws at those ranks, at a
    cost that does not grow with the size of the table.  A rank that is not
    an integer in 0..2^64-1 raises ValidationError."""
    p_plus = _two_point(q, t)
    if isinstance(ranks, np.ndarray) and ranks.dtype.kind in "iu":
        ok = ranks.size == 0 or ranks.min() >= 0
    else:
        ok = all(isinstance(k, (int, np.integer)) and 0 <= k <= _MASK64 for k in ranks)
    if not ok:
        raise ValidationError("pair ranks must be integers in 0..2^64-1")
    return _draw(np.array(ranks, dtype=np.uint64), seed, p_plus)


def sample_packed(n: int, q: float, t: float, seed: int) -> np.ndarray:
    """Draw the base coefficient for every pair i < j <= n, in pair-rank order.

    Each value is +1 or -1 with P(+1) = (1 + q/t)/2, so the mean is q/t and
    the second moment is exactly 1.  The pair of rank k draws the top 53 bits
    of derive_seed(seed, k) as a uniform on [0, 1), so every draw depends on
    its rank alone: the sample for a smaller n is a prefix of the sample for
    a larger one, and sample_ranks draws any subset with the same bits.
    """
    p_plus = _table_law(n, q, t, seed)
    count = _pair_count(n)
    out = np.empty(count)
    # in chunks, so that the bits of the whole table are never alive and a
    # chunk's arrays stay in cache; each chunk's ranks are written into one
    # buffer, which _draw overwrites with their values
    offsets = np.arange(min(count, _SAMPLE_CHUNK), dtype=np.uint64)
    ranks = np.empty_like(offsets)
    for start in range(0, count, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, count - start)
        chunk = np.add(offsets[:size], start, out=ranks[:size])
        out[start:start + size] = _draw(chunk, seed, p_plus)
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
    """Base values of a hand-built table in pair-rank order; the dict must
    give every pair up to its last one."""
    for i, j in base:
        if not (0 < i < j):
            raise ValidationError(f"base key ({i},{j}) must satisfy 0 < i < j")
    size = max((_pair_rank(i, j) + 1 for i, j in base), default=0)
    pairs = ((i, j) for j in itertools.count(2) for i in range(1, j))
    if len(base) < size:  # the keys are distinct, so a pair below the last is missing
        i, j = next(pair for pair in pairs if pair not in base)
        raise ValidationError(f"table has no base value for pair ({i},{j})")
    return np.array([base[pair] for pair in itertools.islice(pairs, size)], dtype=np.float64)


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
    either a mapping {(i, j): value}, which must give every pair up to its
    last one, or a sequence of nonzero values in pair-rank order, which is
    copied.  Only this module knows that order: the engines read the table
    by pair (_read), by prefix (packed) or as a matrix (base_matrix).
    """

    def __init__(self, base: Mapping[tuple[int, int], float] | Sequence[float], t: float):
        self.t = _check_scale(t)
        packed = _pack(base) if isinstance(base, Mapping) else np.array(base, dtype=np.float64)
        if packed.ndim != 1:
            raise ValidationError("packed base values must form a 1-d array")
        if not packed.all():
            raise ValidationError("base values must be nonzero")
        if not np.isfinite(packed).all():
            raise ValidationError("base values must be finite")
        packed.flags.writeable = False
        self._packed = packed
        # pairs of rank below this have a base value; ranks are j-major, so
        # the table covers n sites exactly when n(n-1)/2 pairs fit below it
        self._size = packed.size

    def covers(self, n: int) -> bool:
        """True when every pair i < j <= n has a base value."""
        return _pair_count(n) <= self._size

    def _check_covers(self, n: int) -> None:
        if not self.covers(_check_int("n", n, 0)):
            raise ValidationError(f"table does not cover all pairs up to {n}")

    def packed(self, n: int) -> np.ndarray:
        """Read-only base values of every pair i < j <= n, in pair-rank order."""
        self._check_covers(n)
        return self._packed[:_pair_count(n)]

    def _check_two_point(self, n: int) -> None:
        """Refuse with ValidationError a table with any other base value
        than +1 or -1 among the pairs up to n, or one that does not cover
        n sites; the clt engines check this before they read the table."""
        u = self.packed(n)
        if not ((u == 1.0) | (u == -1.0)).all():
            raise ValidationError(
                "the clt engines need a two-point table, every base value +1 or -1")

    def _read(self, i: int | np.ndarray, j: int | np.ndarray) -> float | np.ndarray:
        """Base value mu(i, j), as a Python float, of one pair i < j the table
        holds, or the base values of broadcastable int arrays of such pairs.
        Every read of fewer than all pairs goes through here."""
        ranks = _pair_rank(i, j)
        if isinstance(ranks, int):
            return self._packed.item(ranks)
        return self._packed[ranks]

    def base_value(self, i: int, j: int) -> float:
        """Base value mu(i, j) for 0 < i < j."""
        i, j = _check_int("i", i), _check_int("j", j)
        if 0 < i < j and _pair_rank(i, j) < self._size:
            return self._read(i, j)
        raise ValidationError(f"table has no base value for pair ({i},{j})")

    def lookup(self, left: str, right: str, i: int, j: int) -> float:
        """Coefficient mu_{left,right}(i, j) for i != j."""
        if left not in LETTERS or right not in LETTERS:
            raise ValidationError(f"letters must be '1' or '*', got ({left!r},{right!r})")
        i, j = _check_int("i", i), _check_int("j", j)
        if i == j:
            raise ValidationError("coefficients are only defined for distinct indices")
        m = self.base_value(i, j) if i < j else self.base_value(j, i)
        return _coefficient(left, right, m, self.t, i < j)

    def base_matrix(self, n: int) -> np.ndarray:
        """(n, n) array with entry [i-1, j-1] = mu(min(i, j), max(i, j)) for
        i != j and 0.0 on the diagonal."""
        values = self.packed(n)
        out = np.zeros((n, n))
        # the strict lower triangles of out and of out.T, row by row, are
        # both in pair-rank order
        lower = np.tri(n, n, -1, dtype=bool)
        out[lower] = out.T[lower] = values
        return out


class _SampledTable(CoefficientTable):
    """sampled_table's table.  Its first read draws only the distinct pairs
    it asks for, unless it is a bulk read (packed, base_matrix); any later
    read draws the whole table, so that reading every pair one at a time
    costs about one whole draw.  Asking whether it is two-point draws
    nothing."""

    def __init__(self, n: int, q: float, t: float, seed: int):
        _table_law(n, q, t, seed)
        self.t = float(t)
        self._law = (n, q, t, seed)
        self._packed = None
        self._size = _pair_count(n)
        self._read_pairs = False

    def packed(self, n: int) -> np.ndarray:
        self._check_covers(n)
        if self._packed is None:
            self._packed = sample_packed(*self._law)
            self._packed.flags.writeable = False
        return super().packed(n)

    def _check_two_point(self, n: int) -> None:
        # the two-point law, which _table_law checked, draws only +1 and -1
        self._check_covers(n)

    def _read(self, i: int | np.ndarray, j: int | np.ndarray) -> float | np.ndarray:
        if self._packed is None:
            if not self._read_pairs:
                self._read_pairs = True
                _, q, t, seed = self._law
                ranks = _pair_rank(i, j)
                distinct, read = np.unique(ranks, return_inverse=True)
                values = sample_ranks(distinct, q, t, seed)[read].reshape(np.shape(ranks))
                return values.item() if isinstance(ranks, int) else values
            self.packed(self._law[0])
        return super()._read(i, j)


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
        raise ValidationError(f"{len(values)} values but pattern of length {len(eps)}")
    where: dict[int, list[int]] = {}
    for pos, v in enumerate(values, start=1):
        where.setdefault(v, []).append(pos)
    if any(len(block) != 2 for block in where.values()):
        raise NonPairClassError(f"tuple {values!r} is not a perfect pairing of its positions")
    pairing = PairPartition(tuple(map(tuple, where.values())))
    beta = 1.0
    for x, y in _closed_form_factors(pairing):
        beta *= table.lookup(eps[x - 1], eps[y - 1], values[x - 1], values[y - 1])
    pattern = "".join(eps[w - 1] + eps[z - 1] for w, z in pairing.pairs)
    return NormalOrderResult(beta=beta, pairing=pairing, pattern=pattern)


def _check_pattern(pairing: PairPartition, eps: str) -> None:
    """Refuse eps unless it is a word over '1'/'*' with one letter per
    position of the pairing."""
    check_eps(eps)
    if len(eps) != pairing.size:
        raise ValidationError(
            f"pattern of length {len(eps)} for a pairing of {pairing.size} positions"
        )


def pair_pattern_is_default(pairing: PairPartition, eps: str) -> bool:
    """True when every pair opens with '1' and closes with '*'; eps must
    hold one letter per position of the pairing."""
    _check_pattern(pairing, eps)
    return all(eps[w - 1] == "1" and eps[z - 1] == "*" for w, z in pairing.pairs)


def pair_limit_monomial(pairing: PairPartition, eps: str) -> QTPolynomial:
    """Limiting monomial q^cross * t^nest of a pairing class under the default
    covariance; zero unless every pair has the ('1','*') pattern."""
    if not pair_pattern_is_default(pairing, eps):
        return QTPolynomial.zero()
    return QTPolynomial.monomial(*cross_nest_counts(pairing))
