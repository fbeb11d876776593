"""Finite-size moments of normalized sums, the pairing-coefficient estimator,
and deterministic convergence experiments.

The normalized sum over the first N chain elements has vacuum moments that
approach pairing sums weighted by q^crossings * t^nestings; the estimator
averages the closed-form coefficient product over all index tuples in one
pairing class.  Both engines take two-point tables only (every base value
+1 or -1) and are exact on them: the moment walk carries integer amplitudes
with sqrt(t) factored out and meets its two halves below the peak popcount
by the exchange relation, the estimator counts the values of the blocks no
crossing touches and contracts integer sign matrices over the rest, and
each rounds its exact value once.  Experiments sample a single coefficient
table at the largest requested size and evaluate every size in one call of
its engine, which reads the table at most once, at that size: into one edge
table, whose leading rows and columns are every smaller size's and whose
walk runs the leading creations once for every size, or into matrices
contracted on their leading blocks per size (none when the crossings join
two blocks).  A sampled table is two-point by its law, so a moment word
that cannot walk or never climbs past popcount 1, or a class without
crossings (a count of tuples), draws no table at all.  Experiments return
rows of numbers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .coeffs import (
    CoefficientTable,
    _check_pattern,
    _closed_form_factors,
    _table_law,
    pair_limit_monomial,
    sampled_table,
)
from .errors import SizeLimitError, ValidationError
from .floats import _check_int, _round_ratio
from .pairings import PairPartition
from .wickpoly import LETTERS, check_eps, wick_mixed

MAX_SUM_SIZE = 400
MAX_SUM_LENGTH = 8
# a moment walk that runs holds at most C(N, d) states, d the peak of the
# popcount profile of eps (max(_popcounts(eps))), as a dense int64 vector,
# and a step lists ranks of the smaller of its two states only; its halves
# meet at d - 1, so only a word that reaches d twice holds C(N, d).  A word
# whose walk cannot return to the vacuum is not charged and draws no table.
# `clt --mode moment` in a fresh process on a shared 2-core host, child RSS
# from os.wait4: 111*** at 400 sites, mirror halves meeting at popcount 2,
# 0.08 s and 42 MB; 1*111*** at 400 sites 0.08-0.12 s and 43 MB; 111*1***
# at 400 sites, whose right half climbs to the 10.6M states of popcount 3,
# 0.48-0.51 s and 119 MB; 1111**** at 130 sites, holding the level-2 edges
# with their sites (26 MB), 0.09-0.11 s and 84 MB; 111*** at
# 10,100,200,400 sites, all on one edge table, 0.08-0.10 s and 42 MB
MAX_SUM_STATES = 12_000_000
# the estimator contracts [N, N] matrices over the m >= 3 blocks that crossings
# touch in about N^m <= N^n multiply-adds, so the tuple count is its flop
# budget; with N >= n it stops at 7 pairs (8^8 > 10^7).  A class without
# crossings is a count of tuples and reads no base value, and one whose
# crossings join two blocks sums the N(N-1)/2 base values it reads and builds
# no matrix, at any pair count.  In-process per mutually crossing class at the
# cap on a drawn table, best of 5 with OPENBLAS_NUM_THREADS=1 on a shared
# 2-core host: 2 pairs (N = 3162) 1.3-2.0 ms, 3 (N = 215) 0.4-0.6 ms, 4 (N =
# 56) 1.1-1.2 ms, 5 (N = 25) 6 ms, 6 (N = 14) 22-23 ms, 7 (N = 10) 75-80 ms; a
# class without crossings 0.02-0.04 ms at any pair count.  A fresh
# `clt --mode lambda` run takes 0.12-0.28 s and 30-32 MB, mostly starting
# Python and numpy, except 2 crossing pairs at N = 3162, which draw 5M pairs
# (68 MB); 1 pair at 4096 sites draws none (30 MB)
MAX_ESTIMATE_TUPLES = 10**7


# the letter sum runs over the edges (lower set, free site) in chunks of about
# this many, so its temporaries stay a few hundred kB whatever the state count
_CHUNK = 1 << 13
# the transpose of a letter sum is the other letter's sum
_SWAP = str.maketrans("1*", "*1")


def _popcounts(eps: str) -> list[int]:
    """h[j], j = 0..len(eps), the excess of '*' over '1' in eps[j:]: eps[j]
    acts on popcount h[j + 1] in the walk of the right half, and on h[j] in
    the walk of the left half, read backwards with its letters swapped."""
    h = [0]
    for letter in reversed(eps):
        h.append(h[-1] + (1 if letter == "*" else -1))
    return h[::-1]


def _check_moment(n_sites: int, eps: str) -> Optional[list[int]]:
    """Raise the refusal partial_sum_moment makes before it reads a table:
    a word that is not over '1'/'*', a site count that is no integer or
    below one, or a run past the site, order or state cap.  Return eps's
    popcounts, or None for a walk that cannot return to the vacuum, which
    never runs and is not charged: h[0] != 0, a suffix with more '1' than
    '*', or a popcount above n_sites, which holds no set."""
    check_eps(eps)
    if _check_int("n_sites", n_sites, 1) > MAX_SUM_SIZE:
        raise SizeLimitError(f"{n_sites} sites exceed the {MAX_SUM_SIZE}-site cap")
    if len(eps) > MAX_SUM_LENGTH:
        raise SizeLimitError(f"moment order {len(eps)} exceeds {MAX_SUM_LENGTH}")
    h = _popcounts(eps)
    peak = max(h)
    if h[0] or min(h) < 0 or peak > n_sites:
        return None
    if math.comb(n_sites, peak) > MAX_SUM_STATES:
        raise SizeLimitError(
            f"{eps!r} at {n_sites} sites reaches C({n_sites},{peak}) states,"
            f" over the {MAX_SUM_STATES}-state cap"
        )
    return h


def _check_estimate(pairing: PairPartition, eps: str, n_sites: int) -> None:
    """Raise the refusal limit_coefficient_estimate makes before it reads a
    table: a word that is not over '1'/'*' or does not fit the pairing, a
    site count that is no integer or negative, a run past the tuple cap, or
    fewer sites than pairs."""
    _check_pattern(pairing, eps)
    n = pairing.n
    if _check_int("n_sites", n_sites, 0) ** n > MAX_ESTIMATE_TUPLES:
        raise SizeLimitError(
            f"{n_sites}^{n} tuples exceed the {MAX_ESTIMATE_TUPLES} cap"
        )
    if n_sites < n:
        raise ValidationError(f"need at least {n} sites for {n} distinct values")


class _EdgeTables:
    """The edges of both letter sums by popcount k on the first n sites, for
    any n up to the table's size: row r of level k lists, for the set S of
    colex rank r and each free site i < n in increasing order, the rank of
    S + {i}, the product of mu(s, i) over s in S below i, and i.  None
    depends on n, so width n reads the first C(n, k) rows and n - k columns
    of a level.  Level 0 is the row (i, 1, i); level k is read off level
    k - 1, and levels 1 to peak - 2 are built here and held whole beside it.
    With m = max S and r' = r - C(m, k) the rank of S - {m}, a column
    c < m - k + 1 is row r' at c, its key raised by C(m, k+1); a column
    above m, site c + k, has the key r + C(c+k, k+1) and the weight at c + 1
    of row r' times mu(m, c+k).  Only levels 1 and up read mu, up's strict
    upper triangle, so a walk below popcount 2 takes up=None and reads no
    table."""

    def __init__(self, n: int, peak: int, up: Optional[np.ndarray]):
        self.up, self.binom = up, _binomials(n, peak + 1)
        first = np.arange(n)[None, :]
        self.held = [(first, np.ones((1, n), dtype=np.int64), first)]
        for k in range(1, peak - 1):
            ranks = np.arange(int(self.binom[n, k]))
            keys, weights, sites = level = np.empty((3, ranks.size, n - k), dtype=np.int64)
            for chunk, chunk_keys, chunk_weights in self.chunks(ranks, k, n):
                keys[chunk], weights[chunk] = chunk_keys, chunk_weights
                _, prev, below = self._parents(chunk, k, n)
                sites[chunk] = np.where(below, self.held[k - 1][2][prev, :-1], np.arange(k, n))
            self.held.append(level)

    def chunks(self, ranks: np.ndarray, k: int, n: int):
        """(ranks, keys, weights) of level k's rows on n sites, _CHUNK edges a time."""
        step = max(1, _CHUNK // (n - k))
        for lo in range(0, ranks.size, step):
            chunk = ranks[lo:lo + step]
            yield (chunk, *self._rows(chunk, k, n))

    def _parents(self, ranks: np.ndarray, k: int, n: int) -> tuple[np.ndarray, ...]:
        """m = max S, the rank r' of S - {m}, and which of the n - k columns
        lie below m, for the popcount-k sets S at ranks."""
        m = np.searchsorted(self.binom[:, k], ranks, side="right") - 1
        return m, ranks - self.binom[m, k], np.arange(n - k) < (m - k + 1)[:, None]

    def _rows(self, ranks: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Level k's rows at ranks on n sites, from level k if held, else k - 1."""
        if k < len(self.held):
            keys, weights, _ = self.held[k]
            return keys[ranks, :n - k], weights[ranks, :n - k]
        m, prev, below = self._parents(ranks, k, n)
        keys, weights, _ = self.held[k - 1]
        keys, weights = keys[prev, :n - k + 1], weights[prev, :n - k + 1]
        return (np.where(below, keys[:, :-1] + self.binom[m, k + 1, None],
                         ranks[:, None] + self.binom[k:n, k + 1]),
                np.where(below, weights[:, :-1], weights[:, 1:] * self.up[m, k:n]))


def _apply_sum(vec: np.ndarray, k: int, letter: str, edges: _EdgeTables, n: int) -> np.ndarray:
    """Apply the sum over the first n sites of the chain element (letter '1')
    or its adjoint ('*'), with sqrt(t) factored out, to the popcount-k state
    with the given dense integer amplitudes indexed by colex rank, and return
    the result the same way.  Both read the edges out of the lower popcount: a
    creation scatters along them, an annihilation gathers back along them."""
    create = letter == "*"
    low = k if create else k - 1
    out = np.zeros(int(edges.binom[n, k + 1 if create else low]), dtype=np.int64)
    ranks = np.flatnonzero(vec) if create else np.arange(out.size)
    for chunk, keys, weights in edges.chunks(ranks, low, n):
        if create:
            np.add.at(out, keys.ravel(), (vec[chunk, None] * weights).ravel())
        else:
            out[chunk] = (vec[keys] * weights).sum(axis=1)
    return out


def _walk(vec: np.ndarray, steps: list[tuple[str, int]], edges: _EdgeTables, n: int) -> np.ndarray:
    """The dense amplitudes of the letter sums of steps on the first n sites,
    (letter, popcount it acts on) in the order they act, applied to vec."""
    for letter, k in steps:
        vec = _apply_sum(vec, k, letter, edges, n)
    return vec


def _annihilations(vec: np.ndarray, k: int, edges: _EdgeTables, n: int) -> np.ndarray:
    """X[T, i] = (a_i vec)[T] for the popcount-k amplitudes vec on the first
    n sites, k >= 1, as float64: one row per set T of popcount k - 1, and
    level k - 1's edges out of T gathered from vec and placed at their sites."""
    keys, weights, sites = (a[:edges.binom[n, k - 1], :n - k + 1] for a in edges.held[k - 1])
    values = vec[keys]
    values *= weights
    out = np.zeros((len(keys), n))
    np.put_along_axis(out, sites, values, axis=1)
    return out


def _meet(left: np.ndarray, right: np.ndarray, k: int, edges: _EdgeTables,
          mu: Optional[np.ndarray], n: int) -> int:
    """<left, A C right> for popcount-k amplitudes on the first n sites, A
    the sum of '1' and C of '*', by the exchange relation: a_i c_i is the
    identity on the n - k sets without i, and a_j c_i = mu c_i a_j for
    i != j, so the meet is (n - k) left . right plus the sum over i != j of
    mu(i, j) <a_i left, a_j right>, one matrix product through mu's
    leading [:n, :n] block (none at k = 0, where every a_i is zero)."""
    total = (n - k) * int(np.dot(left, right))
    if k:
        x_right = _annihilations(right, k, edges, n)
        x_left = x_right if left is right else _annihilations(left, k, edges, n)
        total += int(np.vdot(x_left @ mu[:n, :n], x_right))
    return total


def _binomials(n: int, cols: int) -> np.ndarray:
    """binom[x, j] = C(x, j) for x <= n and j < cols, by Pascal's rule
    C(x, j) = sum_{y < x} C(y, j-1): a cumulative sum down each column."""
    binom = np.zeros((n + 1, cols), dtype=np.int64)
    binom[:, 0] = 1
    for j in range(1, cols):
        np.cumsum(binom[:-1, j - 1], out=binom[1:, j])
    return binom


def _round_once(total: int, t: float, t_power: int, n_sites: int, n_power: int) -> float:
    """total * t^t_power / n_sites^n_power, rounded once to float64; inf with
    the sign of total past its range."""
    value = Fraction(total) * Fraction(t) ** t_power / n_sites**n_power
    return _round_ratio(value.numerator, value.denominator)


def _contract(a: dict[tuple[int, int], np.ndarray], k: int) -> float:
    """Sum over value tuples (v_0, ..., v_{k-1}), k >= 3, of the product over
    block pairs x < y of a[x, y][v_x, v_y], each edge an [N, N] matrix, in
    about N^k multiply-adds: the estimator passes the blocks crossings touch."""
    if k == 3:
        return ((a[0, 1] @ a[1, 2]) * a[0, 2]).sum()
    total = 0.0
    for v in range(a[0, 1].shape[0]):
        # block 0 at value v: every later block's weight a[0, y][v] goes into
        # the columns of a[1, y], and block 1's into the rows of a[1, 2]
        folded = {(x - 1, y - 1): a[x, y] * a[0, y][v] if x == 1 else a[x, y]
                  for x, y in a if x}
        folded[0, 1] *= a[0, 1][v][:, None]
        total += _contract(folded, k - 1)
    return total


def partial_sum_moment(n_sites: int, eps: str, table: CoefficientTable) -> float:
    """Vacuum moment of the normalized sum of the first n_sites chain elements,
    with one factor per letter of eps (product order, '1' element / '*' adjoint).

    On a two-point table a creation from popcount k scales by sqrt(t)^k
    times a product of base values +-1, and the annihilation back to k by
    the same power, so the walk runs on integer amplitudes and a word that
    returns to the vacuum carries t^E, E the sum of k over its creations.
    Both sums weigh S -> S + {i} by the product of mu(s, i) over s in S
    below i, so the annihilation sum is the transpose of the creation sum.
    The word is cut at a '1*' where its popcount profile peaks at p, eps =
    L' 1* R', and with k = p - 1 the vacuum amplitude is M = <l, A C r>:
    r the walk of R' from the vacuum to popcount k, l the walk of L' read
    backwards with its letters swapped, and A C the sum of '1' after the
    sum of '*'.  The exchange relation a_j c_i = mu(i, j) c_i a_j (i != j)
    makes that (N - k) l . r plus the sum over i != j of
    mu(i, j) <a_i l, a_j r>, one matrix product, so the state at the peak
    is never built unless a half passes through it.  When the two halves
    are equal, one walk serves both.  The moment is M * t^E / N^(r/2),
    rounded once.  Any other table raises ValidationError.
    """
    return _moments((n_sites,), eps, table)[0]


def _moments(ns: Sequence[int], eps: str, table: CoefficientTable) -> list[float]:
    """partial_sum_moment at each size of ns, a nonempty sequence, from one
    walk.  Every size is checked first, and the table is asked at the top
    size max(ns) whether it is two-point; a word that walks at no size, or
    whose profile peaks at 1, reads no base value.  Otherwise the table is
    read once, at the top size, into one edge table that every size reads
    and the matrix every meet reads the leading [:n, :n] block of.  The
    leading creations of each half run once there, from the vacuum: a
    creation reaches a set inside the first n sites only from such a set,
    through a site below n and with the same signs, and in colex order
    those sets hold the first C(n, c) ranks, so size n starts its half from
    that prefix of the vector and walks the rest on the first n sites.  The
    cut is the '1*' at the peak nearest the middle, so a word whose middle
    is its peak can have equal halves."""
    # a walk that runs at some size runs at the top size, which goes first
    sizes = sorted({n for n in ns if _check_moment(n, eps) is not None}, reverse=True)
    top = max(ns)
    table._check_two_point(top)
    if not sizes:
        return [0.0] * len(ns)
    if not eps:  # the vacuum's own amplitude, 1
        return [1.0] * len(ns)
    h = _popcounts(eps)
    peak = max(h)
    # cut at the '1*' nearest the middle that the profile peaks at: eps[cut]
    # creates the peak from k and eps[cut - 1] annihilates it back to k
    cut = min((j for j in range(1, len(eps)) if h[j] == peak),
              key=lambda j: abs(2 * j - len(eps)))
    k = peak - 1
    # a word below popcount 2 reads no base value: its steps and its meet
    # take every site with weight 1
    mu = table.base_matrix(top) if peak > 1 else None
    # the edges read the strict upper triangle only: up[j, i] = mu(j+1, i+1)
    edges = _EdgeTables(top, peak, None if mu is None else mu.astype(np.int64))
    # int64 cannot wrap and the meet's float64 sums are exact.  A creation
    # multiplies the sum of a half's amplitudes' magnitudes by at most N, an
    # annihilation by at most the peak popcount p, so after c creations and
    # a annihilations every amplitude and partial sum of a half is at most
    # N^c * p^a.  Counting paths backwards, every amplitude of the right
    # half r is at most p^c * N^a (a creation added one of the set's sites,
    # an annihilation removed any of the N).  Each amplitude of the left
    # half l sits k times in its X, and a row of X holds N - k + 1 sites, so
    # every partial sum of the meet is at most
    # (k (N - k + 1) + N - k) * |l|_1 * max|r|.  Within the caps the worst
    # words, 111*1*** and four more at N = 400, reach
    # 1196 * 400^3 * 3^3 < 2.1e12 < 2^53
    # (test_moment_amplitudes_stay_below_2_53_within_the_caps)
    right = list(zip(reversed(eps[cut + 1:]), reversed(h[cut + 2:])))
    left = list(zip(eps[:cut - 1].translate(_SWAP), h))
    halves = [right] if left == right else [right, left]
    creations = [next((j for j, (letter, _) in enumerate(steps) if letter == "1"), len(steps))
                 for steps in halves]
    starts: list[Optional[np.ndarray]] = [None] * len(halves)
    # an annihilation back to k undoes each creation from k, so E is half
    # the sum of every step's lower popcount
    t_power = sum(map(min, h, h[1:])) // 2
    moments = dict.fromkeys(ns, 0.0)
    for n in sizes:
        ends = []
        for j, steps in enumerate(halves):
            c = creations[j]
            if starts[j] is None:
                starts[j] = _walk(np.ones(1, dtype=np.int64), steps[:c], edges, top)
            ends.append(_walk(starts[j][:edges.binom[n, c]], steps[c:], edges, n))
        if n == sizes[-1]:  # the last size to start from them, so they go
            starts = []
        total = _meet(ends[-1], ends[0], k, edges, mu, n)
        moments[n] = _round_once(total, table.t, t_power, n, len(eps) // 2)
    return [moments[n] for n in ns]


def limit_coefficient_estimate(
    pairing: PairPartition, eps: str, n_sites: int, table: CoefficientTable
) -> float:
    """Average over all tuples in the pairing's class (distinct values per pair,
    values up to n_sites) of the coefficient product indexed by crossings and
    nestings, normalized by n_sites^pairs.

    On a two-point table every factor is a base value m = +-1 times t, 1/t
    or 1 (for ('*','1'), ('1','*') and equal letters), so the estimate is
    t^E * S / N^n: E counts ('*','1') factors less ('1','*') ones, and S is
    the integer sum over tuples of the product of the base values.  Only
    the block pairs that an odd number of factors join, the pairing's
    crossings, weigh a tuple; a block that none of them touches only needs
    a value apart from the rest, so with m blocks touched S is
    (N-m)!/(N-n)! times T, the sum over distinct values of the touched
    blocks alone.  T is 1 for m = 0 (no base value is read), twice the sum
    of the base values for m = 2 (no matrix is built), and otherwise a
    contraction over the touched block pairs of the sign matrix (odd pairs)
    or the all-ones matrix (the rest), both with a zero diagonal, which
    keeps the values distinct.  The edges it folds stay +-1 or 0, so every
    partial sum is an integer of magnitude at most N^m <= N^n <=
    MAX_ESTIMATE_TUPLES < 2^53: the float sums are exact in any order, and
    the result is t^E * S / N^n rounded once.  Any other table raises
    ValidationError, whatever the class.
    """
    return _estimates((n_sites,), pairing, eps, table)[0]


def _estimates(
    ns: Sequence[int], pairing: PairPartition, eps: str, table: CoefficientTable
) -> list[float]:
    """limit_coefficient_estimate at each size of ns, a nonempty sequence.
    Every size is checked first, then the table is asked once, at the top
    size max(ns), whether it is two-point, which draws no sampled table.
    Only a class with an odd block pair reads base values: two touched
    blocks sum the prefix of each size, and three or more build their sign
    and distinct matrices at the top size, and size n contracts their
    leading [:n, :n] blocks, which are the matrices of the first n sites."""
    for n_sites in ns:
        _check_estimate(pairing, eps, n_sites)
    top = max(ns)
    table._check_two_point(top)
    n = pairing.n
    block = pairing.block_of()
    odd: set[tuple[int, int]] = set()  # block pairs an odd number of factors join
    exponent = 0
    for x, y in _closed_form_factors(pairing):
        odd ^= {(block[x] - 1, block[y] - 1)}
        letters = (eps[x - 1], eps[y - 1])
        exponent += (letters == ("*", "1")) - (letters == ("1", "*"))
    # S = perm(N - m, n - m) * T, T the sum over the m touched blocks alone
    touched = sorted({x for pair in odd for x in pair})
    m = len(touched)
    if m == 0:
        sums = [1] * len(ns)
    elif m == 2:
        # the one odd pair's values i < j are the tuples (i, j) and (j, i)
        sums = [2 * int(table.packed(n_sites).sum()) for n_sites in ns]
    else:
        odd = {(touched.index(x), touched.index(y)) for x, y in odd}
        pairs = list(itertools.combinations(range(m), 2))
        sign_matrix = table.base_matrix(top)
        distinct = 1.0 - np.eye(top) if len(odd) < len(pairs) else None
        a = {pair: sign_matrix if pair in odd else distinct for pair in pairs}
        sums = [int(_contract({pair: b[:n_sites, :n_sites] for pair, b in a.items()}, m))
                for n_sites in ns]
    return [_round_once(math.perm(n_sites - m, n - m) * total, table.t, exponent, n_sites, n)
            for total, n_sites in zip(sums, ns)]


def _refusal(check: Callable[..., object], *args: object) -> list[str]:
    """The message of the ValueError check(*args) raises, or nothing."""
    try:
        check(*args)
    except ValueError as exc:
        return [str(exc)]
    return []


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence run: mode 'moment' or 'lambda', shared (q, t, eps, seed),
    and the increasing list of sizes to evaluate."""

    mode: str
    eps: str
    q: float
    t: float
    ns: tuple[int, ...]
    seed: int
    pairing: Optional[PairPartition] = None

    def validate(self) -> list[str]:
        """Every reason the run would be refused, before anything is sampled:
        the config's own rules, then what the table and the mode's engine
        raise at max(ns), one refusal from each."""
        problems = []
        if self.mode not in ("moment", "lambda"):
            problems.append(f"mode must be 'moment' or 'lambda', got {self.mode!r}")
        eps_ok = isinstance(self.eps, str) and bool(self.eps) and set(self.eps) <= set(LETTERS)
        if not eps_ok:
            problems.append(f"eps {self.eps!r} must be a nonempty string over '1'/'*'")
        sizes_ok = not any(_refusal(_check_int, "n", n, 1) for n in self.ns)
        ns_ok = bool(self.ns) and sizes_ok and list(self.ns) == sorted(set(self.ns))
        if not self.ns:
            problems.append("ns must be a nonempty increasing list of sizes")
        elif not ns_ok:
            problems.append(f"ns {self.ns!r} must be strictly increasing positive integers")
        if self.mode == "lambda" and self.pairing is None:
            problems.append("lambda mode needs a pairing")
        if self.mode == "moment" and self.pairing is not None:
            problems.append("moment mode takes no pairing")
        # q, t and the seed are checked whatever ns is
        top = max(self.ns) if ns_ok else 1
        problems += _refusal(_table_law, top, self.q, self.t, self.seed)
        if eps_ok and ns_ok:
            if self.mode == "moment":
                problems += _refusal(_check_moment, top, self.eps)
            elif self.mode == "lambda" and self.pairing is not None:
                problems += _refusal(_check_estimate, self.pairing, self.eps, top)
        return problems


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    value: float
    target: Optional[float]
    abs_err: Optional[float]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ExperimentRow] = field(default_factory=list)


def convergence_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment: a single sampled table at max(ns), each size read off
    the restriction, plus the limiting target when one is defined.  Each
    mode evaluates every size in one call of its engine, which reads the
    table once, at max(ns): the moment walk runs the leading creations
    there, and the estimator builds any matrices it contracts there."""
    problems = config.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    top = max(config.ns)
    table = sampled_table(top, config.q, config.t, config.seed)
    eps, pairing = config.eps, config.pairing
    target: Optional[float] = None
    if config.mode == "moment":
        target = wick_mixed(eps).evaluate(config.q, config.t)
        values = _moments(config.ns, eps, table)
    else:
        limit = pair_limit_monomial(pairing, eps)
        if limit:  # zero unless every pair opens with '1' and closes with '*'
            target = limit.evaluate(config.q, config.t)
        values = _estimates(config.ns, pairing, eps, table)
    report = ExperimentReport(config=config)
    for n, value in zip(config.ns, values):
        err = None if target is None else abs(value - target)
        report.rows.append(ExperimentRow(n=n, value=value, target=target, abs_err=err))
    return report
