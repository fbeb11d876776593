"""Finite-size moments of normalized sums, the pairing-coefficient estimator,
and deterministic convergence experiments.

The normalized sum over the first N chain elements has vacuum moments that
approach pairing sums weighted by q^crossings * t^nestings; the estimator
averages the closed-form coefficient product over all index tuples in one
pairing class.  Both engines take two-point tables only (every base value
+1 or -1) and are exact on them: the moment walk carries integer amplitudes
with sqrt(t) factored out, the estimator contracts integer sign matrices,
and each rounds its exact value once.  Experiments sample a single
coefficient table at the largest requested size and evaluate every smaller
size on its restriction; they return rows of numbers, which the command
line renders."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .coeffs import (
    MAX_TABLE_SITES,
    CoefficientTable,
    _closed_form_factors,
    pair_limit_monomial,
    pair_pattern_is_default,
    sampled_table,
)
from .errors import SizeLimitError, ValidationError
from .pairings import PairPartition
from .wickpoly import LETTERS, check_eps, wick_mixed

MAX_SUM_SIZE = 400
MAX_SUM_LENGTH = 8
# the moment walk holds at most C(N, d) states, d = peak_popcount(eps), at
# about 16 bytes each while a step runs; `clt --mode moment` in a fresh
# process on a shared 2-core host: order 6 at 400 sites (10.6M states)
# takes 3.3-3.7 s and 200 MB, order 8 at 130 sites (11.4M) 4.2-4.3 s and 189 MB
MAX_SUM_STATES = 12_000_000
# the estimator contracts [N, N] matrices, best of 3 in-process on a shared
# 2-core host: 2 pairs at N = 3162 (one sum) 0.04-0.08 s; 3 pairs at N = 215
# (one matmul) 0.001-0.016 s per class, the high end when OpenBLAS splits it
# over two threads; 4 pairs at N = 56 (N matmuls) 0.001-0.002 s per class.
# A fresh `clt --mode lambda` run at 2 pairs takes 0.38-0.47 s and 149-157 MB,
# at 3 or 4 pairs 0.27-0.37 s and 31-32 MB, mostly starting Python and numpy
MAX_ESTIMATE_TUPLES = 10**7
# the contraction has a form for 2, 3 and 4 pairs
MAX_ESTIMATE_PAIRS = 4


# the letter sum runs over candidate (state, site) pairs in chunks of about
# this many, so its temporaries stay a few hundred kB whatever the state count
_CHUNK = 1 << 13


def peak_popcount(eps: str) -> int:
    """Largest number of occupied sites along the moment walk of eps: the
    excess of '*' over '1' in a suffix, up to the first suffix whose excess
    goes negative, after which the state is zero."""
    k = peak = 0
    for letter in reversed(eps):
        k += 1 if letter == "*" else -1
        if k < 0:
            break
        peak = max(peak, k)
    return peak


def _state_cap_problem(n_sites: int, eps: str) -> Optional[str]:
    """Why the moment walk of eps over n_sites sites exceeds MAX_SUM_STATES,
    or None when it fits."""
    peak = peak_popcount(eps)
    if n_sites >= 0 and math.comb(n_sites, peak) > MAX_SUM_STATES:
        return (
            f"{eps!r} at {n_sites} sites reaches C({n_sites},{peak}) states,"
            f" over the {MAX_SUM_STATES}-state cap"
        )
    return None


def _unrank(ranks: np.ndarray, k: int, binom: np.ndarray) -> np.ndarray:
    """Sorted 0-based site sets, one row per colex rank sum_r C(site_r, r+1)."""
    sites = np.empty((ranks.size, k), dtype=np.int64)
    rest = ranks.copy()
    for r in range(k, 0, -1):
        col = binom[:, r]
        top = np.searchsorted(col, rest, side="right") - 1
        sites[:, r - 1] = top
        rest -= col[top]
    return sites


def _create(
    sites: np.ndarray, amps: np.ndarray, up: np.ndarray, binom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys and contributions of adding each free site to each set."""
    rows, k = sites.shape
    n = up.shape[0]
    prods = np.ones((rows, n), dtype=up.dtype)
    for r in range(k):
        prods *= up[sites[:, r]]
    contrib = amps[:, None] * prods
    occupied = np.zeros((rows, n), dtype=np.int64)
    occupied[np.arange(rows)[:, None], sites] = 1
    # slot of the new site in the sorted set: the occupied sites below it
    pos = np.cumsum(occupied, axis=1) - occupied
    slot = np.arange(k)
    below = np.zeros((rows, k + 1), dtype=np.int64)
    np.cumsum(binom[sites, slot + 1], axis=1, out=below[:, 1:])
    above = np.zeros((rows, k + 1), dtype=np.int64)
    above[:, :k] = np.cumsum(binom[sites, slot + 2][:, ::-1], axis=1)[:, ::-1]
    keys = np.take_along_axis(below + above, pos, axis=1)
    keys += binom[np.arange(n), pos + 1]
    free = occupied == 0
    return keys[free], contrib[free]


def _annihilate(
    sites: np.ndarray, amps: np.ndarray, up: np.ndarray, binom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys and contributions of removing each occupied site from each set."""
    rows, k = sites.shape
    contrib = np.repeat(amps[:, None], k, axis=1)
    for r in range(k - 1):
        contrib[:, r + 1:] *= up[sites[:, r:r + 1], sites[:, r + 1:]]
    slot = np.arange(k)
    shifted = binom[sites, slot + 1]
    kept = binom[sites, slot]
    keys = np.cumsum(shifted, axis=1) - shifted
    keys += kept.sum(axis=1)[:, None] - np.cumsum(kept, axis=1)
    return keys.ravel(), contrib.ravel()


def _apply_sum(
    ranks: np.ndarray, amps: np.ndarray, k: int, letter: str, up: np.ndarray,
    binom: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the sum over all sites of the chain element (letter '1') or its
    adjoint (letter '*'), with sqrt(t) factored out, to the popcount-k state
    with the given colex ranks and integer amplitudes; return the nonzero
    amplitudes of the result in rank order."""
    n = up.shape[0]
    create = letter == "*"
    per_state = n - k if create else k
    if not per_state:
        return ranks[:0], amps[:0]
    sums = np.zeros(int(binom[n, k + 1 if create else k - 1]), dtype=np.int64)
    step = max(1, _CHUNK // per_state)
    engine = _create if create else _annihilate
    for lo in range(0, ranks.size, step):
        sites = _unrank(ranks[lo:lo + step], k, binom)
        keys, contrib = engine(sites, amps[lo:lo + step], up, binom)
        np.add.at(sums, keys, contrib)
    live = np.flatnonzero(sums)
    return live, sums[live]


def _two_point_signs(table: CoefficientTable, n_sites: int) -> np.ndarray:
    """The base values of every pair up to n_sites in pair-rank order; a table
    with any other value than +1 or -1 among them raises ValidationError."""
    u = table.packed(n_sites)
    if not (np.abs(u) == 1.0).all():
        raise ValidationError("the clt engines need a two-point table, every base value +1 or -1")
    return u


def _round_once(total: int, t: float, t_power: int, n_sites: int, n_power: int) -> float:
    """total * t^t_power / n_sites^n_power, rounded once to float64; inf with
    the sign of total past its range."""
    try:
        return float(Fraction(total) * Fraction(t) ** t_power / n_sites**n_power)
    except OverflowError:
        return math.copysign(math.inf, total)


def partial_sum_moment(n_sites: int, eps: str, table: CoefficientTable) -> float:
    """Vacuum moment of the normalized sum of the first n_sites chain elements,
    with one factor per letter of eps (product order, '1' element / '*' adjoint).

    On a two-point table a creation from popcount k scales by sqrt(t)^k
    times a product of base values +-1, and the annihilation back to k by
    the same power, so the walk runs on integer amplitudes and a word that
    returns to the vacuum carries t^E, E the sum of k over its creations.
    The moment is M * t^E / N^(r/2), M the vacuum amplitude, rounded once.
    Any other table raises ValidationError.
    """
    check_eps(eps)
    r = len(eps)
    if n_sites < 1:
        raise ValidationError("need at least one site")
    if n_sites > MAX_SUM_SIZE:
        raise SizeLimitError(f"{n_sites} sites exceed the {MAX_SUM_SIZE}-site cap")
    if r > MAX_SUM_LENGTH:
        raise SizeLimitError(f"moment order {r} exceeds {MAX_SUM_LENGTH}")
    too_many = _state_cap_problem(n_sites, eps)
    if too_many:
        raise SizeLimitError(too_many)
    # up[j, i] = mu(j+1, i+1) above the diagonal and 1 elsewhere, so a
    # product over the rows of a set's sites leaves sites below them alone;
    # the strict lower triangle of up.T, row by row, is the pair-rank order
    up = np.ones((n_sites, n_sites), dtype=np.int64)
    up.T[np.tri(n_sites, n_sites, -1, dtype=bool)] = _two_point_signs(table, n_sites)
    # binom[x, j] = C(x, j) for colex ranks; no step reads past the popcount
    # the walk peaks at
    cols = peak_popcount(eps) + 1
    binom = np.array(
        [[math.comb(x, j) for j in range(cols)] for x in range(n_sites + 1)], dtype=np.int64
    )
    # int64 cannot wrap: a creation multiplies the sum of the amplitudes'
    # magnitudes by at most N, an annihilation by at most the peak popcount
    # p, so after c creations and a annihilations every amplitude and every
    # partial sum is at most N^c * p^a.  Within the caps the worst word has
    # order 8 and peak 3 at N = 400: 400^5 * 3^3 < 2.8e14 < 2^53
    # (test_moment_amplitudes_stay_below_2_53_within_the_caps)
    ranks, amps, k, t_power = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), 0, 0
    for letter in reversed(eps):
        if letter == "*":
            t_power += k
        ranks, amps = _apply_sum(ranks, amps, k, letter, up, binom)
        k += 1 if letter == "*" else -1
        if not ranks.size:
            return 0.0
    if k != 0:
        return 0.0
    return _round_once(int(amps[0]), table.t, t_power, n_sites, r // 2)


def limit_coefficient_estimate(
    pairing: PairPartition, eps: str, n_sites: int, table: CoefficientTable
) -> float:
    """Average over all tuples in the pairing's class (distinct values per pair,
    values up to n_sites) of the coefficient product indexed by crossings and
    nestings, normalized by n_sites^pairs.

    On a two-point table every factor is a base value m = +-1 times t, 1/t
    or 1 (for ('*','1'), ('1','*') and equal letters), so the estimate is
    t^E * S / N^n: E counts ('*','1') factors less ('1','*') ones, and S is
    the integer sum over tuples of the product of the base values.  S is a
    contraction over block pairs of the sign matrix (an odd number of
    factors join the two blocks) or the all-ones matrix (an even number),
    both with a zero diagonal, which keeps the values distinct.  Every
    partial sum is an integer below N^n <= MAX_ESTIMATE_TUPLES < 2^53, so
    the float sums are exact in any order, and the result is t^E * S / N^n
    rounded once.  Any other table raises ValidationError.
    """
    check_eps(eps)
    n = pairing.n
    if len(eps) != 2 * n:
        raise ValidationError(
            f"pattern of length {len(eps)} for a pairing of {2 * n} positions"
        )
    if n > MAX_ESTIMATE_PAIRS:
        raise SizeLimitError(f"{n} pairs exceed the {MAX_ESTIMATE_PAIRS}-pair cap")
    if n_sites**n > MAX_ESTIMATE_TUPLES:
        raise SizeLimitError(
            f"{n_sites}^{n} tuples exceed the {MAX_ESTIMATE_TUPLES} cap"
        )
    if n_sites < n:
        raise ValidationError(f"need at least {n} sites for {n} distinct values")
    if n_sites >= 2 and not table.covers(n_sites):
        raise ValidationError(f"table does not cover all pairs up to {n_sites}")
    if n == 1:
        return 1.0  # the empty product over N tuples
    u = _two_point_signs(table, n_sites)
    block = pairing.block_of()
    odd: set[tuple[int, int]] = set()  # block pairs an odd number of factors join
    exponent = 0
    for x, y in _closed_form_factors(pairing):
        odd ^= {(block[x] - 1, block[y] - 1)}
        letters = (eps[x - 1], eps[y - 1])
        exponent += (letters == ("*", "1")) - (letters == ("1", "*"))
    pairs = list(itertools.combinations(range(n), 2))
    signs = distinct = None
    if odd:
        # mu(min, max) off the diagonal: base_matrix fills the upper triangle,
        # and the lower one in row-major order is pair-rank order
        signs = table.base_matrix(n_sites)
        signs[np.tri(n_sites, n_sites, -1, dtype=bool)] = u
    if len(odd) < len(pairs):
        distinct = np.ones((n_sites, n_sites))
        np.fill_diagonal(distinct, 0.0)
    a = {pair: signs if pair in odd else distinct for pair in pairs}
    if n == 2:
        total = a[0, 1].sum()
    elif n == 3:
        total = ((a[0, 1] @ a[1, 2]) * a[0, 2]).sum()
    else:
        # per value of block 0: its rows of a[0, b] weigh blocks 1, 2 and 3,
        # and one matmul sums block 2 out of the matrices among them
        total = 0.0
        for v in range(n_sites):
            inner = (a[1, 2] * a[0, 2][v]) @ a[2, 3] * a[1, 3]
            total += a[0, 1][v] @ inner @ a[0, 3][v]
    return _round_once(int(total), table.t, exponent, n_sites, n)


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
        problems = []
        if self.mode not in ("moment", "lambda"):
            problems.append(f"mode must be 'moment' or 'lambda', got {self.mode!r}")
        if not isinstance(self.eps, str) or not self.eps or any(
            c not in LETTERS for c in self.eps
        ):
            problems.append(f"eps {self.eps!r} must be a nonempty string over '1'/'*'")
        if not (math.isfinite(self.q) and math.isfinite(self.t)):
            problems.append(f"q and t must be finite, got q={self.q}, t={self.t}")
        elif self.t <= 0:
            problems.append(f"need t > 0, got {self.t}")
        elif abs(self.q) > self.t:
            problems.append(f"two-point law needs |q| <= t, got q={self.q}, t={self.t}")
        if not self.ns:
            problems.append("ns must be a nonempty increasing list of sizes")
        elif any(n < 1 for n in self.ns) or list(self.ns) != sorted(set(self.ns)):
            problems.append(f"ns {self.ns!r} must be strictly increasing and positive")
        elif max(self.ns) > MAX_TABLE_SITES:
            problems.append(f"tables are capped at {MAX_TABLE_SITES} sites")
        if self.mode == "moment":
            if self.ns and max(self.ns) > MAX_SUM_SIZE:
                problems.append(f"moments support at most {MAX_SUM_SIZE} sites")
            if len(self.eps) > MAX_SUM_LENGTH:
                problems.append(f"moment order is capped at {MAX_SUM_LENGTH}")
            elif self.ns and isinstance(self.eps, str) and set(self.eps) <= set(LETTERS):
                too_many = _state_cap_problem(max(self.ns), self.eps)
                if too_many:
                    problems.append(too_many)
        if self.mode == "lambda":
            if self.pairing is None:
                problems.append("lambda mode needs a pairing")
            else:
                if self.pairing.n > MAX_ESTIMATE_PAIRS:
                    problems.append(
                        f"estimator is capped at {MAX_ESTIMATE_PAIRS} pairs"
                    )
                if isinstance(self.eps, str) and len(self.eps) != self.pairing.size:
                    problems.append(
                        f"eps length {len(self.eps)} != pairing size {self.pairing.size}"
                    )
                if self.ns and self.pairing.n >= 1 and max(self.ns) ** self.pairing.n > MAX_ESTIMATE_TUPLES:
                    problems.append(
                        f"{max(self.ns)}^{self.pairing.n} tuples exceed {MAX_ESTIMATE_TUPLES}"
                    )
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
    the restriction, plus the limiting target when one is defined."""
    problems = config.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    top = max(config.ns)
    table = sampled_table(top, config.q, config.t, config.seed)
    target: Optional[float]
    if config.mode == "moment":
        target = wick_mixed(config.eps).evaluate(config.q, config.t)
    else:
        assert config.pairing is not None
        if pair_pattern_is_default(config.pairing, config.eps):
            target = pair_limit_monomial(config.pairing, config.eps).evaluate(
                config.q, config.t
            )
        else:
            target = None
    report = ExperimentReport(config=config)
    for n in config.ns:
        if config.mode == "moment":
            value = partial_sum_moment(n, config.eps, table)
        else:
            assert config.pairing is not None
            value = limit_coefficient_estimate(config.pairing, config.eps, n, table)
        err = None if target is None else abs(value - target)
        report.rows.append(ExperimentRow(n=n, value=value, target=target, abs_err=err))
    return report
