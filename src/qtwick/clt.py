"""Finite-size moments of normalized sums, the pairing-coefficient estimator,
and deterministic convergence experiments.

The normalized sum over the first N chain elements has vacuum moments that
approach pairing sums weighted by q^crossings * t^nestings; the estimator
averages the closed-form coefficient product over all index tuples in one
pairing class.  Experiments sample a single coefficient table at the largest
requested size and evaluate every smaller size on its restriction; they return
rows of numbers, which the command line renders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np

from .coeffs import (
    MAX_TABLE_SITES,
    CoefficientTable,
    _closed_form_factors,
    _lookup_matrix,
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
# about 26 bytes each while a step runs: order 6 at 400 sites (10.6M states)
# takes 6.7 s and 326 MB, order 8 at 130 sites (11.4M) 8.5 s and 318 MB
MAX_SUM_STATES = 12_000_000
MAX_ESTIMATE_TUPLES = 10**7
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
    sites: np.ndarray, lead: np.ndarray, up: np.ndarray, binom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys and contributions of adding each free site to each set, state by
    state and then by ascending site."""
    rows, k = sites.shape
    n = up.shape[0]
    prods = np.ones((rows, n))
    for r in range(k):
        prods *= up[sites[:, r]]
    contrib = lead[:, None] * prods
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
    sites: np.ndarray, lead: np.ndarray, up: np.ndarray, binom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keys and contributions of removing each occupied site from each set,
    state by state and then by ascending site."""
    rows, k = sites.shape
    contrib = np.repeat(lead[:, None], k, axis=1)
    for r in range(k - 1):
        contrib[:, r + 1:] *= up[sites[:, r:r + 1], sites[:, r + 1:]]
    slot = np.arange(k)
    shifted = binom[sites, slot + 1]
    kept = binom[sites, slot]
    keys = np.cumsum(shifted, axis=1) - shifted
    keys += kept.sum(axis=1)[:, None] - np.cumsum(kept, axis=1)
    return keys.ravel(), contrib.ravel()


def _accumulate(
    sums: np.ndarray, last: np.ndarray, keys: np.ndarray, contrib: np.ndarray, first: int
) -> None:
    """Add each contribution to the running sum of its key, one at a time in
    candidate order, and raise last[key] to the global index (first + local
    index) of every candidate that finds its key's sum at exactly 0.0, that
    is, absent from a dict that drops exact zeros.

    The additions go in layers by within-key index, so a layer touches each
    key once and the keys' sums stay sequential; np.sum would add pairwise.
    """
    m = keys.size
    pos = np.arange(m)
    # one plain sort of key * m + index orders by key, then by candidate,
    # an order of magnitude faster than a stable argsort
    by_key = np.sort(keys * m + pos)
    order = by_key % m
    by_key //= m
    starts = np.ones(m, dtype=bool)
    np.not_equal(by_key[1:], by_key[:-1], out=starts[1:])
    within = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    order = order[np.sort(within * m + pos) % m]
    key = keys[order]
    add = contrib[order]
    before = np.empty(m)
    lo = 0
    for hi in np.cumsum(np.bincount(within)).tolist():
        layer = key[lo:hi]
        cur = sums[layer]
        before[lo:hi] = cur
        sums[layer] = cur + add[lo:hi]
        lo = hi
    fresh = before == 0.0
    np.maximum.at(last, key[fresh], order[fresh] + first)


def _apply_sum(
    ranks: np.ndarray, amps: np.ndarray, k: int, letter: str, up: np.ndarray,
    sq: float, binom: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the sum over all sites of the chain element (letter '1') or its
    adjoint (letter '*') to the popcount-k state with the given colex ranks
    and amplitudes.

    The result is the state a dict {rank: amplitude} would hold after adding
    the contributions one by one, in input order and then by ascending site,
    dropping a key whose sum hits exactly 0.0: the same sums, bit for bit,
    and the keys in the order of their last insertion.
    """
    n = up.shape[0]
    create = letter == "*"
    per_state = n - k if create else k
    if not per_state:
        return ranks[:0], amps[:0]
    size = int(binom[n, k + 1 if create else k - 1])
    sums = np.zeros(size)
    last = np.zeros(size, dtype=np.int64)
    step = max(1, _CHUNK // per_state)
    lead = sq ** k if create else sq ** (k - 1)
    engine = _create if create else _annihilate
    for lo in range(0, ranks.size, step):
        sites = _unrank(ranks[lo:lo + step], k, binom)
        keys, contrib = engine(sites, amps[lo:lo + step] * lead, up, binom)
        _accumulate(sums, last, keys, contrib, lo * per_state)
    live = np.flatnonzero(sums)
    live = live[np.argsort(last[live])]
    return live, sums[live]


def partial_sum_moment(n_sites: int, eps: str, table: CoefficientTable) -> float:
    """Vacuum moment of the normalized sum of the first n_sites chain elements,
    with one factor per letter of eps (product order, '1' element / '*' adjoint)."""
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
    if n_sites >= 2 and not table.covers(n_sites):
        raise ValidationError(f"table does not cover all pairs up to {n_sites}")
    # up[j, i] = mu(j+1, i+1) above the diagonal and 1.0 elsewhere, so a
    # product over the rows of a set's sites leaves sites below them alone
    up = table.base_matrix(n_sites)
    up[np.tri(n_sites, dtype=bool)] = 1.0
    sq = float(np.sqrt(table.t))
    # binom[x, j] = C(x, j) for colex ranks; no step reads past the popcount
    # the walk peaks at
    cols = peak_popcount(eps) + 1
    binom = np.array(
        [[math.comb(x, j) for j in range(cols)] for x in range(n_sites + 1)], dtype=np.int64
    )
    ranks, amps, k = np.zeros(1, dtype=np.int64), np.ones(1), 0
    # extreme tables overflow here; the moment follows float rules, and the
    # command line refuses a non-finite one
    with np.errstate(all="ignore"):
        for letter in reversed(eps):
            ranks, amps = _apply_sum(ranks, amps, k, letter, up, sq, binom)
            k += 1 if letter == "*" else -1
            if not ranks.size:
                break
    vac = float(amps[0]) if k == 0 and ranks.size else 0.0
    if r % 2 == 0:
        return vac / float(n_sites ** (r // 2))
    return vac / float(n_sites) ** (r / 2)


def limit_coefficient_estimate(
    pairing: PairPartition, eps: str, n_sites: int, table: CoefficientTable
) -> float:
    """Average over all tuples in the pairing's class (distinct values per pair,
    values up to n_sites) of the coefficient product indexed by crossings and
    nestings, normalized by n_sites^pairs.

    The values of blocks 1..n-2 run over distinct tuples; for each, the values
    of blocks n-1 and n span one [N, N] grid, the product in product order of
    the factors on it: the whole matrix, a row broadcast along one axis, or a
    scalar (a factor always runs from an earlier block to a later one).  The
    leading factors that vary along at most one axis multiply as vectors, the
    next factor forms the grid with them, and the rest multiply it in place,
    so each cell sees the multiplications of a ones-grid times every factor
    in turn, less the first (1.0 * x == x), in the same order.
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
        return float(n_sites) / n_sites  # empty product over N tuples
    # extreme tables overflow or divide by zero here; the estimate follows
    # float rules, and the command line refuses a non-finite one
    with np.errstate(all="ignore"):
        block = pairing.block_of()
        mats: dict[tuple[str, str], np.ndarray] = {}
        # each factor as (array, pick): the array, indexed by the values pick
        # takes from the outer tuple, is the factor on the grid of blocks n-1, n
        forms = []
        # the grid axes each factor varies along
        axes: list[set[int]] = []
        for x, y in _closed_form_factors(pairing):
            letters = (eps[x - 1], eps[y - 1])
            if letters not in mats:
                mats[letters] = _lookup_matrix(table, *letters, n_sites)
            m = mats[letters]
            # 0-based blocks, a < b; n-2 and n-1 are the grid axes
            a, b = block[x] - 1, block[y] - 1
            if a == n - 2:
                forms.append((m, None))
                axes.append({0, 1})
            elif b >= n - 2:  # a row of m, along grid axis b
                row = m[:, :, None] if b == n - 2 else m[:, None, :]
                forms.append((row, itemgetter(a)))
                axes.append({b - (n - 2)})
            else:
                forms.append((m, itemgetter(a, b)))
                axes.append(set())
        # factors [0, lead) multiply as vectors; factor lead forms the grid
        lead = 1
        while lead < len(forms) and len(set().union(*axes[:lead + 1])) < 2:
            lead += 1
        grid = np.empty((n_sites, n_sites))
        total = 0.0
        for outer in itertools.permutations(range(n_sites), n - 2):
            factors = [arr if pick is None else arr[pick(outer)] for arr, pick in forms]
            head = factors[0] if factors else 1.0
            for f in factors[1:lead]:
                head = head * f
            if len(factors) > lead:
                np.multiply(head, factors[lead], out=grid)
            else:
                grid[...] = head
            for f in factors[lead + 1:]:
                grid *= f
            for v in outer:
                grid[v, :] = 0.0
                grid[:, v] = 0.0
            np.fill_diagonal(grid, 0.0)
            total += float(grid.sum())
    return total / n_sites**n


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
