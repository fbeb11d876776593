"""Sparse spin-chain realization of the deformed commutation relations.

An n-slot chain state is a real combination of occupation bitmasks (slot j is
bit j-1).  Chain element i acts as a lowering factor at slot i, a diagonal
factor diag(1, sqrt(t) * mu(j, i)) at each slot j < i, and diag(1, sqrt(t))
at each slot j > i; the adjoint replaces lowering by raising.  Products of
such factors stay monomial: every basis state maps to one scaled basis state
or to zero, so states never need dense storage.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coeffs import CoefficientTable, _coefficient, _pair_rank
from .errors import SizeLimitError, ValidationError
from .wickpoly import LETTERS

# check_commutation forms the 4n(n-1) relation scalars as [n, n] arrays and
# keeps the failing ones as flat indices: n = 1024 takes about 0.3 s and
# peaks near 150 MB, whether every relation fails or none does
MAX_VERIFY_SITES = 1024
# failures a report's iterator builds per step, which bounds its temporaries
_FAILURE_CHUNK = 1 << 16

SparseState = dict[int, float]

# image of bit 0 and bit 1: (coefficient, new bit) or None for "killed"
SlotAction = tuple[Optional[tuple[float, int]], Optional[tuple[float, int]]]

LOWER: SlotAction = (None, (1.0, 0))
RAISE: SlotAction = ((1.0, 1), None)


def diagonal(on_empty: float, on_occupied: float) -> SlotAction:
    a = (on_empty, 0) if on_empty != 0.0 else None
    b = (on_occupied, 1) if on_occupied != 0.0 else None
    return (a, b)


IDENTITY: SlotAction = diagonal(1.0, 1.0)


@dataclass(frozen=True)
class MonomialOperator:
    """Tensor product of per-slot actions times an overall scalar."""

    n: int
    slots: tuple[SlotAction, ...]
    scalar: float = 1.0

    def __post_init__(self) -> None:
        if len(self.slots) != self.n:
            raise ValueError(f"{len(self.slots)} slot actions for width {self.n}")

    def apply(self, state: SparseState) -> SparseState:
        out: SparseState = {}
        for mask, amp in state.items():
            coeff = amp * self.scalar
            new_mask = 0
            for j, action in enumerate(self.slots):
                image = action[(mask >> j) & 1]
                if image is None:
                    coeff = 0.0
                    break
                coeff *= image[0]
                new_mask |= image[1] << j
            if coeff != 0.0:
                s = out.get(new_mask, 0.0) + coeff
                if s == 0.0:
                    out.pop(new_mask, None)
                else:
                    out[new_mask] = s
        return out


def _check_site(site: int, n: int) -> None:
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside 1..{n}")


def build_jw(n: int, i: int, table: CoefficientTable, adjoint: bool = False) -> MonomialOperator:
    """Chain element i (or its adjoint) on an n-slot chain.  The occupied-bit
    entry of the diagonal factor at slot k is sqrt(t) * mu(k, i) for k < i
    and sqrt(t) for k > i; slot i holds the ladder factor."""
    _check_site(i, n)
    table._check_covers(n)
    # mu(k, i) for k = 1..i-1 are consecutive in pair-rank order
    first = _pair_rank(1, i)
    sq = math.sqrt(table.t)
    entries = np.full(n, sq)
    np.multiply(sq, table._read(np.arange(first, first + i - 1)), out=entries[:i - 1])
    entries = entries.tolist()
    # one action per distinct entry: a sampled table has at most three
    actions = {x: diagonal(1.0, x) for x in set(entries)}
    slots = list(map(actions.__getitem__, entries))
    slots[i - 1] = RAISE if adjoint else LOWER
    return MonomialOperator(n, tuple(slots))


def _parse_sites(text: str) -> list[tuple[int, bool]]:
    """The (site, adjoint) factors of a `jw --ops` list of <i> or <i>* tokens,
    or of the one token of `jw --dump-op`."""
    ops = []
    for token in text.split(","):
        token = token.strip()
        adjoint = token.endswith("*")
        if adjoint:
            token = token[:-1]
        if not token.isdigit():
            raise ValidationError(f"bad site token {token!r}; use <i> or <i>*")
        ops.append((int(token), adjoint))
    return ops


def _vacuum_walk(
    op_seq: Sequence[tuple[int, bool]], n: int
) -> Optional[tuple[list[int], list[tuple[int, int]]]]:
    """The occupancy walk of vacuum_expectation, which reads no coefficient.

    From the vacuum every factor keeps one basis state, so the walk holds the
    occupied sites alone.  It returns None when a factor lowers an empty
    slot or raises an occupied one, or when the word leaves a slot occupied:
    the vacuum coefficient is then 0.0.  Otherwise it returns the ranks of
    the base values mu(slot, site) the factors read, in read order, and for
    each factor, rightmost first, how many of those it reads and how many
    occupied slots lie above its site.
    """
    for site, _ in op_seq:
        _check_site(site, n)
    occupied: list[int] = []  # ascending
    ranks: list[int] = []
    factors: list[tuple[int, int]] = []
    for site, adjoint in reversed(op_seq):
        k = bisect.bisect_left(occupied, site)
        if (k < len(occupied) and occupied[k] == site) == adjoint:
            return None
        if not adjoint:
            del occupied[k]
        # the other occupied slots: below `site` they read mu(slot, site), of
        # rank first + slot; above it they read no coefficient
        first = _pair_rank(1, site) - 1
        ranks += [first + slot for slot in occupied[:k]]
        factors.append((k, len(occupied) - k))
        if adjoint:
            occupied.insert(k, site)
    return None if occupied else (ranks, factors)


def vacuum_expectation(
    op_seq: Sequence[tuple[int, bool]], n: int, table: CoefficientTable
) -> float:
    """Vacuum coefficient of a product of chain elements applied to the vacuum.

    op_seq lists (site, adjoint) factors in product order, left to right; the
    rightmost factor acts first.  The occupancy walk (_vacuum_walk) finds the
    base values the factors read, and only those are read from the table.
    A factor multiplies in, in ascending slot order, the occupied-bit entries
    of the occupied slots: sqrt(t) * mu(slot, site) below its site and
    sqrt(t) above it.  The factors build_jw(...).apply would take at the
    other slots are exactly 1.0, so the bits are the same as that walk's,
    which tests/_brute.py keeps.
    """
    walk = _vacuum_walk(op_seq, n)
    table._check_covers(n)
    if walk is None:
        return 0.0
    ranks, factors = walk
    sq = math.sqrt(table.t)
    amp = 1.0
    values = iter(table._read(ranks).tolist())
    for below, above in factors:
        for m in itertools.islice(values, below):
            entry = sq * m
            if entry == 0.0:
                return 0.0  # diagonal() kills the occupied bit: no inf * 0
            amp *= entry
        for _ in range(above):
            amp *= sq
        if amp == 0.0:
            return 0.0
    return amp


@dataclass(slots=True)
class CommutationCheck:
    """One verified exchange relation and its numerical deviation."""

    i: int
    j: int
    left: str
    right: str
    deviation: float


class CommutationFailures(Sequence):
    """The failing relations of a check_commutation report, in (i, j, left,
    right) order.  They stay flat indices into the [n, n, 2, 2] deviation
    array; a CommutationCheck is built only for an item that is read, so the
    length and truth of a report with millions of failures cost nothing."""

    def __init__(self, devs: np.ndarray, flat: np.ndarray):
        self._devs = devs
        self._flat = flat

    def __len__(self) -> int:
        return self._flat.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self._checks(self._flat[k]))
        return next(self._checks(self._flat[[k]]))

    def __iter__(self) -> Iterator[CommutationCheck]:
        for start in range(0, self._flat.size, _FAILURE_CHUNK):
            yield from self._checks(self._flat[start:start + _FAILURE_CHUNK])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} failing relations>"

    def _checks(self, flat: np.ndarray) -> Iterator[CommutationCheck]:
        i, j, a, b = np.unravel_index(flat, self._devs.shape)
        return map(
            CommutationCheck,
            (i + 1).tolist(),
            (j + 1).tolist(),
            map(LETTERS.__getitem__, a.tolist()),
            map(LETTERS.__getitem__, b.tolist()),
            self._devs.ravel()[flat].tolist(),
        )


@dataclass
class CommutationReport:
    n: int
    tolerance: float
    max_deviation: float
    failures: Sequence[CommutationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_commutation(n: int, table: CoefficientTable, tolerance: float = 1e-12) -> CommutationReport:
    """Verify b_i^e b_j^e' = mu_{e',e}(j, i) * b_j^e' b_i^e for all i != j <= n
    and all letter pairs, comparing canonicalized monomial forms.

    In the canonical form each slot's first surviving image has coefficient
    1 and the absorbed coefficients multiply the scalar, slot by slot.  The
    two products differ only at slots i and j: at every other slot both
    multiply the same two diagonal entries (and float x*y == y*x), so that
    slot is the same on both sides and absorbs 1.0.  At slot i the leading
    coefficient is element j's occupied entry there when that diagonal reads
    the occupied bit, that is, when it acts before a lowering or after a
    raising, and 1.0 otherwise; likewise at slot j.  A zero entry kills the
    product.  So each side reduces to its scalar, (c_lo * c_hi) on the left
    and ((mu * c_lo) * c_hi) on the right, with lo, hi = min, max of i, j.
    """
    if n > MAX_VERIFY_SITES:
        raise SizeLimitError(f"verifying {n} sites exceeds the {MAX_VERIFY_SITES}-site cap")
    ascending = np.less.outer(np.arange(n), np.arange(n))
    # base[i-1, j-1] = mu(min(i, j), max(i, j)); the diagonal is 0.0
    base = table.base_matrix(n)
    base += base.T
    # relation (i, j) sits at [i-1, j-1]: element j's entry at slot i, and
    # element i's entry at slot j, as build_jw gives them.  Every
    # operand is C-ordered, made from `base` by elementwise steps: at n a
    # power of two a transposed view strides by 8n bytes, which made the
    # steps 1.5x slower
    sq = math.sqrt(table.t)
    at_i = np.where(ascending, sq * base, sq)
    at_j = np.where(ascending, sq, sq * base)
    devs = np.empty((n, n, len(LETTERS), len(LETTERS)))
    # extreme tables overflow or divide by zero here; the results follow
    # float rules, as the scalar products do
    with np.errstate(all="ignore"):
        for a, e1 in enumerate(LETTERS):
            lhs_i, rhs_i = (at_i, 1.0) if e1 == "1" else (1.0, at_i)
            for b, e2 in enumerate(LETTERS):
                lhs_j, rhs_j = (1.0, at_j) if e2 == "1" else (at_j, 1.0)
                # mu_{e2,e1}(j, i); the diagonal is not read
                mu = np.where(ascending, _coefficient(e2, e1, base, table.t, False),
                              _coefficient(e2, e1, base, table.t, True))
                lhs = lhs_i * lhs_j
                rhs = np.where(ascending, mu * rhs_i * rhs_j, mu * rhs_j * rhs_i)
                # a zero entry kills its product; on the right, mu can be
                # 1 / (t * 0.0) = inf beside it, and the product reads nan
                lhs_zero = lhs == 0.0
                rhs_zero = (rhs == 0.0) | (rhs_i == 0.0) | (rhs_j == 0.0)
                devs[:, :, a, b] = np.where(
                    lhs_zero | rhs_zero,
                    np.where(lhs_zero & rhs_zero, 0.0, np.inf),
                    np.abs(lhs - rhs),
                )
                del mu, lhs, rhs  # before the next pair's arrays are made
    # i == j is no relation: nan is neither a failure nor a maximum, the way
    # max() and `>` pass over a nan deviation
    devs[np.arange(n), np.arange(n)] = np.nan
    return CommutationReport(
        n=n, tolerance=tolerance,
        max_deviation=float(np.fmax.reduce(devs, axis=None, initial=0.0)),
        failures=CommutationFailures(devs, np.flatnonzero(devs > tolerance)),
    )
