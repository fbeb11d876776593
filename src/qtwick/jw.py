"""Sparse spin-chain realization of the deformed commutation relations.

An n-slot chain state is a real combination of occupation bitmasks (slot j is
bit j-1).  Chain element i acts as a lowering factor at slot i, a diagonal
factor diag(1, sqrt(t) * mu(j, i)) at each slot j < i, and diag(1, sqrt(t))
at each slot j > i; the adjoint replaces lowering by raising.  Products of
such factors stay monomial: every basis state maps to one scaled basis state
or to zero, so states never need dense storage.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coeffs import CoefficientTable, _lookup_matrix, _pair_rank
from .errors import SizeLimitError
from .wickpoly import LETTERS

# check_commutation forms the 4n(n-1) relation scalars as [n, n] arrays and
# keeps the failing ones as flat indices: n = 1024 takes about 0.4 s and
# peaks near 170 MB with every relation failing (136 MB when none fail)
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


def _occupied_entries(n: int, site: int, table: CoefficientTable) -> np.ndarray:
    """Occupied-bit entries of chain element `site`'s diagonal factors at
    slots 1..n: sqrt(t) * mu(k, site) at slot k < site and sqrt(t) at k > site.
    Slot `site` holds the ladder factor; its entry is not read."""
    # mu(k, site) for k = 1..site-1 are consecutive in pair-rank order;
    # packed(n) raises unless the table covers every pair up to n
    first = _pair_rank(1, site)
    sq = math.sqrt(table.t)
    out = np.full(n, sq)
    np.multiply(sq, table.packed(n)[first:first + site - 1], out=out[:site - 1])
    return out


def build_jw(n: int, i: int, table: CoefficientTable, adjoint: bool = False) -> MonomialOperator:
    """Chain element i (or its adjoint) on an n-slot chain."""
    if not 1 <= i <= n:
        raise ValueError(f"site {i} outside 1..{n}")
    entries = _occupied_entries(n, i, table).tolist()
    # one action per distinct entry: a sampled table has at most three
    actions = {x: diagonal(1.0, x) for x in set(entries)}
    slots = list(map(actions.__getitem__, entries))
    slots[i - 1] = RAISE if adjoint else LOWER
    return MonomialOperator(n, tuple(slots))


def vacuum_state() -> SparseState:
    return {0: 1.0}


def vacuum_expectation(
    op_seq: Sequence[tuple[int, bool]], n: int, table: CoefficientTable
) -> float:
    """Vacuum coefficient of a product of chain elements applied to the vacuum.

    op_seq lists (site, adjoint) factors in product order, left to right; the
    rightmost factor acts first.
    """
    state = vacuum_state()
    for site, adjoint in reversed(op_seq):
        state = build_jw(n, site, table, adjoint).apply(state)
        if not state:
            return 0.0
    return state.get(0, 0.0)


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
    entries = np.empty((n, n))
    for site in range(1, n + 1):
        entries[:, site - 1] = _occupied_entries(n, site, table)
    # relation (i, j) sits at [i-1, j-1]: element j's entry at slot i, and
    # element i's entry at slot j
    at_i, at_j = entries, entries.T
    ascending = np.less.outer(np.arange(n), np.arange(n))
    devs = np.empty((n, n, len(LETTERS), len(LETTERS)))
    # extreme tables overflow or divide by zero here; the results follow
    # float rules, as the scalar products do
    with np.errstate(all="ignore"):
        for a, e1 in enumerate(LETTERS):
            lhs_i, rhs_i = (at_i, 1.0) if e1 == "1" else (1.0, at_i)
            for b, e2 in enumerate(LETTERS):
                lhs_j, rhs_j = (1.0, at_j) if e2 == "1" else (at_j, 1.0)
                mu = _lookup_matrix(table, e2, e1, n).T
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
    # i == j is no relation: nan is neither a failure nor a maximum, the way
    # max() and `>` pass over a nan deviation
    devs[np.arange(n), np.arange(n)] = np.nan
    return CommutationReport(
        n=n, tolerance=tolerance,
        max_deviation=float(np.fmax.reduce(devs, axis=None, initial=0.0)),
        failures=CommutationFailures(devs, np.flatnonzero(devs > tolerance)),
    )
