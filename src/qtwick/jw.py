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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coeffs import CoefficientTable, _pair_rank
from .errors import SizeLimitError
from .wickpoly import LETTERS

# check_commutation composes 4 n^2 operator pairs of n slots each; n = 48
# takes about 2 s
MAX_VERIFY_SITES = 48

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

    def __matmul__(self, other: "MonomialOperator") -> "MonomialOperator":
        """Operator product self * other (other acts first)."""
        if self.n != other.n:
            raise ValueError(f"width mismatch: {self.n} vs {other.n}")
        slots = []
        for mine, theirs in zip(self.slots, other.slots):
            images = []
            for bit in (0, 1):
                first = theirs[bit]
                if first is None:
                    images.append(None)
                    continue
                c1, mid = first
                second = mine[mid]
                if second is None:
                    images.append(None)
                    continue
                c2, out = second
                images.append((c1 * c2, out))
            slots.append((images[0], images[1]))
        return MonomialOperator(self.n, tuple(slots), self.scalar * other.scalar)

    def scaled(self, c: float) -> "MonomialOperator":
        return MonomialOperator(self.n, self.slots, self.scalar * c)

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

    def canonical(self) -> Optional[tuple[tuple[SlotAction, ...], float]]:
        """Slot actions rescaled so each first surviving image has coefficient 1,
        with the absorbed factors pushed into the scalar; None for the zero
        operator (some slot kills both basis states)."""
        slots = []
        scalar = self.scalar
        for action in self.slots:
            lead = action[0] if action[0] is not None else action[1]
            if lead is None:
                return None
            c = lead[0]
            scalar *= c
            slots.append(tuple(
                None if img is None else (img[0] / c, img[1]) for img in action
            ))
        if scalar == 0.0:
            return None
        return tuple(slots), scalar


def build_jw(n: int, i: int, table: CoefficientTable, adjoint: bool = False) -> MonomialOperator:
    """Chain element i (or its adjoint) on an n-slot chain."""
    if not 1 <= i <= n:
        raise ValueError(f"site {i} outside 1..{n}")
    # mu(j, i) for j = 1..i-1 are consecutive in pair-rank order; packed(n)
    # raises unless the table covers every pair up to n
    first = _pair_rank(1, i)
    column = table.packed(n)[first:first + i - 1].tolist()
    sq = math.sqrt(table.t)
    slots = []
    for j in range(1, n + 1):
        if j < i:
            slots.append(diagonal(1.0, sq * column[j - 1]))
        elif j == i:
            slots.append(RAISE if adjoint else LOWER)
        else:
            slots.append(diagonal(1.0, sq))
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


@dataclass
class CommutationCheck:
    """One verified exchange relation and its numerical deviation."""

    i: int
    j: int
    left: str
    right: str
    deviation: float


@dataclass
class CommutationReport:
    n: int
    tolerance: float
    max_deviation: float
    failures: list[CommutationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_commutation(n: int, table: CoefficientTable, tolerance: float = 1e-12) -> CommutationReport:
    """Verify b_i^e b_j^e' = mu_{e',e}(j, i) * b_j^e' b_i^e for all i != j <= n
    and all letter pairs, comparing canonicalized monomial forms."""
    if n > MAX_VERIFY_SITES:
        raise SizeLimitError(f"verifying {n} sites exceeds the {MAX_VERIFY_SITES}-site cap")
    ops = {
        (site, letter): build_jw(n, site, table, adjoint=(letter == "*"))
        for site in range(1, n + 1)
        for letter in LETTERS
    }
    report = CommutationReport(n=n, tolerance=tolerance, max_deviation=0.0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for e1 in LETTERS:
                for e2 in LETTERS:
                    lhs = ops[(i, e1)] @ ops[(j, e2)]
                    rhs = ops[(j, e2)] @ ops[(i, e1)]
                    mu = table.lookup(e2, e1, j, i)
                    dev = _monomial_deviation(lhs, rhs.scaled(mu))
                    report.max_deviation = max(report.max_deviation, dev)
                    if dev > tolerance:
                        report.failures.append(CommutationCheck(i, j, e1, e2, dev))
    return report


def _monomial_deviation(a: MonomialOperator, b: MonomialOperator) -> float:
    """Largest coefficient difference between two monomials in canonical form;
    infinity when their structure (kill pattern or bit images) differs."""
    ca = a.canonical()
    cb = b.canonical()
    if ca is None or cb is None:
        return 0.0 if ca is None and cb is None else math.inf
    slots_a, scalar_a = ca
    slots_b, scalar_b = cb
    dev = abs(scalar_a - scalar_b)
    for act_a, act_b in zip(slots_a, slots_b):
        for img_a, img_b in zip(act_a, act_b):
            if (img_a is None) != (img_b is None):
                return math.inf
            if img_a is None:
                continue
            if img_a[1] != img_b[1]:
                return math.inf
            dev = max(dev, abs(img_a[0] - img_b[0]))
    return dev
