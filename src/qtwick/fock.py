"""Truncated tensor algebra with the two-parameter symmetrized inner product.

Vectors are finite real combinations of basis words over the letters 1..d,
truncated at degree m.  The inner product of two degree-n words sums
q^inversions * t^(n(n-1)/2 - inversions) over all letter-preserving position
bijections; creation prepends a letter, annihilation removes one occurrence
at a time with a q-weight for its depth and a t-weight for what sits below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import SizeLimitError, TruncationError, ValidationError

Word = tuple[int, ...]
FockVector = dict[Word, float]

# one-sided S_n sum; 8!  = 40320 permutations is the agreed ceiling
MAX_INNER_DEGREE = 8
MAX_GRAM_WORDS = 256

OperatorKind = Union[tuple[str, int], tuple[str]]


@dataclass(frozen=True)
class FockParams:
    """Dimension d, truncation degree m, and the deformation parameters (q, t)."""

    d: int
    m: int
    q: float
    t: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.m < 1:
            raise ValueError("need m >= 1")
        if not (math.isfinite(self.q) and math.isfinite(self.t)):
            raise ValidationError(f"q and t must be finite, got q={self.q}, t={self.t}")
        if self.t <= 0:
            raise ValueError("need t > 0")

    @property
    def hilbert(self) -> bool:
        """Whether |q| < t, the regime where the form is positive definite."""
        return abs(self.q) < self.t


def vacuum() -> FockVector:
    return {(): 1.0}


def _check_letter(i: int, p: FockParams) -> None:
    if not 1 <= i <= p.d:
        raise ValueError(f"letter {i} outside 1..{p.d}")


def _check_word(w: Word, p: FockParams) -> None:
    if len(w) > p.m:
        raise TruncationError(f"word of degree {len(w)} exceeds truncation m={p.m}")
    for x in w:
        _check_letter(x, p)


def add(u: FockVector, v: FockVector) -> FockVector:
    out = dict(u)
    for w, c in v.items():
        s = out.get(w, 0.0) + c
        if s == 0.0:
            out.pop(w, None)
        else:
            out[w] = s
    return out


def scale(v: FockVector, c: float) -> FockVector:
    if c == 0.0:
        return {}
    return {w: c * x for w, x in v.items()}


def create(i: int, v: FockVector, p: FockParams) -> FockVector:
    """Prepend letter i to every word; leaving the truncated algebra is an error."""
    _check_letter(i, p)
    out: FockVector = {}
    for w, c in v.items():
        if len(w) + 1 > p.m:
            raise TruncationError(
                f"creation on a degree-{len(w)} word needs truncation m > {p.m};"
                " increase m"
            )
        out[(i,) + w] = c
    return out


def annihilate(i: int, v: FockVector, p: FockParams) -> FockVector:
    """Remove letter i at each position k (1-based), weighting the term by
    q^(k-1) * t^(n-k); the vacuum maps to zero."""
    _check_letter(i, p)
    out: FockVector = {}
    for w, c in v.items():
        n = len(w)
        for k, letter in enumerate(w):
            if letter != i:
                continue
            weight = c * p.q**k * p.t ** (n - 1 - k)
            reduced = w[:k] + w[k + 1:]
            s = out.get(reduced, 0.0) + weight
            if s == 0.0:
                out.pop(reduced, None)
            else:
                out[reduced] = s
    return out


def field(i: int, v: FockVector, p: FockParams) -> FockVector:
    """Self-adjoint field: creation plus annihilation of the same letter."""
    return add(create(i, v, p), annihilate(i, v, p))


def number_scale(v: FockVector, p: FockParams) -> FockVector:
    """Scale every degree-n component by t^n."""
    return {w: c * p.t ** len(w) for w, c in v.items()}


def apply_operator(kind: OperatorKind, v: FockVector, p: FockParams) -> FockVector:
    name = kind[0]
    if name == "create":
        return create(kind[1], v, p)
    if name == "annihilate":
        return annihilate(kind[1], v, p)
    if name == "field":
        return field(kind[1], v, p)
    if name == "number":
        return number_scale(v, p)
    raise ValueError(f"unknown operator kind {kind!r}")


def vacuum_moment(op_seq: Sequence[OperatorKind], p: FockParams) -> float:
    """Apply a product of operators (written left to right) to the vacuum and
    return the resulting vacuum coefficient."""
    state = vacuum()
    for kind in reversed(op_seq):
        state = apply_operator(kind, state, p)
        if not state:
            return 0.0
    return state.get((), 0.0)


def _iter_matchings(u: Word, v: Word) -> Iterator[tuple[int, ...]]:
    """All position maps pi with v[pi[k]] == u[k], as full images of 0..n-1."""
    groups: dict[int, list[int]] = {}
    for pos, letter in enumerate(v):
        groups.setdefault(letter, []).append(pos)
    letters = sorted(groups)
    u_positions = {letter: [k for k, x in enumerate(u) if x == letter] for letter in letters}
    pools = [itertools.permutations(groups[letter]) for letter in letters]
    for choice in itertools.product(*pools):
        pi = [0] * len(u)
        for letter, perm in zip(letters, choice):
            for k, target in zip(u_positions[letter], perm):
                pi[k] = target
        yield tuple(pi)


def _inversions(pi: Sequence[int]) -> int:
    inv = 0
    for a, b in itertools.combinations(pi, 2):
        if a > b:
            inv += 1
    return inv


def _pure_inner(u: Word, v: Word, q: float, t: float) -> float:
    if len(u) != len(v):
        return 0.0
    n = len(u)
    if n == 0:
        return 1.0
    if sorted(u) != sorted(v):
        return 0.0
    top = n * (n - 1) // 2
    total = 0.0
    for pi in _iter_matchings(u, v):
        inv = _inversions(pi)
        total += q**inv * t ** (top - inv)
    return total


def inner_product(u: FockVector, v: FockVector, p: FockParams) -> float:
    """Bilinear extension of the symmetrized word inner product.

    Words of different degree are orthogonal; equal-degree words pair through
    every letter-preserving bijection of positions, weighted by inversions.
    """
    for vec in (u, v):
        for w in vec:
            _check_word(w, p)
            if len(w) > MAX_INNER_DEGREE:
                raise SizeLimitError(
                    f"inner product sums over S_n; degree {len(w)} > {MAX_INNER_DEGREE}"
                )
    total = 0.0
    for w1, c1 in sorted(u.items()):
        for w2, c2 in sorted(v.items()):
            if len(w1) == len(w2):
                total += c1 * c2 * _pure_inner(w1, w2, p.q, p.t)
    return total


def commutator_residual(f: int, g: int, p: FockParams) -> float:
    """Largest Euclidean-norm defect of the relation
    annihilate(f) create(g) - q * create(g) annihilate(f) = <f,g> * (t-number scale)
    over all basis words of degree <= m - 2."""
    _check_letter(f, p)
    _check_letter(g, p)
    delta = 1.0 if f == g else 0.0
    worst = 0.0
    for deg in range(0, p.m - 1):
        for w in itertools.product(range(1, p.d + 1), repeat=deg):
            v = {w: 1.0}
            lhs = annihilate(f, create(g, v, p), p)
            mid = scale(create(g, annihilate(f, v, p), p), p.q)
            rhs = scale(number_scale(v, p), delta)
            resid = add(add(lhs, scale(mid, -1.0)), scale(rhs, -1.0))
            norm = np.sqrt(sum(c * c for c in resid.values()))
            worst = max(worst, norm)
    return float(worst)


def gram_matrix(n: int, p: FockParams) -> np.ndarray:
    """Inner-product matrix of all degree-n words in lexicographic order."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > MAX_INNER_DEGREE:
        raise SizeLimitError(f"degree {n} > {MAX_INNER_DEGREE}")
    count = p.d**n
    if count > MAX_GRAM_WORDS:
        raise SizeLimitError(f"{count} words of degree {n} exceed {MAX_GRAM_WORDS}")
    words = list(itertools.product(range(1, p.d + 1), repeat=n))
    out = np.zeros((count, count))
    for a, w1 in enumerate(words):
        for b in range(a, count):
            val = _pure_inner(w1, words[b], p.q, p.t)
            out[a, b] = val
            out[b, a] = val
    return out
