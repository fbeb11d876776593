"""Truncated tensor algebra with the two-parameter symmetrized inner product.

Vectors are finite real combinations of basis words over the letters 1..d,
truncated at degree m.  The inner product of two degree-n words sums
q^inversions * t^(n(n-1)/2 - inversions) over all letter-preserving position
bijections; creation prepends a letter, annihilation removes one occurrence
at a time with a q-weight for its depth and a t-weight for what sits below.
Since the two are adjoint, the inner product is computed by recursion on
annihilators (Bozejko-Speicher), not as a sum over S_n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import SizeLimitError, TruncationError, ValidationError

Word = tuple[int, ...]
FockVector = dict[Word, float]

# worst measured: cyclic 3-letter words against their reverses, 0.6 s at
# degree 22 and 2.2 s at 24
MAX_INNER_DEGREE = 22
# 2048 words: 0.3 s, and 0.6 s more for the spectrum, 200 MB (4096: 5.5 s)
MAX_GRAM_WORDS = 2048
# letters of the words commutator_residual creates, sum_{k <= m-2} (k+1) d^k
# per call and d^2 times that for the whole `fock --residual` table; at the
# cap d=1 (m=512) takes 2.4 s, d=362 (m=2) 1.8 s, d >= 2 with m >= 3 0.6 s
MAX_RESIDUAL_LETTERS = 131_072

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


def _parse_fock_ops(text: str) -> list:
    """The operators of a `fock --ops` list: c<i>, a<i>, s<i> or n tokens."""
    ops = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValidationError("empty operator token")
        if token == "n":
            ops.append(("number",))
            continue
        kind = {"c": "create", "a": "annihilate", "s": "field"}.get(token[0])
        if kind is None or not token[1:].isdigit():
            raise ValidationError(
                f"bad operator token {token!r}; use c<i>, a<i>, s<i> or n"
            )
        ops.append((kind, int(token[1:])))
    return ops


def vacuum_moment(op_seq: Sequence[OperatorKind], p: FockParams) -> float:
    """Apply a product of operators (written left to right) to the vacuum and
    return the resulting vacuum coefficient."""
    state = vacuum()
    for kind in reversed(op_seq):
        name = kind[0]
        if name == "create":
            state = create(kind[1], state, p)
        elif name == "annihilate":
            state = annihilate(kind[1], state, p)
        elif name == "field":
            state = field(kind[1], state, p)
        elif name == "number":
            state = number_scale(state, p)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
        if not state:
            return 0.0
    return state.get((), 0.0)


def inner_product(u: FockVector, v: FockVector, p: FockParams) -> float:
    """Bilinear extension of the symmetrized word inner product.

    Words of different degree are orthogonal.  For words it recurses on the
    first letter, <(i,)+w, v> = <w, a_i v>: the annihilators of the letters
    of w are applied to v in order, and the vacuum coefficient is read off.
    """
    for vec in (u, v):
        for w in vec:
            _check_word(w, p)
            if len(w) > MAX_INNER_DEGREE:
                raise SizeLimitError(f"degree {len(w)} exceeds the {MAX_INNER_DEGREE}-degree cap")
    total = 0.0
    for w1, c1 in sorted(u.items()):
        state = {w2: c2 for w2, c2 in v.items() if len(w2) == len(w1)}
        for i in w1:
            state = annihilate(i, state, p)
        total += c1 * state.get((), 0.0)
    return total


def _check_residual_size(p: FockParams, calls: int = 1) -> None:
    """Raise SizeLimitError when `calls` runs of commutator_residual would
    create more than MAX_RESIDUAL_LETTERS letters."""
    letters = 0
    for k in range(p.m - 1):
        letters += calls * (k + 1) * p.d**k
        if letters > MAX_RESIDUAL_LETTERS:
            raise SizeLimitError(
                f"{calls} commutator residual(s) at d={p.d}, m={p.m} exceed the"
                f" {MAX_RESIDUAL_LETTERS}-letter cap"
            )


def commutator_residual(f: int, g: int, p: FockParams) -> float:
    """Largest Euclidean-norm defect of the relation
    annihilate(f) create(g) - q * create(g) annihilate(f) = <f,g> * (t-number scale)
    over all basis words of degree <= m - 2."""
    _check_letter(f, p)
    _check_letter(g, p)
    _check_residual_size(p)
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
    """Inner-product matrix of all degree-n words in lexicographic order.

    It follows the factorization G_n = (I_d (x) G_{n-1}) A_n, where the
    annihilation matrix A_n has, in the column of the word v, the weight
    q^k * t^(n-1-k) in the row of (v_k, v without position k).  The upper
    triangle is mirrored, so the result is exactly symmetric.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > MAX_INNER_DEGREE:
        raise SizeLimitError(f"degree {n} > {MAX_INNER_DEGREE}")
    count = p.d**n
    if count > MAX_GRAM_WORDS:
        raise SizeLimitError(f"{count} words of degree {n} exceed {MAX_GRAM_WORDS}")
    # extreme q and t overflow here; the command line refuses a non-finite
    # matrix
    with np.errstate(all="ignore"):
        gram = np.ones((1, 1))
        for deg in range(1, n + 1):
            block, size = p.d ** (deg - 1), p.d**deg
            words = np.arange(size)
            ann = np.zeros((size, size))
            for k in range(deg):
                low = p.d ** (deg - 1 - k)  # place value of position k
                head, rest = np.divmod(words, low * p.d)
                letter, tail = np.divmod(rest, low)
                ann[letter * block + head * low + tail, words] += p.q**k * p.t ** (deg - 1 - k)
            gram = np.vstack([gram @ ann[i * block:(i + 1) * block] for i in range(p.d)])
    return np.triu(gram) + np.triu(gram, 1).T
