"""Exact bivariate polynomials in (q, t) and pairing-weighted moment sums.

The central objects are sums over pair partitions where each partition
contributes q^crossings * t^nestings, optionally weighted by a covariance
value looked up from the letter pattern at its two endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import SizeLimitError, ValidationError
from .floats import _check_finite, _check_int, _round_ratio

Scalar = Union[int, float, Fraction]

LETTERS = ("1", "*")

# Covariance of an (element, adjoint) pair is 1; the other three patterns vanish.
DEFAULT_COVARIANCE: dict[tuple[str, str], Fraction] = {("1", "*"): Fraction(1)}

# worst measured: a full 4-entry covariance on "1*" * 12, whose stack states
# grow as 2^h, 1.7-2.0 s (26 letters: 4.8-7.2 s); wick_field(12) takes 0.08 s
MAX_WICK_PAIRS = 12


def check_eps(eps: str) -> str:
    """Validate a word over the alphabet {1, *} and return it unchanged."""
    if not isinstance(eps, str) or any(c not in LETTERS for c in eps):
        raise ValidationError(f"pattern {eps!r} must be a string over '1' and '*'")
    return eps


class QTPolynomial:
    """Polynomial in two commuting variables q and t with exact Fraction coefficients.

    Terms live in a dict keyed by (q-degree, t-degree), integers >= 0 (any
    other degree raises ValidationError); zero coefficients are never
    stored, so equality is plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple[int, int], Scalar]] = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in (terms or {}).items():
            key = (_check_int("q-degree", a, 0), _check_int("t-degree", b, 0))
            frac = Fraction(c)
            if frac:
                clean[key] = frac
        self.terms = clean

    @classmethod
    def zero(cls) -> "QTPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QTPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, q_deg: int, t_deg: int, coeff: Scalar = 1) -> "QTPolynomial":
        return cls({(q_deg, t_deg): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QTPolynomial") -> "QTPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return QTPolynomial(out)

    def __sub__(self, other: "QTPolynomial") -> "QTPolynomial":
        return self + other.scaled(-1)

    def __mul__(self, other: Union["QTPolynomial", Scalar]) -> "QTPolynomial":
        if not isinstance(other, QTPolynomial):
            return self.scaled(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return QTPolynomial(out)

    __rmul__ = __mul__

    def scaled(self, c: Scalar) -> "QTPolynomial":
        c = Fraction(c)
        return QTPolynomial({key: c * v for key, v in self.terms.items()})

    def coefficient(self, q_deg: int, t_deg: int) -> Fraction:
        return self.terms.get((q_deg, t_deg), Fraction(0))

    def swap_variables(self) -> "QTPolynomial":
        """The polynomial with the roles of q and t exchanged."""
        return QTPolynomial({(b, a): c for (a, b), c in self.terms.items()})

    def evaluate(self, q: float, t: float) -> float:
        """The exact value at finite q and t, rounded once to float64 (inf
        with its sign past float64's range).  q = n_q / d_q and t = n_t / d_t
        exactly, so over the common denominator L * d_q^A * d_t^B, L the lcm
        of the coefficients' denominators and A, B the largest degrees, the
        value is one integer."""
        nq, dq = _check_finite("q", q).as_integer_ratio()
        nt, dt = _check_finite("t", t).as_integer_ratio()
        if not self.terms:
            return 0.0
        top_q = max(a for a, _ in self.terms)
        top_t = max(b for _, b in self.terms)
        lcm = math.lcm(*(c.denominator for c in self.terms.values()))
        q_powers = [nq**a * dq ** (top_q - a) for a in range(top_q + 1)]
        t_powers = [nt**b * dt ** (top_t - b) for b in range(top_t + 1)]
        total = sum(c.numerator * (lcm // c.denominator) * q_powers[a] * t_powers[b]
                    for (a, b), c in self.terms.items())
        return _round_ratio(total, lcm * dq**top_q * dt**top_t)

    def _sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        # graded order, q-heavy first inside each total degree
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for (a, b), c in self._sorted_terms():
            factors = []
            if a:
                factors.append("q" if a == 1 else f"q^{a}")
            if b:
                factors.append("t" if b == 1 else f"t^{b}")
            if not factors:
                rendered.append(str(c))
            elif c == 1:
                rendered.append("*".join(factors))
            elif c == -1:
                rendered.append("-" + "*".join(factors))
            else:
                rendered.append(str(c) + "*" + "*".join(factors))
        out = rendered[0]
        for term in rendered[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self) -> str:
        return f"QTPolynomial({self.terms!r})"


def _normalize_covariance(
    cov: Optional[Mapping[tuple[str, str], Scalar]]
) -> dict[tuple[str, str], Fraction]:
    if cov is None:
        return DEFAULT_COVARIANCE
    out = {}
    for (e1, e2), v in cov.items():
        if e1 not in LETTERS or e2 not in LETTERS:
            raise ValidationError(f"covariance key ({e1!r},{e2!r}) not over '1'/'*'")
        out[(e1, e2)] = Fraction(v)
    return out


def _check_pair_count(r: int) -> None:
    if r // 2 > MAX_WICK_PAIRS:
        raise SizeLimitError(
            f"pairing sum over {r} positions exceeds the {MAX_WICK_PAIRS}-pair cap"
        )


def _pairing_sum(eps: str, labels: tuple, cov: Mapping[tuple[str, str], Fraction]) -> QTPolynomial:
    """Sum over the pairings of eps that join equal labels of the product of
    cov(opener letter, closer letter) over the pairs times q^cross * t^nest.

    A left-to-right DP whose state is the stack of open (letter, label)
    items, oldest first, mapped to its exact polynomial.  A position opens an
    item or closes the item at stack index j; the h-1-j items opened after it
    cross the new pair and the j before it nest it, so each crossing and
    nesting is charged once, as q^(h-1-j) * t^j.  Weights are scaled by a
    common denominator to keep the DP in ints, and divided out at the end.
    """
    r = len(eps)
    den = math.lcm(*(v.denominator for v in cov.values()))
    cov = {key: int(v * den) for key, v in cov.items()}
    items = list(zip(eps, labels))
    # opening at a position helps only if some later position can close it
    opens = [
        any(lab == later_lab and cov.get((e, later_e)) for later_e, later_lab in items[pos + 1:])
        for pos, (e, lab) in enumerate(items)
    ]
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    for pos, (e, lab) in enumerate(items):
        nxt: dict[tuple, dict[tuple[int, int], int]] = {}
        for stack, poly in states.items():
            h = len(stack)
            # (next stack, q-degree, t-degree, weight); never more open items than positions left
            moves = [(stack + ((e, lab),), 0, 0, 1)] if opens[pos] and h < r - pos - 1 else []
            for j, (opener, opener_lab) in enumerate(stack):
                c = cov.get((opener, e)) if opener_lab == lab else None
                if c:
                    moves.append((stack[:j] + stack[j + 1:], h - 1 - j, j, c))
            for key, dq, dt, c in moves:
                out = nxt.setdefault(key, {})
                for (a, b), v in poly.items():
                    out[(a + dq, b + dt)] = out.get((a + dq, b + dt), 0) + c * v
        states = nxt
    scale = Fraction(1, den ** (r // 2))
    return QTPolynomial({key: v * scale for key, v in states.get((), {}).items()})


def wick_field(n: int) -> QTPolynomial:
    """Sum of q^cross * t^nest over all pair partitions of {1,...,2n}."""
    n = _check_int("n", n, 0)
    _check_pair_count(2 * n)
    return _pairing_sum("1" * (2 * n), (None,) * (2 * n), {("1", "1"): Fraction(1)})


def wick_mixed(
    eps: str, cov: Optional[Mapping[tuple[str, str], Scalar]] = None
) -> QTPolynomial:
    """Pairing sum where each pair is weighted by cov(letter at opener, letter at closer).

    Odd-length patterns admit no pairing at all, so the sum is the zero
    polynomial.  The default covariance keeps only ('1','*') pairs.
    """
    check_eps(eps)
    _check_pair_count(len(eps))
    return _pairing_sum(eps, (None,) * len(eps), _normalize_covariance(cov))


def wick_joint(
    labels: Iterable[int],
    eps: str,
    cov: Optional[Mapping[tuple[str, str], Scalar]] = None,
) -> QTPolynomial:
    """As wick_mixed, but a pairing only contributes when the two labels inside
    every pair coincide (orthonormal directions are uncorrelated)."""
    labels = tuple(labels)
    check_eps(eps)
    if len(labels) != len(eps):
        raise ValidationError(
            f"{len(labels)} labels but pattern of length {len(eps)}"
        )
    _check_pair_count(len(eps))
    return _pairing_sum(eps, labels, _normalize_covariance(cov))
