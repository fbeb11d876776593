import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwick import (
    QTPolynomial,
    SizeLimitError,
    enumerate_counted_pairings,
    wick_field,
    wick_joint,
    wick_mixed,
)
from qtwick.cli import main
from qtwick.pairings import MAX_ENUMERATION_PAIRS
from qtwick.wickpoly import MAX_WICK_PAIRS

from _brute import wick_sum

LETTER_PAIRS = [(a, b) for a in "1*" for b in "1*"]


def test_polynomial_arithmetic():
    q = QTPolynomial.monomial(1, 0)
    t = QTPolynomial.monomial(0, 1)
    one = QTPolynomial.one()
    p = (one + q * t) * (one + q * t)
    assert p.terms == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert (p - p) == QTPolynomial.zero()
    assert not QTPolynomial.zero()
    assert 3 * q - q == q * 2
    assert p.coefficient(1, 1) == 2
    assert p.coefficient(5, 5) == 0


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        QTPolynomial({(-1, 0): 1})


def test_evaluate():
    p = QTPolynomial.one() + QTPolynomial.monomial(1, 1)
    assert p.evaluate(2, 3) == 7.0
    assert wick_field(2).evaluate(0.5, 1.25) == 2.75
    assert wick_mixed("11**").evaluate(0.5, 1.25) == 1.75


def test_rendering():
    assert str(QTPolynomial.zero()) == "0"
    assert str(QTPolynomial.one()) == "1"
    assert str(wick_field(1)) == "1"
    assert str(wick_mixed("11**")) == "q + t"
    assert str(wick_field(2)) == "1 + q + t"
    p = QTPolynomial({(2, 0): 3, (0, 1): -1, (0, 0): Fraction(1, 2)})
    assert str(p) == "1/2 - t + 3*q^2"


def test_field_small_values():
    assert wick_field(1).terms == {(0, 0): 1}
    assert wick_field(2).terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    f3 = wick_field(3)
    assert f3.evaluate(1, 1) == 15.0
    assert f3.evaluate(0, 1) == 5.0
    assert {k: c for k, c in f3.terms.items() if k[0] == 0} == {
        (0, 0): 1, (0, 1): 2, (0, 2): 1, (0, 3): 1
    }
    assert sum(f3.terms.values()) == 15


def test_field_swap_symmetry():
    for n in range(1, 7):
        f = wick_field(n)
        assert f == f.swap_variables()


def test_mixed_examples():
    assert str(wick_mixed("11**")) == "q + t"
    assert str(wick_mixed("1*1*")) == "1"
    assert str(wick_mixed("1***")) == "0"
    assert wick_mixed("1*") == QTPolynomial.one()
    assert wick_mixed("*1") == QTPolynomial.zero()
    assert wick_mixed("1") == QTPolynomial.zero()
    assert wick_mixed("") == QTPolynomial.one()


def test_mixed_rejects_bad_letters():
    with pytest.raises(ValueError):
        wick_mixed("1a")


def test_joint_examples():
    assert str(wick_joint((1, 2, 2, 1), "11**")) == "t"
    assert str(wick_joint((1, 2, 1, 2), "11**")) == "q"
    assert str(wick_joint((1, 1, 2, 2), "1*1*")) == "1"
    assert wick_joint((1, 1), "1*") == QTPolynomial.one()
    assert wick_joint((1, 2), "1*") == QTPolynomial.zero()
    with pytest.raises(ValueError):
        wick_joint((1, 2, 3), "1*")


def test_joint_with_equal_labels_matches_mixed():
    for eps in ("11**", "1*1*", "**11", "1**1*1", "111***"):
        labels = (0,) * len(eps)
        assert wick_joint(labels, eps) == wick_mixed(eps)


def test_custom_covariance():
    cov = {("1", "1"): Fraction(1, 3), ("1", "*"): 2}
    got = wick_mixed("11", cov)
    assert got == QTPolynomial({(0, 0): Fraction(1, 3)})
    got = wick_mixed("11**", cov)
    brute = wick_sum("11**", cov=cov)
    assert got.terms == brute


def test_covariance_keys_are_letter_pairs():
    with pytest.raises(ValueError, match="covariance key \\('1','x'\\) not over"):
        wick_mixed("1*", cov={("1", "x"): 1})


def test_polynomials_hash_by_their_terms():
    p = QTPolynomial({(1, 0): 2, (0, 1): Fraction(1, 2)})
    assert hash(p) == hash(QTPolynomial({(0, 1): Fraction(1, 2), (1, 0): 2}))
    assert len({p, QTPolynomial(dict(p.terms)), QTPolynomial.one()}) == 2
    assert p != {(1, 0): 2, (0, 1): Fraction(1, 2)} and p != "2*q + t/2"


def test_against_brute_oracle():
    rng = random.Random(11)
    for r in (2, 4, 6, 8):
        for trial in range(4):
            cov = {
                (a, b): Fraction(rng.randrange(-3, 4), rng.randrange(1, 5))
                for a in "1*"
                for b in "1*"
            }
            eps = "".join(rng.choice("1*") for _ in range(r))
            labels = tuple(rng.randrange(2) for _ in range(r))
            assert wick_mixed(eps, cov).terms == wick_sum(eps, cov=cov)
            assert (
                wick_joint(labels, eps, cov).terms
                == wick_sum(eps, labels=labels, cov=cov)
            )
    assert wick_field(4).terms == wick_sum("1" * 8, cov={("1", "1"): 1})


def _random_cov(rng):
    return {pair: Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)) for pair in LETTER_PAIRS}


def _assert_matches_oracle(got, eps, labels=None, cov=None):
    if eps:
        assert got.terms == wick_sum(eps, labels=labels, cov=cov)
    else:
        # the empty word has the empty pairing; the oracle lists none
        assert got == QTPolynomial.one()


def test_every_word_up_to_eight_letters_matches_the_oracle():
    rng = random.Random(2)
    for r in range(9):
        for letters in itertools.product("1*", repeat=r):
            eps = "".join(letters)
            labels = tuple(rng.randrange(2) for _ in eps)
            cov = _random_cov(rng)
            _assert_matches_oracle(wick_mixed(eps), eps)
            _assert_matches_oracle(wick_mixed(eps, cov), eps, cov=cov)
            _assert_matches_oracle(wick_joint(labels, eps), eps, labels=labels)
            _assert_matches_oracle(wick_joint(labels, eps, cov), eps, labels=labels, cov=cov)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    eps=st.text(alphabet="1*", max_size=8),
    cov=st.none() | st.dictionaries(
        st.sampled_from(LETTER_PAIRS),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
    ),
)
def test_pairing_sum_matches_oracle_property(data, eps, cov):
    labels = tuple(data.draw(st.lists(st.integers(0, 2), min_size=len(eps), max_size=len(eps))))
    _assert_matches_oracle(wick_mixed(eps, cov), eps, cov=cov)
    _assert_matches_oracle(wick_joint(labels, eps, cov), eps, labels=labels, cov=cov)


def test_field_matches_enumerated_counts():
    # up to the enumeration cap, past the oracle's reach (it filters all set partitions)
    for n in range(1, MAX_ENUMERATION_PAIRS + 1):
        counts = Counter((c, s) for _, c, s in enumerate_counted_pairings(n))
        assert wick_field(n).terms == counts


def test_field_identities_up_to_the_cap():
    for n in range(MAX_WICK_PAIRS + 1):
        f = wick_field(n)
        assert sum(f.terms.values()) == math.prod(range(1, 2 * n, 2))
        catalan = math.comb(2 * n, n) // (n + 1)
        # noncrossing pairings (q = 0) and nonnesting ones (t = 0) are Catalan
        assert sum(c for (a, _), c in f.terms.items() if a == 0) == catalan
        assert sum(c for (_, b), c in f.terms.items() if b == 0) == catalan


def test_pair_cap():
    r = 2 * (MAX_WICK_PAIRS + 1)
    with pytest.raises(SizeLimitError):
        wick_field(MAX_WICK_PAIRS + 1)
    with pytest.raises(SizeLimitError):
        wick_mixed("1*" * (MAX_WICK_PAIRS + 1))
    with pytest.raises(SizeLimitError):
        wick_joint((0,) * r, "1" * r)
    assert main(["wick", "--field", str(MAX_WICK_PAIRS + 1)]) == 2
    # the worst entry point at the cap: every letter pair correlated
    full = {pair: 1 for pair in LETTER_PAIRS}
    assert wick_mixed("1" * (2 * MAX_WICK_PAIRS), full) == wick_field(MAX_WICK_PAIRS)
