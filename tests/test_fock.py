import itertools

import numpy as np
import pytest

from qtwick import (
    FockParams,
    SizeLimitError,
    TruncationError,
    ValidationError,
    annihilate,
    commutator_residual,
    create,
    field,
    gram_matrix,
    inner_product,
    number_scale,
    vacuum,
    vacuum_moment,
    wick_field,
    wick_joint,
)

from qtwick.cli import main
from qtwick.fock import MAX_GRAM_WORDS, MAX_INNER_DEGREE

from _brute import inner_product_full_sn

P = FockParams(d=2, m=4, q=0.3, t=0.8)


def test_params_validation():
    with pytest.raises(ValueError):
        FockParams(d=0, m=1, q=0.0, t=1.0)
    with pytest.raises(ValueError):
        FockParams(d=1, m=0, q=0.0, t=1.0)
    with pytest.raises(ValueError):
        FockParams(d=1, m=1, q=0.0, t=0.0)
    assert FockParams(d=1, m=1, q=0.3, t=0.8).hilbert
    assert not FockParams(d=1, m=1, q=0.8, t=0.8).hilbert


@pytest.mark.parametrize("q, t", [(0.5, float("inf")), (float("nan"), 1.0), (0.5, float("nan"))])
def test_params_reject_non_finite(q, t):
    with pytest.raises(ValidationError, match="finite"):
        FockParams(d=1, m=2, q=q, t=t)


def test_create_annihilate_examples():
    assert create(1, vacuum(), P) == {(1,): 1.0}
    assert create(2, {(1,): 2.0}, P) == {(2, 1): 2.0}
    assert annihilate(1, {(1, 2): 1.0}, P) == {(2,): 0.8}
    assert annihilate(2, {(1, 2): 1.0}, P) == {(1,): 0.3}
    assert annihilate(1, vacuum(), P) == {}
    got = annihilate(1, {(1, 1): 1.0}, P)
    assert got == {(1,): pytest.approx(0.8 + 0.3)}


def test_truncation_and_letter_errors():
    with pytest.raises(TruncationError):
        create(1, {(1, 1, 1, 1): 1.0}, P)
    with pytest.raises(ValueError):
        create(3, vacuum(), P)
    with pytest.raises(ValueError):
        annihilate(0, vacuum(), P)


def test_field_and_number():
    got = field(1, {(2,): 1.0}, P)
    assert got == {(1, 2): 1.0}
    got = field(1, {(1,): 1.0}, P)
    assert got == {(1, 1): 1.0, (): 1.0}
    assert number_scale({(): 2.0, (1, 2): 1.0}, P) == {
        (): 2.0,
        (1, 2): pytest.approx(0.8**2),
    }


def test_inner_product_examples():
    assert inner_product({(1, 1): 1.0}, {(1, 1): 1.0}, P) == pytest.approx(0.3 + 0.8)
    assert inner_product({(1, 2): 1.0}, {(2, 1): 1.0}, P) == pytest.approx(0.3)
    assert inner_product({(1, 2): 1.0}, {(1, 2): 1.0}, P) == pytest.approx(0.8)
    assert inner_product({(1,): 1.0}, {(2,): 1.0}, P) == 0.0
    assert inner_product({(1,): 1.0}, {(1, 1): 1.0}, P) == 0.0
    assert inner_product(vacuum(), vacuum(), P) == 1.0


def test_inner_product_against_full_sn():
    params = FockParams(d=3, m=5, q=-0.4, t=0.7)
    words = [
        (1,),
        (1, 2),
        (2, 1),
        (1, 1, 2),
        (2, 1, 1),
        (1, 2, 3),
        (3, 2, 1),
        (1, 1, 2, 2),
        (2, 1, 2, 1),
        (1, 2, 2, 1, 3),
    ]
    for u in words:
        for v in words:
            got = inner_product({u: 1.0}, {v: 1.0}, params)
            want = inner_product_full_sn(u, v, params.q, params.t)
            assert got == pytest.approx(want, abs=1e-12)


def test_inner_product_bilinear_and_capped():
    u = {(1,): 2.0, (2,): -1.0}
    v = {(1,): 0.5}
    assert inner_product(u, v, P) == pytest.approx(2.0 * 0.5 * 1.0)
    deg = MAX_INNER_DEGREE + 1
    big = FockParams(d=1, m=deg, q=0.5, t=1.0)
    with pytest.raises(SizeLimitError):
        inner_product({(1,) * deg: 1.0}, {(1,) * deg: 1.0}, big)
    with pytest.raises(TruncationError):
        inner_product({(1, 1): 1.0}, {(1, 1): 1.0}, FockParams(d=1, m=1, q=0.5, t=1.0))


@pytest.mark.parametrize("qt", [(0.5, 1.0), (0.3, 0.9), (-0.4, 0.7)])
def test_field_moments_match_pairing_sum(qt):
    q, t = qt
    for n in (1, 2, 3, 4):
        params = FockParams(d=1, m=2 * n, q=q, t=t)
        got = vacuum_moment([("field", 1)] * (2 * n), params)
        want = wick_field(n).evaluate(q, t)
        assert got == pytest.approx(want, abs=1e-9)


def test_odd_field_moments_vanish_exactly():
    for r in (1, 3, 5, 7):
        params = FockParams(d=1, m=r, q=0.3, t=0.8)
        assert vacuum_moment([("field", 1)] * r, params) == 0.0


def test_joint_moments_match_labeled_pairing_sum():
    params = FockParams(d=2, m=4, q=0.6, t=1.3)
    for labels in itertools.product((1, 2), repeat=4):
        ops = [("field", i) for i in labels]
        got = vacuum_moment(ops, params)
        want = wick_joint(labels, "1111", {("1", "1"): 1}).evaluate(params.q, params.t)
        assert got == pytest.approx(want, abs=1e-9)


def test_mixed_operator_moments():
    # annihilator-creator pair on the vacuum picks up no deformation weight
    assert vacuum_moment([("annihilate", 1), ("create", 1)], P) == 1.0
    assert vacuum_moment([("create", 1), ("annihilate", 1)], P) == 0.0
    got = vacuum_moment([("annihilate", 1), ("number",), ("create", 1)], P)
    assert got == pytest.approx(0.8)
    with pytest.raises(ValueError, match="bogus"):
        vacuum_moment([("bogus", 1)], P)


@pytest.mark.parametrize("qt", [(0.5, 1.25), (0.3, 0.9), (-0.4, 0.7), (1.0, 1.0), (-1.0, 1.0)])
def test_commutator_residual_small(qt):
    q, t = qt
    params = FockParams(d=2, m=4, q=q, t=t)
    for f in (1, 2):
        for g in (1, 2):
            assert commutator_residual(f, g, params) <= 1e-12


def test_residual_cap(capsys):
    # one call at d=4, m=8 creates 36409 letters, the table of 16 calls 582544
    params = FockParams(d=4, m=8, q=0.5, t=1.25)
    assert commutator_residual(1, 2, params) <= 1e-12
    flags = ["--q", "0.5", "--t", "1.25", "--residual"]
    assert main(["fock", "--d", "4", "--m", "8"] + flags) == 2
    assert main(["fock", "--d", "100000", "--m", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("letter cap") == 2 and "internal error" not in err
    with pytest.raises(SizeLimitError):
        commutator_residual(1, 2, FockParams(d=4, m=10, q=0.5, t=1.25))
    with pytest.raises(SizeLimitError):
        commutator_residual(1, 1, FockParams(d=1, m=10**9, q=0.5, t=1.25))
    # criterion 06 (d=3, m=6) and the benchmark's residual table (d=2, m=6) fit
    assert main(["fock", "--d", "3", "--m", "6"] + flags) == 0
    assert main(["fock", "--d", "2", "--m", "6"] + flags + ["--format", "csv"]) == 0


def test_adjointness_on_basis_words():
    for params in (P, FockParams(d=2, m=4, q=-0.6, t=0.9)):
        words_u = [
            w
            for deg in range(0, params.m)
            for w in itertools.product(range(1, params.d + 1), repeat=deg)
        ]
        words_v = words_u + list(
            itertools.product(range(1, params.d + 1), repeat=params.m)
        )
        for i in (1, 2):
            for u in words_u:
                for v in words_v:
                    lhs = inner_product(create(i, {u: 1.0}, params), {v: 1.0}, params)
                    rhs = inner_product({u: 1.0}, annihilate(i, {v: 1.0}, params), params)
                    assert abs(lhs - rhs) <= 1e-10


def test_gram_matrix_values():
    assert gram_matrix(0, P).tolist() == [[1.0]]
    one = gram_matrix(1, P)
    assert one.shape == (2, 2)
    assert np.allclose(one, np.eye(2))
    g = gram_matrix(2, FockParams(d=1, m=2, q=0.3, t=0.8))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(0.3 + 0.8)


@pytest.mark.parametrize("qt", [(0.5, 1.0), (0.3, 0.9), (-0.4, 0.7), (0.0, 1.0)])
def test_gram_matrix_positive_definite_in_hilbert_regime(qt):
    q, t = qt
    params = FockParams(d=2, m=4, q=q, t=t)
    assert params.hilbert
    for n in (1, 2, 3):
        eigs = np.linalg.eigvalsh(gram_matrix(n, params))
        assert eigs.min() > 0.0


def test_gram_matrix_caps():
    deg = MAX_INNER_DEGREE + 1
    with pytest.raises(SizeLimitError):
        gram_matrix(deg, FockParams(d=1, m=deg, q=0.1, t=1.0))
    with pytest.raises(SizeLimitError):
        gram_matrix(1, FockParams(d=MAX_GRAM_WORDS + 1, m=1, q=0.1, t=1.0))


# non-dyadic parameters, where a different summation order shows in the bits
ORACLE_QT = [(0.3, 0.9), (-0.4, 0.7)]


def _words(d, n):
    return list(itertools.product(range(1, d + 1), repeat=n))


@pytest.mark.parametrize("qt", ORACLE_QT)
def test_gram_matrix_against_full_sn(qt):
    q, t = qt
    for d, n in [(1, 6), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]:
        params = FockParams(d=d, m=n, q=q, t=t)
        got = gram_matrix(n, params)
        words = _words(d, n)
        want = np.array([[inner_product_full_sn(u, v, q, t) for v in words] for u in words])
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("qt", ORACLE_QT)
def test_inner_product_of_vectors_against_full_sn(qt):
    q, t = qt
    params = FockParams(d=3, m=5, q=q, t=t)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 5):
        words = _words(3, n)
        for _ in range(4):
            picks = rng.choice(len(words), size=(2, 6))
            coeffs = rng.uniform(-1.0, 1.0, size=(2, 6))
            u = {words[k]: c for k, c in zip(picks[0], coeffs[0])}
            v = {words[k]: c for k, c in zip(picks[1], coeffs[1])}
            want = sum(
                cu * cv * inner_product_full_sn(wu, wv, q, t)
                for wu, cu in u.items()
                for wv, cv in v.items()
            )
            assert inner_product(u, v, params) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("qt", ORACLE_QT + [(0.5, 1.25)])
def test_annihilation_is_adjoint_to_creation_under_the_sn_oracle(qt):
    # <c_i u, v> by the S_n sum on one side, <u, a_i v> by the library on the
    # other; both sides by the library would hold by construction
    q, t = qt
    params = FockParams(d=2, m=5, q=q, t=t)
    for n in range(0, 5):
        for u in _words(2, n):
            for v in _words(2, n + 1):
                for i in (1, 2):
                    lhs = inner_product_full_sn((i,) + u, v, q, t)
                    rhs = inner_product({u: 1.0}, annihilate(i, {v: 1.0}, params), params)
                    assert abs(lhs - rhs) <= 1e-12
