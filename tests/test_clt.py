import dataclasses
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from qtwick import (
    CoefficientTable,
    ExperimentConfig,
    ExperimentReport,
    PairPartition,
    SizeLimitError,
    ValidationError,
    convergence_experiment,
    cross_nest_counts,
    limit_coefficient_estimate,
    partial_sum_moment,
    sampled_table,
    vacuum_expectation,
    wick_mixed,
)
from qtwick import cli, clt, coeffs
from qtwick.clt import (
    MAX_ESTIMATE_TUPLES,
    MAX_SUM_LENGTH,
    MAX_SUM_SIZE,
    MAX_SUM_STATES,
)
from qtwick.cli import main
from qtwick.coeffs import MAX_TABLE_SITES, _table_law

CROSSING = PairPartition(((1, 3), (2, 4)))
NESTING = PairPartition(((1, 4), (2, 3)))
DISJOINT = PairPartition(((1, 2), (3, 4)))
EIGHT_PAIRS = PairPartition(tuple((2 * k + 1, 2 * k + 2) for k in range(8)))


def test_second_moment_is_exactly_one():
    for n in (1, 5, 25, 117):
        table = sampled_table(n, 0.5, 1.25, 42)
        assert partial_sum_moment(n, "1*", table) == 1.0


def test_odd_and_unbalanced_moments_vanish_exactly():
    table = sampled_table(12, 0.3, 0.9, 1)
    for eps in ("1", "*", "111", "1*1", "11*", "*1*"):
        assert partial_sum_moment(12, eps, table) == 0.0


def test_moment_agrees_with_site_by_site_sum():
    n = 6
    table = sampled_table(n, 0.5, 1.25, 6)
    for eps in ("11**", "1*1*", "1**1", "*11*"):
        brute = 0.0
        for tup in itertools.product(range(1, n + 1), repeat=len(eps)):
            ops = [(site, letter == "*") for site, letter in zip(tup, eps)]
            brute += vacuum_expectation(ops, n, table)
        brute /= n ** (len(eps) // 2)
        assert partial_sum_moment(n, eps, table) == pytest.approx(brute, abs=1e-12)


BALANCED = [
    "".join(w)
    for length in range(0, 9, 2)
    for w in itertools.product("1*", repeat=length)
    if w.count("1") == length // 2
]
# odd orders and unbalanced words; BALANCED already holds the words that
# start with '*' or end with '1', whose walk dies before the last factor
VANISHING = [
    "1", "*", "111", "1*1", "11*", "*1*", "**", "**1*1", "1*1**", "*11**", "1*1*1*1",
]


def _assert_moment_is_exact(n, eps, table):
    got = partial_sum_moment(n, eps, table)
    assert got == _brute.exact_moment(n, eps, table), (n, eps)
    # the float dict walk agrees up to the rounding of its sums: within rel
    # 1e-12, or 1e-12 of the moment on the all-ones table, whose terms all
    # add up, where the signed terms cancel
    plus = CoefficientTable([1.0] * table.packed(n).size, table.t)
    scale = partial_sum_moment(n, eps, plus)
    floats = _brute.sum_moment(n, eps, table)
    assert got == pytest.approx(floats, rel=1e-12, abs=1e-12 * scale), (n, eps)


@pytest.mark.parametrize("q", [1.25, -1.25, 0.0])
def test_moment_engine_equals_dict_oracle(q):
    # with q = +-t every base value is +1 (or every one -1) whatever the
    # seed; with q = 0 the signs are random and sums cancel to exactly 0
    for n in (1, 2, 7, 30):
        for seed in (0, 5, 11) if q == 0.0 else (0,):
            table = sampled_table(n, q, 1.25, seed)
            for eps in BALANCED + VANISHING:
                _assert_moment_is_exact(n, eps, table)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.text(alphabet="1*", max_size=8).filter(lambda e: max(clt._popcounts(e)) <= 4),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    ratio=st.floats(-1.0, 1.0),
    t=st.floats(0.1, 4.0),
)
def test_moment_engine_equals_dict_oracle_property(eps, n, seed, ratio, t):
    _assert_moment_is_exact(n, eps, sampled_table(n, ratio * t, t, seed))


def test_moment_refuses_a_table_that_is_not_two_point():
    rng = random.Random(5)
    values = [rng.choice([1, -1]) * rng.uniform(0.2, 3.0) for _ in range(66)]
    generic = CoefficientTable(values, 1.7)
    for eps in ("1*", "11**", "1*1*", "111***"):
        with pytest.raises(ValidationError, match="two-point"):
            partial_sum_moment(12, eps, generic)
    # only the prefix the walk reads counts, as for the estimator
    mixed = CoefficientTable([1.0, -1.0] * 5 + values[10:], 1.7)
    assert partial_sum_moment(5, "11**", mixed) == _brute.exact_moment(5, "11**", mixed)
    with pytest.raises(ValidationError, match="two-point"):
        partial_sum_moment(6, "11**", mixed)


def test_both_engines_refuse_other_tables_with_one_message():
    generic = CoefficientTable([1.0, -1.0, 0.5], 1.7)
    messages = set()
    for engine in (lambda: partial_sum_moment(3, "11**", generic),
                   lambda: limit_coefficient_estimate(CROSSING, "11**", 3, generic)):
        with pytest.raises(ValidationError, match="two-point") as err:
            engine()
        messages.add(str(err.value))
    assert len(messages) == 1


def _meet_cut(eps):
    """Where _moments cuts eps: the '1*' at the peak popcount nearest the
    middle, the first of two as near."""
    h = clt._popcounts(eps)
    return min((j for j in range(1, len(eps)) if h[j] == max(h)),
               key=lambda j: abs(2 * j - len(eps)))


def test_moment_amplitudes_stay_below_2_53_within_the_caps():
    # each half of the walk keeps the sum of its int64 amplitudes' magnitudes
    # below N^c * p^a after c creations and a annihilations, p the peak
    # popcount; counting paths backwards bounds every amplitude of the right
    # half r by p^c * N^a.  The halves stop at k = p - 1, below the cut's
    # '1*', and every partial sum of the meet, (N - k) l . r plus the float
    # sum over the sets T of popcount k - 1 of X_l[T] mu X_r[T], is at most
    # (k (N - k + 1) + N - k) * |l|_1 * max|r|: each amplitude of l sits k
    # times in X_l and a row of X_r holds N - k + 1 sites.  Evaluate those
    # bounds for every word the caps admit that reaches a walk (balanced, no
    # suffix with more '1' than '*'), at the largest N they admit, without
    # any walk
    worst, worst_words = 0, set()
    for length in range(2, MAX_SUM_LENGTH + 1, 2):
        for word in itertools.product("1*", repeat=length):
            eps = "".join(word)
            excess = [eps[j:].count("*") - eps[j:].count("1") for j in range(length)]
            if min(excess) < 0 or eps.count("1") != length // 2:
                continue  # partial_sum_moment returns 0.0 before walking
            p = max(clt._popcounts(eps))
            n = MAX_SUM_SIZE
            while math.comb(n, p) > MAX_SUM_STATES:
                n -= 1
            cut, k = _meet_cut(eps), p - 1
            assert eps[cut - 1:cut + 1] == "1*"
            right = eps[cut + 1:]
            left = "".join("*" if letter == "1" else "1" for letter in eps[:cut - 1])[::-1]
            bounds = []
            for walked in (left, right):
                bound = 1
                for letter in reversed(walked):
                    bound *= n if letter == "*" else p
                    bounds.append(bound)
            left_sum = math.prod(n if letter == "*" else p for letter in left)
            right_max = math.prod(p if letter == "*" else n for letter in right)
            bounds.append((k * (n - k + 1) + n - k) * left_sum * right_max)
            if max(bounds) > worst:
                worst, worst_words = max(bounds), set()
            if max(bounds) == worst:
                worst_words.add(eps)
    assert worst < 2**53
    assert worst == (2 * 399 + 398) * 400**2 * 3**3 * 400
    assert worst_words == {"111*1***", "1*111***", "111**1**", "111***1*", "11*11***"}


def _letter_matrix(edges, n, k, letter):
    """The int64 matrix of the sum of letter from popcount k on n sites,
    column by column from unit vectors."""
    return np.column_stack([clt._apply_sum(unit, k, letter, edges, n)
                            for unit in np.eye(math.comb(n, k), dtype=np.int64)])


def _colex_rank(sites):
    return sum(math.comb(x, r + 1) for r, x in enumerate(sorted(sites)))


def test_annihilation_sum_is_the_transpose_of_the_creation_sum():
    # the identity the split walk rests on, column by column from unit
    # vectors: the sum of '1' from popcount k + 1 is the transpose of the
    # sum of '*' from k, in exact integers
    for n in range(1, 8):
        for seed in (0, 1):
            up = sampled_table(n, 0.0, 1.25, seed).base_matrix(n).astype(np.int64)
            edges = clt._EdgeTables(n, n, up)
            for k in range(n):
                assert np.array_equal(_letter_matrix(edges, n, k + 1, "1"),
                                      _letter_matrix(edges, n, k, "*").T), (n, seed, k)


def test_creation_then_annihilation_is_the_exchange_relation():
    # the identity the meet rests on: on popcount k the sum of '1' after the
    # sum of '*' is (n - k) I plus the sum over sites i != j of mu(i, j)
    # c_i a_j, with c_i a_j taking S to S - {j} + {i} by the product of the
    # signs of j and of i over S - {j}, listed here set by set
    for n in range(1, 8):
        for seed in (0, 1):
            mu = sampled_table(n, 0.0, 1.25, seed).base_matrix(n).astype(np.int64)
            edges = clt._EdgeTables(n, n, mu)

            def sign(rest, i):
                return math.prod(int(mu[s, i]) for s in rest if s < i)

            for k in range(n):
                want = (n - k) * np.eye(math.comb(n, k), dtype=np.int64)
                for s in itertools.combinations(range(n), k):
                    for j in s:
                        rest = set(s) - {j}
                        for i in set(range(n)) - rest - {j}:
                            want[_colex_rank(rest | {i}), _colex_rank(s)] += (
                                mu[i, j] * sign(rest, j) * sign(rest, i))
                got = _letter_matrix(edges, n, k + 1, "1") @ _letter_matrix(edges, n, k, "*")
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (n, seed, k)


def _enumerated_edges(n, k, table):
    """Level k's rows listed directly: for each sorted site set S in colex
    order and each free site i, the colex rank of S + {i} and the product
    of mu(s, i) over the s in S below i."""
    rows = {}
    for s in itertools.combinations(range(n), k):
        row = []
        for i in sorted(set(range(n)) - set(s)):
            key = sum(math.comb(x, r + 1) for r, x in enumerate(sorted(s + (i,))))
            row.append((key, math.prod(table.base_value(x + 1, i + 1) for x in s if x < i)))
        rows[sum(math.comb(x, r + 1) for r, x in enumerate(s))] = row
    return [rows[r] for r in range(len(rows))]


@settings(max_examples=40, deadline=None)
@given(signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=36, max_size=36))
def test_edge_tables_equal_the_enumerated_edges(signs):
    table = CoefficientTable(signs, 1.25)

    def listed(edges, n, k):
        return [list(zip(keys, weights)) for _, chunk_keys, chunk_weights
                in edges.chunks(np.arange(math.comb(n, k)), k, n)
                for keys, weights in zip(chunk_keys.tolist(), chunk_weights.tolist())]

    expected = {(n, k): _enumerated_edges(n, k, table) for n in range(1, 10) for k in range(n)}
    for n in range(1, 10):
        up = table.base_matrix(n).astype(np.int64)
        # levels 0 to peak - 2 are held whole from the start, and every
        # level, held or sliced off the level below, is the enumerated one
        for peak in range(1, n + 1):
            edges = clt._EdgeTables(n, peak, up)
            assert len(edges.held) == max(peak - 1, 1)
            for k in range(peak):
                assert listed(edges, n, k) == expected[n, k], (n, peak, k)
    # one table at 9 sites is every narrower width's: the first C(n, k) rows
    # and the first n - k columns of each level
    edges = clt._EdgeTables(9, 9, table.base_matrix(9).astype(np.int64))
    for n, k in expected:
        assert listed(edges, n, k) == expected[n, k], (n, k)
    # and each held level lists the free site of every edge, for the meet
    for n, k in expected:
        if k < len(edges.held):
            sets = sorted(itertools.combinations(range(n), k), key=_colex_rank)
            sites = [sorted(set(range(n)) - set(s)) for s in sets]
            assert edges.held[k][2][:math.comb(n, k), :n - k].tolist() == sites, (n, k)


@pytest.fixture
def applied_letters(monkeypatch):
    """The letter of every letter sum partial_sum_moment applies, in order."""
    letters = []
    apply_sum = clt._apply_sum
    monkeypatch.setattr(clt, "_apply_sum", lambda *args: letters.append(args[2]) or apply_sum(*args))
    return letters


def test_dying_words_return_zero_before_any_walk(applied_letters):
    # a suffix with more '1' than '*' annihilates the vacuum; the left half,
    # walked backwards, would otherwise climb past the peak popcount
    table = sampled_table(12, 0.5, 1.25, 0)
    for eps in ("*1", "1**1", "11***1", "111****1"):
        assert partial_sum_moment(12, eps, table) == 0.0
    # popcount 4 holds no set of 3 sites, so the walk would die at its top
    assert partial_sum_moment(3, "1111****", table) == 0.0
    assert applied_letters == []


def test_the_state_cap_charges_only_a_walk_that_runs(applied_letters):
    # neither word returns to the vacuum, so C(400, 4) states are never held
    for eps in ("****", "11****"):
        config = ExperimentConfig("moment", eps, 0.5, 1.25, (10, 400), 0)
        assert config.validate() == []
        assert [row.value for row in convergence_experiment(config).rows] == [0.0, 0.0]
    assert applied_letters == []
    with pytest.raises(SizeLimitError, match="states"):
        partial_sum_moment(400, "1111****", sampled_table(400, 0.5, 1.25, 0))


def test_a_mirror_word_walks_one_half(applied_letters):
    table = sampled_table(12, 0.5, 1.25, 0)
    # the word is cut at the '1*' at its peak nearest the middle, and each
    # half stops below it: the right half's letters right to left, then a
    # left half that differs
    for eps, walked in (("11**", "*"), ("111***", "**"), ("1111****", "***"),
                        ("11*1*1**", "**1"), ("11*1**", "**1" + "*"), ("1*1*", "*1"),
                        ("1*11**", "*" + "*1*"), ("11**1*", "*1*" + "*")):
        applied_letters.clear()
        assert partial_sum_moment(12, eps, table) == _brute.exact_moment(12, eps, table)
        assert "".join(applied_letters) == walked, eps


@settings(max_examples=200, deadline=None)
@given(
    eps=st.text(alphabet="1*", max_size=8).filter(lambda e: max(clt._popcounts(e)) <= 4),
    ns=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
    seed=st.integers(0, 2**64 - 1),
    ratio=st.floats(-1.0, 1.0),
    t=st.floats(0.1, 4.0),
)
# sizes below the peak popcount hold no set and give 0.0 beside larger ones
@example(eps="1111****", ns=[1, 3, 4, 12], seed=0, ratio=0.0, t=1.25)
@example(eps="11*1**", ns=[1, 2, 5, 12], seed=1, ratio=0.4, t=1.25)
def test_one_walk_equals_the_oracle_at_every_size(eps, ns, seed, ratio, t):
    table = sampled_table(max(ns), ratio * t, t, seed)
    got = clt._moments(ns, eps, table)
    assert list(map(float.hex, got)) == [_brute.exact_moment(n, eps, table).hex() for n in ns]


def test_one_walk_applies_the_creation_prefix_once(applied_letters):
    table = sampled_table(60, 0.5, 1.25, 0)
    ns = (20, 40, 60)
    # the halves stop below the cut's '1*'.  111*** is all creations: one
    # walk of ** at 60 sites and a meet per size; 11*1** walks both halves'
    # creations at 60 sites (**, then *) and the right half's tail 1 at each
    # size; 1*11** walks * and * at 60 sites, then the left half's tail 1*
    # at each size
    for eps, walked in (("111***", "**"), ("11*1**", "**1*" + "11"),
                        ("1*11**", "**1*" + "1*" * 2)):
        applied_letters.clear()
        got = clt._moments(ns, eps, table)
        assert "".join(applied_letters) == walked, eps
        assert got == [partial_sum_moment(n, eps, table) for n in ns], eps


def test_a_moment_experiment_builds_one_edge_table(monkeypatch):
    # every size reads the leading rows and columns of the top size's edges
    built = []
    real = clt._EdgeTables
    monkeypatch.setattr(clt, "_EdgeTables", lambda n, peak, up: built.append(n) or real(n, peak, up))
    config = ExperimentConfig("moment", "1*11**", 0.5, 1.25, (5, 9, 12), 3)
    report = convergence_experiment(config)
    assert built == [12]
    table = sampled_table(12, 0.5, 1.25, 3)
    assert [row.value for row in report.rows] == [
        _brute.exact_moment(n, "1*11**", table) for n in config.ns]


def test_one_walk_checks_every_size_before_it_reads_the_table():
    table = sampled_table(3, 0.5, 1.25, 0)
    with pytest.raises(SizeLimitError, match="site cap"):
        clt._moments((3, 401), "1*", table)
    with pytest.raises(ValidationError, match="n_sites"):
        clt._moments((3, 2.5), "1*", table)
    with pytest.raises(ValidationError, match="does not cover"):
        clt._moments((3, 4), "1*", table)


def test_a_step_down_from_the_peak_holds_one_peak_vector():
    # 111*1*** peaks twice, and the half cut off at one peak steps down from
    # the other: the annihilation gathers into the lower vector, so nothing
    # but the dense C(200, 3) amplitudes (10.5 MB), the held level-1 edges
    # (0.6 MB) and a chunk's temporaries is alive at the peak.  1*111***
    # peaks once, where it is cut, so its halves stop at popcount 2 and no
    # popcount-3 vector is built
    table = sampled_table(200, 0.5, 1.25, 0)
    table.packed(200)  # the draw happens on the first bulk read
    for eps, bound in (("1*111***", 0.5), ("111*1***", 1.5)):
        tracemalloc.start()
        try:
            partial_sum_moment(200, eps, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * math.comb(200, 3), (eps, peak)


def test_a_peak_4_word_meets_below_its_peak_on_the_level_2_edges():
    # 1111**** is cut at its middle, its peak: one walk of *** climbs to
    # popcount 3 on the level-2 edges held whole (keys, weights and sites,
    # C(80, 2) rows of 78), and the meet places the level-3 amplitudes into
    # two [C(80, 2), 80] matrices.  Beside those, only the level-3
    # amplitudes, mu (float64 and int64) and a chunk's temporaries are
    # alive; the C(80, 4) state, which would take 12.7 MB, is never built
    n = 80
    table = sampled_table(n, 0.5, 1.25, 0)
    table.packed(n)  # the draw happens on the first bulk read
    tracemalloc.start()
    try:
        partial_sum_moment(n, "1111****", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 3 * 8 * math.comb(n, 2) * (n - 2)
    meet = 2 * 8 * math.comb(n, 2) * n
    below = 2 * 8 * math.comb(n, 3)
    assert peak <= held + meet + below + 2 * 8 * n * n + 32 * 8 * clt._CHUNK, peak
    assert peak < 8 * math.comb(n, 4)


def test_binomials_equal_math_comb():
    for n, cols in ((0, 1), (1, 3), (7, 9), (400, 5), (4096, 3)):
        expected = [[math.comb(x, j) for j in range(cols)] for x in range(n + 1)]
        assert clt._binomials(n, cols).tolist() == expected


def test_the_two_engines_agree_at_finite_n():
    # N^2 * moment is the sum over set partitions of the positions whose
    # blocks alternate: for 11** the crossing and the nesting, for 1*1* the
    # disjoint pairing and the one block b_i b_i* b_i b_i*, worth N
    for seed in range(6):
        table = sampled_table(150, 0.5, 1.25, seed)
        for n in (5, 17, 60, 150):
            crossed = partial_sum_moment(n, "11**", table)
            pairs = (limit_coefficient_estimate(CROSSING, "11**", n, table)
                     + limit_coefficient_estimate(NESTING, "11**", n, table))
            assert math.isclose(crossed, pairs, rel_tol=1e-14), (seed, n)
            alternating = partial_sum_moment(n, "1*1*", table)
            disjoint = limit_coefficient_estimate(DISJOINT, "1*1*", n, table) + 1 / n
            assert math.isclose(alternating, disjoint, rel_tol=1e-14), (seed, n)


def test_peak_popcount():
    assert max(clt._popcounts("")) == 0
    assert max(clt._popcounts("1*")) == 1
    assert max(clt._popcounts("111***")) == 3
    assert max(clt._popcounts("1111****")) == 4
    assert max(clt._popcounts("1*1*1*1*")) == 1
    assert max(clt._popcounts("**")) == 2
    # the first factor kills the vacuum, so this walk never runs
    assert max(clt._popcounts("****1")) == 3
    assert clt._popcounts("****1") == [3, 2, 1, 0, -1, 0]
    assert clt._popcounts("11**") == [0, 1, 2, 1, 0]


def test_state_cap():
    # the largest runs of the baseline stay admitted
    assert math.comb(200, max(clt._popcounts("111***"))) <= MAX_SUM_STATES
    assert math.comb(100, max(clt._popcounts("1111****"))) <= MAX_SUM_STATES
    assert math.comb(400, max(clt._popcounts("111***"))) <= MAX_SUM_STATES
    table = sampled_table(3, 0.5, 1.25, 0)
    with pytest.raises(SizeLimitError, match="states"):
        partial_sum_moment(400, "1111****", table)
    ok = ExperimentConfig(mode="moment", eps="1111****", q=0.5, t=1.25, ns=(100,), seed=0)
    assert ok.validate() == []
    big = ExperimentConfig(mode="moment", eps="1111****", q=0.5, t=1.25, ns=(400,), seed=0)
    assert any("states" in p for p in big.validate())
    with pytest.raises(ValidationError, match="states"):
        convergence_experiment(big)


def test_state_cap_exits_2(capsys):
    code = main(
        ["clt", "--mode", "moment", "--eps", "1111****", "--q", "0.5", "--t", "1.25",
         "--ns", "400"]
    )
    err = capsys.readouterr().err
    assert code == 2 and "states" in err and "internal error" not in err


def test_moment_validation():
    table = sampled_table(3, 0.5, 1.25, 0)
    with pytest.raises(ValidationError):
        partial_sum_moment(0, "1*", table)
    with pytest.raises(SizeLimitError):
        partial_sum_moment(401, "1*", table)
    with pytest.raises(SizeLimitError):
        partial_sum_moment(3, "1*" * 5, table)
    with pytest.raises(ValidationError):
        partial_sum_moment(4, "1*", table)  # table covers only 3 sites


def test_estimate_single_pair_is_one():
    table = sampled_table(10, 0.5, 1.25, 0)
    assert limit_coefficient_estimate(PairPartition(((1, 2),)), "1*", 10, table) == 1.0


def test_a_class_of_fewer_than_two_pairs_is_one_after_every_check():
    table = sampled_table(5, 0.5, 1.25, 0)
    assert limit_coefficient_estimate(PairPartition(()), "", 5, table) == 1.0
    with pytest.raises(ValidationError, match="does not cover"):
        limit_coefficient_estimate(PairPartition(()), "", 6, table)
    # a one-pair class reads its table, as every class does
    half = CoefficientTable({(1, 2): 0.5}, 1.0)
    with pytest.raises(ValidationError, match="two-point table"):
        limit_coefficient_estimate(PairPartition(((1, 2),)), "1*", 2, half)
    assert limit_coefficient_estimate(PairPartition(((1, 2),)), "1*", 1, half) == 1.0


def test_estimate_disjoint_counts_offdiagonal_tuples():
    for n in (5, 40):
        table = sampled_table(n, 0.5, 1.25, 3)
        got = limit_coefficient_estimate(DISJOINT, "1*1*", n, table)
        assert got == (n * n - n) / n**2


@pytest.mark.parametrize("pairs, eps, n, q, t, seed", [
    pytest.param(((1, 4), (2, 6), (3, 5)), "111***", 6, 0.5, 1.25, 3, id="3-pairs"),
    pytest.param(CROSSING.pairs, "11**", 9, -0.4, 0.8, 5, id="crossing-11**"),
    pytest.param(NESTING.pairs, "1*1*", 9, -0.4, 0.8, 5, id="nesting-1*1*"),
    pytest.param(CROSSING.pairs, "1**1", 9, -0.4, 0.8, 5, id="crossing-1**1"),
    pytest.param(((1, 8), (2, 7), (3, 6), (4, 5)), "1111****", 7, -0.4, 0.8, 8,
                 id="4-pairs-nested"),
    pytest.param(((1, 5), (2, 3), (4, 7), (6, 8)), "1*1*1**1", 7, -0.4, 0.8, 8,
                 id="4-pairs-mixed"),
    pytest.param(((1, 6), (2, 9), (3, 4), (5, 10), (7, 8)), "11*1**1*1*", 7, -0.4, 0.8, 8,
                 id="5-pairs"),
    pytest.param(((1, 12), (2, 5), (3, 8), (4, 10), (6, 7), (9, 11)), "1*11*1**1**1", 7,
                 0.5, 1.25, 3, id="6-pairs"),
])
def test_estimate_matches_tuple_average(pairs, eps, n, q, t, seed):
    table = sampled_table(n, q, t, seed)
    pairing = PairPartition(pairs)
    block = pairing.block_of()
    brute = 0.0
    for tup in itertools.permutations(range(1, n + 1), pairing.n):
        values = tuple(tup[block[pos] - 1] for pos in range(1, pairing.size + 1))
        brute += _brute.transposition_beta(values, eps, table)
    brute /= n**pairing.n
    got = limit_coefficient_estimate(pairing, eps, n, table)
    assert got == pytest.approx(brute, rel=1e-12)


def _random_class(draw, pairs: int) -> tuple[PairPartition, str]:
    """A pairing class of the given number of pairs, a shuffle of the 2n
    positions paired in order, and any letters."""
    order = draw(st.permutations(range(1, 2 * pairs + 1)))
    pairing = PairPartition(tuple(zip(order[::2], order[1::2])))
    eps = "".join(draw(st.lists(st.sampled_from("1*"), min_size=pairing.size,
                                max_size=pairing.size)))
    return pairing, eps


@st.composite
def estimator_cases(draw):
    """(pairing, eps, N, table): any pairing class of one to seven pairs,
    any letters, N from the number of pairs to 12 (to 7 past four pairs,
    where the oracles' N!/(N-n)! tuples cost most), and a table sampled at
    q = t, -t, 0 or generic, or one of random signs whose t takes
    magnitudes 1e-300..1e300, so that estimates reach inf and 0."""
    # about one case in sixteen has five to seven pairs; at N = 7 the two
    # oracles take 0.05-0.3 s on it
    wide = draw(st.integers(0, 15)) == 0
    pairs = draw(st.integers(5, 7) if wide else st.integers(1, 4))
    pairing, eps = _random_class(draw, pairs)
    n_sites = draw(st.integers(pairs, 7 if wide else 12))
    if draw(st.booleans()):
        t = draw(st.floats(0.2, 3.0))
        ratio = draw(st.one_of(st.sampled_from((1.0, -1.0, 0.0)), st.floats(-1.0, 1.0)))
        table = sampled_table(n_sites, ratio * t, t, draw(st.integers(0, 2**64 - 1)))
    else:
        count = n_sites * (n_sites - 1) // 2
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=count, max_size=count))
        # mostly near 1, so that many estimates stay finite and every bit shows
        t = 10.0 ** draw(st.one_of(st.floats(-0.5, 0.5), st.floats(-300, 300)))
        table = CoefficientTable(signs, t)
    return pairing, eps, n_sites, table


@settings(max_examples=400, deadline=None)
@given(case=estimator_cases())
# a nesting of two 1/(t mu) factors at t = 1e-300: t^-2 overflows to inf
@example(case=(NESTING, "1**1", 5, sampled_table(5, 0.0, 1e-300, 1)))
# three crossings at t = 1e200 with signs of both kinds: t^3 overflows, and
# the sign sum gives the infinity its sign
@example(case=(PairPartition(((1, 4), (2, 5), (3, 6))), "111***", 5,
               sampled_table(5, 0.0, 1e200, 1)))
def test_estimate_matches_the_exact_oracle_bit_for_bit(case):
    pairing, eps, n_sites, table = case
    got = limit_coefficient_estimate(pairing, eps, n_sites, table)
    assert got.hex() == _brute.exact_estimate(pairing, eps, n_sites, table).hex()
    # the float ones-grid agrees where no product of t-scaled factors leaves
    # the normal range, up to the rounding of sums of terms of one magnitude:
    # relative to the estimate on the all-ones table, whose terms all add up
    if 1e-25 < table.t < 1e25:
        plus = CoefficientTable([1.0] * table.packed(n_sites).size, table.t)
        grid = _brute.limit_coefficient_estimate(pairing, eps, n_sites, table)
        scale = abs(_brute.limit_coefficient_estimate(pairing, eps, n_sites, plus))
        assert got == pytest.approx(grid, rel=1e-12, abs=1e-12 * scale)


@st.composite
def estimate_runs(draw):
    """(pairing, eps, ns, table): a class of one to four pairs, an
    increasing list of one to four sizes from the number of pairs to 10,
    and a two-point table of max(ns) sites or more, sampled or of random
    signs built by hand."""
    pairs = draw(st.integers(1, 4))
    pairing, eps = _random_class(draw, pairs)
    ns = sorted(draw(st.lists(st.integers(pairs, 10), min_size=1, max_size=4, unique=True)))
    sites = max(ns) + draw(st.integers(0, 2))
    if draw(st.booleans()):
        t = draw(st.floats(0.2, 3.0))
        ratio = draw(st.one_of(st.sampled_from((1.0, -1.0, 0.0)), st.floats(-1.0, 1.0)))
        table = sampled_table(sites, ratio * t, t, draw(st.integers(0, 2**64 - 1)))
    else:
        count = sites * (sites - 1) // 2
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=count, max_size=count))
        table = CoefficientTable(signs, 10.0 ** draw(st.floats(-2, 2)))
    return pairing, eps, tuple(ns), table


@settings(max_examples=200, deadline=None)
@given(run=estimate_runs())
def test_one_read_estimates_every_size_bit_for_bit(run):
    pairing, eps, ns, table = run
    got = [value.hex() for value in clt._estimates(ns, pairing, eps, table)]
    assert got == [limit_coefficient_estimate(pairing, eps, n, table).hex() for n in ns]
    assert got == [_brute.exact_estimate(pairing, eps, n, table).hex() for n in ns]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_read_refuses_a_table_two_point_only_on_a_prefix(data):
    # the pairs of the first `prefix` sites are +-1, every later one is not
    pairs = data.draw(st.integers(1, 4))
    pairing, eps = _random_class(data.draw, pairs)
    prefix = data.draw(st.integers(pairs, 8))
    sites = data.draw(st.integers(prefix + 1, 10))
    head = prefix * (prefix - 1) // 2
    values = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=head, max_size=head))
    values += data.draw(st.lists(st.sampled_from((0.5, -2.0, 1.5, -0.25)),
                                 min_size=sites * (sites - 1) // 2 - head,
                                 max_size=sites * (sites - 1) // 2 - head))
    table = CoefficientTable(values, 1.25)
    ns = tuple(sorted(data.draw(st.lists(st.integers(pairs, sites), min_size=1, max_size=4,
                                         unique=True))))
    if max(ns) > prefix:
        with pytest.raises(ValidationError, match="two-point"):
            clt._estimates(ns, pairing, eps, table)
    else:
        got = clt._estimates(ns, pairing, eps, table)
        assert got == [_brute.exact_estimate(pairing, eps, n, table) for n in ns]


def test_one_read_checks_every_size_before_it_reads_the_table():
    table = sampled_table(3, 0.5, 1.25, 0)
    with pytest.raises(SizeLimitError, match="tuples"):
        clt._estimates((3, 10**4), CROSSING, "11**", table)
    with pytest.raises(ValidationError, match="n_sites"):
        clt._estimates((3, 2.5), CROSSING, "11**", table)
    with pytest.raises(ValidationError, match="distinct values"):
        clt._estimates((3, 1), CROSSING, "11**", table)
    with pytest.raises(ValidationError, match="does not cover"):
        clt._estimates((3, 4), CROSSING, "11**", table)


def test_a_two_pair_class_builds_no_matrix():
    # 1000 sites: an [N, N] float matrix is 8 MB, the table's pairs 4 MB
    n = 1000
    table = sampled_table(n, 0.5, 1.25, 3)
    table.packed(n)  # the draw happens on the first bulk read
    for pairing, eps in ((CROSSING, "11**"), (NESTING, "1**1"), (DISJOINT, "1*1*")):
        tracemalloc.start()
        try:
            got = clt._estimates((10, 500, n), pairing, eps, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (pairing, eps, peak)
        assert got == [limit_coefficient_estimate(pairing, eps, m, table) for m in (10, 500, n)]


def test_a_wide_class_builds_its_matrices_once(monkeypatch):
    table = sampled_table(30, 0.5, 1.25, 3)
    built = []
    real = table.base_matrix
    monkeypatch.setattr(table, "base_matrix", lambda n: built.append(n) or real(n))
    pairing = PairPartition(((1, 4), (2, 6), (3, 5)))
    got = clt._estimates((5, 12, 30), pairing, "111***", table)
    assert built == [30]
    assert got == [_brute.exact_estimate(pairing, "111***", n, table) for n in (5, 12, 30)]


# classes with no crossing, each with its default pattern: the empty class,
# one pair, a nesting, a nesting beside a pair inside a third, and 4 nested
CROSSING_FREE = [
    (PairPartition(()), ""),
    (PairPartition(((1, 2),)), "1*"),
    (NESTING, "11**"),
    (PairPartition(((1, 6), (2, 3), (4, 5))), "11*1**"),
    (PairPartition(((1, 8), (2, 7), (3, 6), (4, 5))), "1111****"),
]


def _largest_estimate_size(pairs: int) -> int:
    """The most sites the tuple and table caps admit for a class of pairs."""
    return max(n for n in range(max(pairs, 1), MAX_TABLE_SITES + 1)
               if n**pairs <= MAX_ESTIMATE_TUPLES)


def _never_drawn(*args):
    raise AssertionError("a table was drawn")


@pytest.mark.parametrize("pairing, eps", CROSSING_FREE, ids=str)
def test_a_crossing_free_class_on_a_sampled_table_draws_nothing(pairing, eps, monkeypatch):
    n = pairing.n
    crossings, nestings = cross_nest_counts(pairing)
    assert crossings == 0
    top = _largest_estimate_size(n)
    ns = sorted({max(n, 1), max(n, 1) + 1, top // 2, top})
    # each tuple's product is t^E, E the nestings, over the N!/(N-n)! tuples
    want = [float(Fraction(math.perm(m, n)) * Fraction(1.25) ** nestings / m**n) for m in ns]
    with monkeypatch.context() as patch:
        patch.setattr(coeffs, "sample_packed", _never_drawn)
        patch.setattr(coeffs, "_draw", _never_drawn)
        assert clt._estimates(ns, pairing, eps, sampled_table(top, 0.5, 1.25, 3)) == want
        if eps:  # an experiment needs a nonempty word
            config = ExperimentConfig(mode="lambda", eps=eps, q=0.5, t=1.25, ns=tuple(ns),
                                      seed=3, pairing=pairing)
            assert [row.value for row in convergence_experiment(config).rows] == want
    # the same values as the exact sum over tuples, on sampled tables and on
    # tables of +-1 built by hand
    rng = random.Random(n)
    for m in range(max(n, 1), 8):
        signs = [rng.choice((1.0, -1.0)) for _ in range(m * (m - 1) // 2)]
        for table in (sampled_table(m, -0.4, 0.8, m), CoefficientTable(signs, 0.8)):
            got = limit_coefficient_estimate(pairing, eps, m, table)
            assert got.hex() == _brute.exact_estimate(pairing, eps, m, table).hex()


def _oracle_tables(n_sites: int) -> tuple[CoefficientTable, CoefficientTable]:
    """A sampled table and one of random signs built by hand, of n_sites."""
    rng = random.Random(n_sites)
    signs = [rng.choice((1.0, -1.0)) for _ in range(n_sites * (n_sites - 1) // 2)]
    return sampled_table(n_sites, -0.4, 0.8, n_sites), CoefficientTable(signs, 0.8)


def _no_matrix(*args):
    raise AssertionError("a matrix was built")


# classes whose one crossing joins two blocks that any number of others nest
# around or sit beside: a crossing beside a nested pair, and one crossing
# inside five nested pairs
TWO_TOUCHED = [
    (PairPartition(((1, 5), (2, 3), (4, 6))), "11*1**"),
    (PairPartition(((1, 14), (2, 13), (3, 12), (4, 11), (5, 10), (6, 8), (7, 9))),
     "1111111*******"),
]


@pytest.mark.parametrize("pairing, eps", TWO_TOUCHED, ids=str)
def test_a_class_whose_crossings_join_two_blocks_builds_no_matrix(pairing, eps, monkeypatch):
    monkeypatch.setattr(CoefficientTable, "base_matrix", _no_matrix)
    monkeypatch.setattr(clt, "_contract", _no_matrix)
    n = pairing.n
    crossings, nestings = cross_nest_counts(pairing)
    assert crossings == 1
    top = _largest_estimate_size(n)
    ns = sorted({n, n + 1, max(n, top // 2), top})
    table = sampled_table(top, 0.5, 1.25, 3)
    # the two crossing blocks take the values of a pair i < j in either
    # order, every other block one of the N - 2 values left, and every
    # factor of the default pattern but the crossing's is t
    want = [float(Fraction(math.perm(m - 2, n - 2) * 2 * int(table.packed(m).sum()))
                  * Fraction(1.25) ** (crossings + nestings) / m**n) for m in ns]
    assert clt._estimates(ns, pairing, eps, table) == want
    assert [limit_coefficient_estimate(pairing, eps, m, table) for m in ns] == want
    for m in range(n, 8):
        for small in _oracle_tables(m):
            got = limit_coefficient_estimate(pairing, eps, m, small)
            assert got.hex() == _brute.exact_estimate(pairing, eps, m, small).hex()


def test_three_crossing_blocks_under_a_nesting_contract_three_blocks(monkeypatch):
    # three mutually crossing pairs inside a fourth, which no crossing touches
    pairing = PairPartition(((1, 8), (2, 5), (3, 6), (4, 7)))
    blocks = []
    real = clt._contract
    monkeypatch.setattr(clt, "_contract", lambda a, k: blocks.append(k) or real(a, k))
    ns = (4, 20, 56)
    table = sampled_table(56, 0.5, 1.25, 3)
    got = clt._estimates(ns, pairing, "1111****", table)
    assert blocks == [3] * len(ns)
    assert got == [limit_coefficient_estimate(pairing, "1111****", m, table) for m in ns]
    for m in range(4, 8):
        for small in _oracle_tables(m):
            blocks.clear()
            got = limit_coefficient_estimate(pairing, "1111****", m, small)
            assert got.hex() == _brute.exact_estimate(pairing, "1111****", m, small).hex()
            assert blocks == [3]


@pytest.mark.parametrize("eps, ns", [
    ("****", (10, 400)),  # the vacuum holds nothing to annihilate
    ("11****", (10, 400)),
    ("*1", (2, 400)),  # a suffix with more '1' than '*'
    ("1111****", (1, 2, 3)),  # sizes below the peak popcount hold no set
])
def test_a_moment_word_that_cannot_walk_draws_nothing(eps, ns, monkeypatch):
    zeros = [0.0] * len(ns)
    with monkeypatch.context() as patch:
        patch.setattr(coeffs, "sample_packed", _never_drawn)
        patch.setattr(coeffs, "_draw", _never_drawn)
        assert clt._moments(ns, eps, sampled_table(max(ns), 0.5, 1.25, 3)) == zeros
        config = ExperimentConfig("moment", eps, 0.5, 1.25, ns, 3)
        assert [row.value for row in convergence_experiment(config).rows] == zeros
    # a table built by hand that is not two-point is refused all the same
    top = max(ns)
    generic = CoefficientTable([1.0, -1.0, 0.5] * (top * (top - 1) // 6 + 1), 1.25)
    with pytest.raises(ValidationError, match="two-point"):
        clt._moments(ns, eps, generic)


@pytest.mark.parametrize("eps, ns", [
    ("", (1, 7)),
    ("1*", (1, 200)),
    ("1*1*", (3, 50, 200)),
    ("1*1*1*", (4, 90)),
    ("1*1*1*1*", (2, 32, 400)),
])
def test_a_peak_1_word_draws_no_table(eps, ns, monkeypatch):
    # its steps and its meet at popcount 0 take every site with weight 1
    want = [_brute.exact_moment(n, eps, sampled_table(n, 0.5, 1.25, 3)) for n in ns]
    with monkeypatch.context() as patch:
        patch.setattr(coeffs, "sample_packed", _never_drawn)
        patch.setattr(coeffs, "_draw", _never_drawn)
        patch.setattr(CoefficientTable, "base_matrix", _no_matrix)
        assert clt._moments(ns, eps, sampled_table(max(ns), 0.5, 1.25, 3)) == want
        if eps:  # an experiment needs a nonempty word
            config = ExperimentConfig("moment", eps, 0.5, 1.25, ns, 3)
            assert [row.value for row in convergence_experiment(config).rows] == want
    # a table built by hand that is not two-point is refused all the same
    top = max(ns)
    generic = CoefficientTable([1.0, -1.0, 0.5] * (top * (top - 1) // 6 + 1), 1.25)
    with pytest.raises(ValidationError, match="two-point"):
        clt._moments(ns, eps, generic)


@pytest.mark.parametrize("config", [
    ExperimentConfig(mode="lambda", eps="11**", q=0.5, t=1.25, ns=(5, 40, 90), seed=3,
                     pairing=CROSSING),
    ExperimentConfig(mode="lambda", eps="111***", q=0.5, t=1.25, ns=(5, 12, 30), seed=3,
                     pairing=PairPartition(((1, 4), (2, 5), (3, 6)))),
    ExperimentConfig(mode="lambda", eps="11*1**", q=0.5, t=1.25, ns=(5, 12, 30), seed=3,
                     pairing=PairPartition(((1, 5), (2, 3), (4, 6)))),
    ExperimentConfig(mode="moment", eps="11*1**", q=0.5, t=1.25, ns=(5, 12, 30), seed=3),
], ids=["crossing", "3-crossing", "one-crossing", "moment"])
def test_a_crossing_class_and_a_moment_draw_their_table_once(config, monkeypatch):
    drawn = []
    real = coeffs.sample_packed
    monkeypatch.setattr(coeffs, "sample_packed", lambda *law: drawn.append(law) or real(*law))
    report = convergence_experiment(config)
    assert drawn == [(max(config.ns), config.q, config.t, config.seed)]
    table = sampled_table(max(config.ns), config.q, config.t, config.seed)
    if config.mode == "moment":
        want = [_brute.exact_moment(n, config.eps, table) for n in config.ns]
    else:
        want = [limit_coefficient_estimate(config.pairing, config.eps, n, table)
                for n in config.ns]
    assert [row.value for row in report.rows] == want


# sha256 of the csv and json artifacts of `clt --mode lambda` runs, keyed by
# (eps, pairing, q, t, ns, seed); every estimate in them equals
# _brute.exact_estimate
LAMBDA_PINS = {
    ("11**", "1-3,2-4", "0.5", "1.25", "20,60", 0): (
        "a41b44e62138a9d8f3c531df9ff839027472e5c34df3cbd3e53e108f0c78f5ec",
        "7340fde89cf736dc25a4d76183d2a65e2ed0261591c5166162435edb34bb594d",
    ),
    ("11**", "1-3,2-4", "0.5", "1.25", "20,60", 7): (
        "7355c2c1df0ee5b9ef0f1ca3f94759bd0a92ae27af0e24e0ed3321d9a2341f94",
        "bee784c2d6cab9d8dd467e39eb274e2d2b99507b6e92c3ee9d75f99272d3e67a",
    ),
    ("1**1", "1-4,2-3", "-0.3", "0.8", "20,60", 0): (
        "2b80f028ee171147b4b1b00349f4ed5a5b29632ab67d5d1ddda3dc50619d51a5",
        "3916a95a4a9f867c7300392c23910994ac5446f767e097a08032b6e500d94a4f",
    ),
    ("1**1", "1-4,2-3", "-0.3", "0.8", "20,60", 7): (
        "6fe4da08c38ae7d60fc6e72f6c0000ead43531469b01430f1f68f264e96adc63",
        "cdde795ab2849736fc23b923c06cde2152c4b26c3bfe005475ac0005a2c73061",
    ),
    ("111***", "1-4,2-6,3-5", "0.5", "1.25", "10,30", 0): (
        "36848edfe053886b3ce507bcc0e3841bcc0351bb63bb936c3eda35d625daf1f5",
        "91c3520e99afb8d62367fd5cbd166c6b493018b0705dec18343b7c66452d0d32",
    ),
    ("111***", "1-4,2-6,3-5", "0.5", "1.25", "10,30", 7): (
        "3731bafe37bfaddd755707055df84f0be0a3d41e3efc9486651c1358572eb00a",
        "36aa3d3009b06537e7c7595db88c17a0d6bbc4233758cecfe4ef70c96b6c92bd",
    ),
    ("1*1**1", "1-6,2-3,4-5", "-0.3", "0.8", "10,30", 0): (
        "3d4fb2039fa513c8cc78040c406603b471aa3e13e5ccffaff8ddb89657dd38d4",
        "a95d421a641f4696748842c0b5116b8a8aa304aa5a2d101a4170b814f4191df3",
    ),
    ("1*1**1", "1-6,2-3,4-5", "-0.3", "0.8", "10,30", 7): (
        "d0cab68af5b800604c1feedfe30c929e1177032195d9a71c893f6852bd8b8dc6",
        "1b4309f34eabdd9f60880d4b9940e60b4008601649228e7c5d655d67e3785f3a",
    ),
}


@pytest.mark.parametrize("run", list(LAMBDA_PINS))
def test_lambda_artifact_bytes_are_pinned(run, capsys):
    eps, pairing, q, t, ns, seed = run
    for fmt, want in zip(("csv", "json"), LAMBDA_PINS[run]):
        code = main(
            ["clt", "--mode", "lambda", "--eps", eps, "--pairing", pairing, "--q", q,
             "--t", t, "--ns", ns, "--seed", str(seed), "--format", fmt]
        )
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_lambda_pin_rows_equal_the_exact_oracle():
    for eps, spelled, q, t, ns, seed in LAMBDA_PINS:
        pairing = PairPartition(tuple(tuple(map(int, p.split("-"))) for p in spelled.split(",")))
        sizes = tuple(map(int, ns.split(",")))
        cfg = ExperimentConfig(mode="lambda", eps=eps, q=float(q), t=float(t), ns=sizes,
                               seed=seed, pairing=pairing)
        table = sampled_table(max(sizes), float(q), float(t), seed)
        for row in convergence_experiment(cfg).rows:
            assert row.value == _brute.exact_estimate(pairing, eps, row.n, table), (cfg, row.n)


def test_estimate_regression_pin():
    table = sampled_table(7, 0.5, 1.25, 3)
    got = limit_coefficient_estimate(
        PairPartition(((1, 4), (2, 6), (3, 5))), "111***", 7, table
    )
    assert got == 0.011388483965014577


def test_estimate_refuses_a_table_that_is_not_two_point():
    rng = random.Random(5)
    values = [rng.choice([1, -1]) * rng.uniform(0.2, 3.0) for _ in range(36)]
    generic = CoefficientTable(values, 1.7)
    for pairs, eps in ((((1, 3), (2, 4)), "1**1"), (((1, 4), (2, 6), (3, 5)), "1*1**1")):
        with pytest.raises(ValidationError, match="two-point"):
            limit_coefficient_estimate(PairPartition(pairs), eps, 9, generic)
    # only the prefix the estimate reads counts: a +-1 table whose values
    # past its first 5 sites are generic still gives an estimate
    mixed = CoefficientTable([1.0, -1.0] * 5 + values[10:], 1.7)
    assert limit_coefficient_estimate(CROSSING, "11**", 5, mixed) == _brute.exact_estimate(
        CROSSING, "11**", 5, mixed)
    with pytest.raises(ValidationError, match="two-point"):
        limit_coefficient_estimate(CROSSING, "11**", 6, mixed)


def test_estimate_validation():
    table = sampled_table(8, 0.5, 1.25, 0)
    # eight pairs: the tuple cap refuses 8^8 values, and fewer sites than pairs
    # have no tuple of distinct values
    with pytest.raises(SizeLimitError, match=r"^8\^8 tuples exceed the 10000000 cap$"):
        limit_coefficient_estimate(EIGHT_PAIRS, "1*" * 8, 8, table)
    with pytest.raises(ValidationError, match="^need at least 8 sites for 8 distinct values$"):
        limit_coefficient_estimate(EIGHT_PAIRS, "1*" * 8, 7, table)
    with pytest.raises(ValidationError):
        limit_coefficient_estimate(CROSSING, "1*", 8, table)
    with pytest.raises(ValidationError):
        limit_coefficient_estimate(
            PairPartition(((1, 4), (2, 6), (3, 5))), "111***", 2, table
        )
    with pytest.raises(SizeLimitError):
        limit_coefficient_estimate(
            PairPartition(((1, 4), (2, 6), (3, 5))), "111***", 500, table
        )


def test_config_validation_collects_all_problems():
    cfg = ExperimentConfig(mode="bogus", eps="1x", q=0.5, t=-1.0, ns=(), seed=0)
    problems = cfg.validate()
    assert len(problems) == 4
    joined = "; ".join(problems)
    assert "mode" in joined and "eps" in joined and "t > 0" in joined and "ns" in joined
    with pytest.raises(ValidationError) as err:
        convergence_experiment(cfg)
    assert ";" in str(err.value)


def test_config_validation_passes_good_configs():
    good = ExperimentConfig(
        mode="moment", eps="11**", q=0.5, t=1.25, ns=(5, 10), seed=0
    )
    assert good.validate() == []
    good = ExperimentConfig(
        mode="lambda", eps="11**", q=0.5, t=1.25, ns=(5, 10), seed=0, pairing=CROSSING
    )
    assert good.validate() == []


def test_config_validation_specifics():
    bad_ns = ExperimentConfig(mode="moment", eps="1*", q=0.5, t=1.25, ns=(5, 5), seed=0)
    assert any("increasing" in p for p in bad_ns.validate())
    too_big = ExperimentConfig(
        mode="moment", eps="1*", q=0.5, t=1.25, ns=(500,), seed=0
    )
    assert any("400" in p for p in too_big.validate())
    missing_pairing = ExperimentConfig(
        mode="lambda", eps="1*", q=0.5, t=1.25, ns=(5,), seed=0
    )
    assert any("pairing" in p for p in missing_pairing.validate())
    for q, t in ((float("nan"), float("nan")), (0.5, float("inf")), (float("-inf"), 1.0)):
        non_finite = ExperimentConfig(mode="moment", eps="11**", q=q, t=t, ns=(10,), seed=0)
        assert any("finite" in p for p in non_finite.validate())
        with pytest.raises(ValidationError, match="finite"):
            convergence_experiment(non_finite)
    one_pair = ExperimentConfig(
        mode="lambda", eps="1*", q=0.5, t=1.25, ns=(10**5,), seed=0,
        pairing=PairPartition(((1, 2),)),
    )
    assert any("table" in p for p in one_pair.validate())
    q_out = ExperimentConfig(mode="moment", eps="1*", q=2.0, t=1.0, ns=(5,), seed=0)
    assert any("|q| <= t" in p for p in q_out.validate())
    tuple_cap = ExperimentConfig(
        mode="lambda",
        eps="111***",
        q=0.5,
        t=1.25,
        ns=(400,),
        seed=0,
        pairing=PairPartition(((1, 4), (2, 6), (3, 5))),
    )
    assert any("tuples" in p for p in tuple_cap.validate())


SMALL_TABLE = sampled_table(3, 0.5, 1.25, 0)
GOOD_MOMENT = ExperimentConfig(mode="moment", eps="11**", q=0.5, t=1.25, ns=(5, 10), seed=0)


def _table_check(cfg):
    _table_law(max(cfg.ns), cfg.q, cfg.t, cfg.seed)


def _moment_check(cfg):
    partial_sum_moment(max(cfg.ns), cfg.eps, SMALL_TABLE)


def _estimate_check(cfg):
    limit_coefficient_estimate(cfg.pairing, cfg.eps, max(cfg.ns), SMALL_TABLE)


@pytest.mark.parametrize("change, check", [
    pytest.param(dict(q=math.nan), _table_check, id="finite"),
    pytest.param(dict(t=-1.0), _table_check, id="t>0"),
    pytest.param(dict(q=2.0, t=1.0), _table_check, id="|q|<=t"),
    pytest.param(dict(ns=(MAX_TABLE_SITES + 1,)), _table_check, id="table-sites"),
    pytest.param(dict(seed=2.0), _table_check, id="seed"),
    pytest.param(dict(ns=(MAX_SUM_SIZE + 1,)), _moment_check, id="sum-size"),
    pytest.param(dict(eps="1*" * (MAX_SUM_LENGTH // 2 + 1)), _moment_check, id="sum-length"),
    pytest.param(dict(eps="1111****", ns=(400,)), _moment_check, id="sum-states"),
    pytest.param(dict(mode="lambda", eps="1*" * 8, ns=(8,), pairing=EIGHT_PAIRS),
                 _estimate_check, id="estimate-pairs"),
    pytest.param(dict(mode="lambda", eps="1*" * 8, ns=(7,), pairing=EIGHT_PAIRS),
                 _estimate_check, id="estimate-sites"),
    pytest.param(
        dict(mode="lambda", eps="111***", ns=(400,),
             pairing=PairPartition(((1, 4), (2, 6), (3, 5)))),
        _estimate_check, id="estimate-tuples"),
    pytest.param(dict(mode="lambda", eps="1*", pairing=CROSSING), _estimate_check,
                 id="eps-length"),
])
def test_validate_words_each_refusal_as_the_table_or_engine_does(change, check):
    cfg = dataclasses.replace(GOOD_MOMENT, **change)
    with pytest.raises(ValueError) as err:
        check(cfg)
    assert str(err.value) in cfg.validate()


def test_clt_reports_the_table_cap_and_the_engine_cap_together(capsys):
    code = main(["clt", "--mode", "moment", "--eps", "11**", "--q", "0.5", "--t", "1.25",
                 "--ns", "5000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: 5000 sites exceed the 4096-site table cap; 5000 sites exceed the 400-site cap\n"
    )


def test_moment_experiment_frozen_values():
    cfg = ExperimentConfig(
        mode="moment", eps="11**", q=0.5, t=1.25, ns=(25, 50, 100, 200), seed=42
    )
    report = convergence_experiment(cfg)
    values = [row.value for row in report.rows]
    assert values == [1.544, 1.726, 1.731, 1.738375]
    table = sampled_table(200, 0.5, 1.25, 42)
    assert values == [_brute.exact_moment(n, "11**", table) for n in cfg.ns]
    assert all(row.target == 1.75 for row in report.rows)
    assert report.rows[0].abs_err == pytest.approx(0.206, abs=1e-12)
    target = wick_mixed("11**").evaluate(0.5, 1.25)
    assert target == 1.75


def test_experiment_rows_are_restriction_stable():
    short = ExperimentConfig(mode="moment", eps="11**", q=0.5, t=1.25, ns=(5, 10), seed=9)
    long = ExperimentConfig(
        mode="moment", eps="11**", q=0.5, t=1.25, ns=(5, 10, 20), seed=9
    )
    a = convergence_experiment(short).rows
    b = convergence_experiment(long).rows
    assert [(r.n, r.value) for r in a] == [(r.n, r.value) for r in b[:2]]


def test_lambda_experiment_exact_disjoint():
    cfg = ExperimentConfig(
        mode="lambda",
        eps="1*1*",
        q=0.5,
        t=1.25,
        ns=(10, 20),
        seed=4,
        pairing=DISJOINT,
    )
    report = convergence_experiment(cfg)
    assert [row.value for row in report.rows] == [1 - 1 / 10, 1 - 1 / 20]
    assert all(row.target == 1.0 for row in report.rows)
    assert report.rows[1].abs_err == pytest.approx(1 / 20, abs=1e-15)


def cli_artifact(cfg: ExperimentConfig, fmt: str) -> str:
    """The artifact `qtwick clt` writes for cfg: its flags parsed into
    metadata as `main` parses them, then rendered."""
    argv = ["clt", "--mode", cfg.mode, "--eps", cfg.eps, f"--q={cfg.q!r}", f"--t={cfg.t!r}",
            "--ns", ",".join(map(str, cfg.ns)), "--seed", str(cfg.seed)]
    if cfg.pairing is not None:
        argv += ["--pairing", ",".join(f"{w}-{z}" for w, z in cfg.pairing.pairs)]
    return cli._clt_artifact(cli._meta_from_args(cli._parser().parse_args(argv)), fmt)


# (mode, eps, q, t, ns, pairing): both modes, a class with no target, extreme
# q and t, and --ns / --pairing spelled with spaces and out of order
CLT_GRID = [
    ("moment", "11**", "0.5", "1.25", "10,20", None),
    ("lambda", "11**", "0.5", "1.25", "20,60", "1-3,2-4"),
    ("lambda", "1**1", "0.5", "1.25", "6,12", "1-3,2-4"),
    ("lambda", "1*1*", "1e-300", "1e300", "5,9", "1-2,3-4"),
    ("moment", "1*1*", "1e-300", "1e300", "5,9", None),
    ("moment", "1*", "-0.25", "0.5", "10, 20", None),
    ("lambda", "11**", "0.5", "1.25", "10, 20", "2-4, 1-3"),
]


@pytest.mark.parametrize("fmt", ("csv", "json", "text"))
def test_clt_artifact_matches_the_row_oracle(fmt, tmp_path, capsys):
    for k, (mode, eps, q, t, ns, pairing) in enumerate(CLT_GRID):
        for seed in ("0", "7"):
            argv = ["clt", "--mode", mode, "--eps", eps, f"--q={q}", "--t", t, "--ns", ns,
                    "--seed", seed, "--format", fmt]
            argv += ["--pairing", pairing] if pairing else []
            path = tmp_path / f"{k}-{seed}.{fmt}"
            assert main(argv + ["--out", str(path)]) == 0
            meta = cli._meta_from_args(cli._parser().parse_args(argv))
            report = convergence_experiment(cli._clt_config(meta))
            text = path.read_text(encoding="utf-8")
            assert text == _brute.clt_artifact(report, fmt), argv
            code = main(["--check", str(path)])
            out, err = capsys.readouterr()
            if fmt == "text":  # carries no metadata to re-run
                assert code == 2 and "no metadata preamble" in err, argv
            else:
                assert (code, out) == (0, f"ok: {path}\n"), argv


def test_lambda_experiment_without_default_pattern_has_no_target():
    cfg = ExperimentConfig(
        mode="lambda",
        eps="1**1",
        q=0.5,
        t=1.25,
        ns=(6, 12),
        seed=4,
        pairing=CROSSING,
    )
    report = convergence_experiment(cfg)
    assert all(row.target is None and row.abs_err is None for row in report.rows)
    csv_text = cli_artifact(cfg, "csv")
    assert ",none,none" in csv_text


def test_csv_shape_and_determinism():
    cfg = ExperimentConfig(
        mode="moment", eps="11**", q=0.5, t=1.25, ns=(10, 20), seed=7
    )
    first = cli_artifact(cfg, "csv")
    second = cli_artifact(cfg, "csv")
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "# command: clt"
    assert "N,eps,q,t,seed,mode,value,target,abs_err" in lines
    data = [l for l in lines if not l.startswith("#") and not l.startswith("N,")]
    assert len(data) == 2
    assert data[0].startswith("10,11**,0.5,1.25,7,moment,")
    assert first.endswith("\n")


def test_metadata_contents():
    cfg = ExperimentConfig(
        mode="lambda", eps="11**", q=0.5, t=1.25, ns=(5, 10), seed=3, pairing=CROSSING
    )
    meta, _ = cli._parse_artifact(cli_artifact(cfg, "csv"))
    assert list(meta) == [
        "command",
        "version",
        "mode",
        "eps",
        "q",
        "t",
        "seed",
        "ns",
        "pairing",
    ]
    assert meta["pairing"] == "1-3;2-4"
    assert meta["ns"] == "5,10"


def test_json_round_trip():
    cfg = ExperimentConfig(mode="moment", eps="1*", q=0.0, t=1.0, ns=(3,), seed=0)
    report = convergence_experiment(cfg)
    payload = json.loads(cli_artifact(cfg, "json"))
    assert payload["metadata"]["command"] == "clt"
    assert payload["rows"][0]["value"] == 1.0
    assert payload["rows"][0]["N"] == 3
    assert isinstance(report, ExperimentReport)
