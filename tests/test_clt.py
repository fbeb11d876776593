import hashlib
import itertools
import json
import math
import random

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
    limit_coefficient_estimate,
    partial_sum_moment,
    sampled_table,
    vacuum_expectation,
    wick_mixed,
)
from qtwick import cli
from qtwick.clt import (
    MAX_ESTIMATE_PAIRS,
    MAX_SUM_LENGTH,
    MAX_SUM_SIZE,
    MAX_SUM_STATES,
    peak_popcount,
)
from qtwick.cli import main

CROSSING = PairPartition(((1, 3), (2, 4)))
NESTING = PairPartition(((1, 4), (2, 3)))
DISJOINT = PairPartition(((1, 2), (3, 4)))


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
    eps=st.text(alphabet="1*", max_size=8).filter(lambda e: peak_popcount(e) <= 4),
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


def test_moment_amplitudes_stay_below_2_53_within_the_caps():
    # the walk's int64 amplitudes are bounded by N^c * p^a after c creations
    # and a annihilations, p the peak popcount; evaluate that bound for every
    # word the caps admit, at the largest N they admit, without any walk
    worst = 0
    for length in range(MAX_SUM_LENGTH + 1):
        for word in itertools.product("1*", repeat=length):
            eps = "".join(word)
            p = peak_popcount(eps)
            n = MAX_SUM_SIZE
            while math.comb(n, p) > MAX_SUM_STATES:
                n -= 1
            bound = 1
            k = 0
            for letter in reversed(eps):
                if letter == "1" and k == 0:
                    break  # the state dies
                bound *= n if letter == "*" else p
                k += 1 if letter == "*" else -1
                worst = max(worst, bound)
    assert worst < 2**53
    assert worst == 400**5 * 3**3


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
    assert peak_popcount("") == 0
    assert peak_popcount("1*") == 1
    assert peak_popcount("111***") == 3
    assert peak_popcount("1111****") == 4
    assert peak_popcount("1*1*1*1*") == 1
    assert peak_popcount("**") == 2
    assert peak_popcount("****1") == 0  # the first factor kills the vacuum


def test_state_cap():
    # the largest runs of the baseline stay admitted
    assert math.comb(200, peak_popcount("111***")) <= MAX_SUM_STATES
    assert math.comb(100, peak_popcount("1111****")) <= MAX_SUM_STATES
    assert math.comb(400, peak_popcount("111***")) <= MAX_SUM_STATES
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


def test_estimate_disjoint_counts_offdiagonal_tuples():
    for n in (5, 40):
        table = sampled_table(n, 0.5, 1.25, 3)
        got = limit_coefficient_estimate(DISJOINT, "1*1*", n, table)
        assert got == (n * n - n) / n**2


def test_estimate_matches_tuple_average():
    n = 6
    table = sampled_table(n, 0.5, 1.25, 3)
    pairing = PairPartition(((1, 4), (2, 6), (3, 5)))
    eps = "111***"
    block = pairing.block_of()
    brute = 0.0
    for tup in itertools.permutations(range(1, n + 1), 3):
        values = tuple(tup[block[pos] - 1] for pos in range(1, 7))
        brute += _brute.transposition_beta(values, eps, table)
    brute /= n**3
    got = limit_coefficient_estimate(pairing, eps, n, table)
    assert got == pytest.approx(brute, rel=1e-12)


def test_estimate_two_pair_matches_tuple_average():
    n = 9
    table = sampled_table(n, -0.4, 0.8, 5)
    for pairing, eps in ((CROSSING, "11**"), (NESTING, "1*1*"), (CROSSING, "1**1")):
        block = pairing.block_of()
        brute = 0.0
        for tup in itertools.permutations(range(1, n + 1), 2):
            values = tuple(tup[block[pos] - 1] for pos in range(1, 5))
            brute += _brute.transposition_beta(values, eps, table)
        brute /= n**2
        got = limit_coefficient_estimate(pairing, eps, n, table)
        assert got == pytest.approx(brute, rel=1e-12)


def test_estimate_four_pair_matches_tuple_average():
    n = 7
    table = sampled_table(n, -0.4, 0.8, 8)
    for pairs, eps in (
        (((1, 8), (2, 7), (3, 6), (4, 5)), "1111****"),
        (((1, 5), (2, 3), (4, 7), (6, 8)), "1*1*1**1"),
    ):
        pairing = PairPartition(pairs)
        block = pairing.block_of()
        brute = 0.0
        for tup in itertools.permutations(range(1, n + 1), 4):
            values = tuple(tup[block[pos] - 1] for pos in range(1, 9))
            brute += _brute.transposition_beta(values, eps, table)
        brute /= n**4
        got = limit_coefficient_estimate(pairing, eps, n, table)
        assert got == pytest.approx(brute, rel=1e-12)


@st.composite
def estimator_cases(draw):
    """(pairing, eps, N, table): any pairing class of at most four pairs, any
    letters, N from the number of pairs to 12, and a table sampled at
    q = t, -t, 0 or generic, or one of random signs whose t takes
    magnitudes 1e-300..1e300, so that estimates reach inf and 0."""
    pairs = draw(st.integers(1, MAX_ESTIMATE_PAIRS))
    pairing = PairPartition(draw(st.sampled_from(_brute.pairings_rgs(pairs))))
    eps = "".join(draw(st.lists(st.sampled_from("1*"), min_size=pairing.size,
                                max_size=pairing.size)))
    n_sites = draw(st.integers(pairing.n, 12))
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
    over = MAX_ESTIMATE_PAIRS + 1
    too_many = PairPartition(tuple((2 * k + 1, 2 * k + 2) for k in range(over)))
    with pytest.raises(SizeLimitError):
        limit_coefficient_estimate(too_many, "1*" * over, 8, table)
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
