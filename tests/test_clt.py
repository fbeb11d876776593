import hashlib
import itertools
import json
import math
import random

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
    limit_coefficient_estimate,
    partial_sum_moment,
    sampled_table,
    vacuum_expectation,
    wick_mixed,
)
from qtwick import cli
from qtwick.clt import MAX_ESTIMATE_PAIRS, MAX_SUM_STATES, peak_popcount
from qtwick.cli import main
from qtwick.coeffs import _lookup_matrix

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


@pytest.mark.parametrize("q", [1.25, -1.25, 0.0])
def test_moment_engine_equals_dict_oracle(q):
    # with q = +-t every base value is +1 (or every one -1) whatever the
    # seed; with q = 0 the signs are random, sums cancel to exactly 0.0, and
    # keys get dropped and reinserted at the end of the order
    for n in (1, 2, 7, 30):
        for seed in (0, 5, 11) if q == 0.0 else (0,):
            table = sampled_table(n, q, 1.25, seed)
            for eps in BALANCED + VANISHING:
                got = partial_sum_moment(n, eps, table)
                assert got == _brute.sum_moment(n, eps, table), (n, seed, eps)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.text(alphabet="1*", max_size=8).filter(lambda e: peak_popcount(e) <= 4),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    ratio=st.floats(-1.0, 1.0),
    t=st.floats(0.1, 4.0),
)
def test_moment_engine_equals_dict_oracle_property(eps, n, seed, ratio, t):
    table = sampled_table(n, ratio * t, t, seed)
    assert partial_sum_moment(n, eps, table) == _brute.sum_moment(n, eps, table)


def test_moment_engine_equals_dict_oracle_on_general_values():
    # products of generic values round, so the order of every factor counts
    n = 12
    for seed in range(3):
        rng = np.random.default_rng(seed)
        pairs = n * (n - 1) // 2
        values = rng.uniform(0.2, 3.0, pairs) * rng.choice([-1, 1], pairs)
        table = CoefficientTable(values, 1.7)
        for eps in BALANCED + VANISHING:
            assert partial_sum_moment(n, eps, table) == _brute.sum_moment(n, eps, table), eps


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


def _generic_table(n, seed):
    """A table of random non-unit base values, so that no product is exact."""
    rng = random.Random(seed)
    base = {
        (i, j): rng.choice([1, -1]) * rng.uniform(0.2, 3.0)
        for j in range(2, n + 1)
        for i in range(1, j)
    }
    return CoefficientTable(base, rng.uniform(0.3, 2.5))


def test_estimate_four_pair_matches_tuple_average():
    n = 7
    table = _generic_table(n, 8)
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


def test_lookup_matrix_equals_lookup():
    n = 7
    table = _generic_table(n, 4)
    for e1, e2 in itertools.product("1*", repeat=2):
        mat = _lookup_matrix(table, e1, e2, n)
        for x, y in itertools.permutations(range(1, n + 1), 2):
            assert mat[x - 1, y - 1] == table.lookup(e1, e2, x, y)


def test_lookup_matrix_bytes_equal_the_scatter_oracle():
    for n in range(1, 41):
        for table in (sampled_table(n, 0.5, 1.25, n), _generic_table(n, n)):
            for e1, e2 in itertools.product("1*", repeat=2):
                want = _brute.lookup_matrix(table, e1, e2, n).tobytes()
                assert _lookup_matrix(table, e1, e2, n).tobytes() == want


@st.composite
def estimator_cases(draw):
    """(pairing, eps, N, table): any pairing class of at most four pairs, any
    letters, N from the number of pairs to 12, and a table sampled at
    q = t, -t, 0 or generic, or one whose values and t take both signs and
    magnitudes 1e-300..1e300, so that products reach inf, 0 and nan."""
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
        # mostly near 1, so that many sums stay finite and every bit shows
        power = st.one_of(st.floats(-0.5, 0.5), st.floats(-300, 300))
        powers = draw(st.lists(power, min_size=count, max_size=count))
        t = 10.0 ** draw(power)
        table = CoefficientTable([s * 10.0**p for s, p in zip(signs, powers)], t)
    return pairing, eps, n_sites, table


@settings(max_examples=400, deadline=None)
@given(case=estimator_cases())
# a nesting of two 1/(t mu) factors at t = 1e-300 overflows to inf
@example(case=(NESTING, "1**1", 5, sampled_table(5, 0.0, 1e-300, 1)))
# three crossings at t = 1e200 overflow with both signs: inf - inf = nan
@example(case=(PairPartition(((1, 4), (2, 5), (3, 6))), "111***", 5,
               sampled_table(5, 0.0, 1e200, 1)))
def test_estimate_matches_the_ones_grid_oracle_bit_for_bit(case):
    pairing, eps, n_sites, table = case
    with np.errstate(all="ignore"):
        got = limit_coefficient_estimate(pairing, eps, n_sites, table)
        want = _brute.limit_coefficient_estimate(pairing, eps, n_sites, table)
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


# sha256 of the csv and json artifacts of `clt --mode lambda` runs, keyed by
# (eps, pairing, q, t, ns, seed); they pin the estimator's float sums
LAMBDA_PINS = {
    ("11**", "1-3,2-4", "0.5", "1.25", "20,60", 0): (
        "937f4201c0242a06d7502b5e9516af00f4e6f4ed52b8a1d0499f472d057ceaf5",
        "622d02c75ee2da6b128dad1e8685229bd9dcdced6712fc7dde224fcebccc91ab",
    ),
    ("11**", "1-3,2-4", "0.5", "1.25", "20,60", 7): (
        "6b2c9a51214e79edbce052d16cdb68dbe2953abf9d3d5c20309a682c1403f8ce",
        "c8c8529a0e89ddcf60a1a036380ae0588c864905b4d35e643617d45258100b53",
    ),
    ("1**1", "1-4,2-3", "-0.3", "0.8", "20,60", 0): (
        "848d01515062250f319d7bd282223352357d06a73cde54ff9f6fea9fdfd4ce87",
        "2ba50bd34655cea04e72fa16c59bde10c0390ba8b1246197cf855a3a8ff42a06",
    ),
    ("1**1", "1-4,2-3", "-0.3", "0.8", "20,60", 7): (
        "6d893c795f47c6fe9b32af64069995fe2dd18622e81221e0977419500b80463f",
        "5991ae895b8f5ef1bc3647ff9aac9bf47c90c069111a0883dff4f67aabeec764",
    ),
    ("111***", "1-4,2-6,3-5", "0.5", "1.25", "10,30", 0): (
        "601835e8823ae6add68d2792f47cb2445874c89bcdc1aafff3dccede8926708e",
        "4adeddbd62d3a72c94c026aba329fc5588f6a348e254ee1141307bfb540b9277",
    ),
    ("111***", "1-4,2-6,3-5", "0.5", "1.25", "10,30", 7): (
        "b15cf7cf08a6f00c562f345fa6ffa969f35ae828f25e1a09cfbc32fcbe25ce1f",
        "c44a16792b5133b492cd2be045e2d96cffd6aecf440c25f939f9d1cdfc22c91e",
    ),
    ("1*1**1", "1-6,2-3,4-5", "-0.3", "0.8", "10,30", 0): (
        "cc881ecd7274062e7bd18fc535548af0d5a3239e02e5e4cdad4b2390d1b180ba",
        "0be4b2cd0808e470bab2c6487df6a1fd781ae323e9d43bd3d08e8c74dd053c1c",
    ),
    ("1*1**1", "1-6,2-3,4-5", "-0.3", "0.8", "10,30", 7): (
        "17b26bbe82d9ed4a7dc0e1e6a84f1015ae3dd4db3b85a9e87bb7515531d7d52f",
        "1bb2d824313813ee3a1c062d0a0caf3e0184b21471241b9dae81671329537cda",
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


def test_estimate_regression_pin():
    table = sampled_table(7, 0.5, 1.25, 3)
    got = limit_coefficient_estimate(
        PairPartition(((1, 4), (2, 6), (3, 5))), "111***", 7, table
    )
    assert got == 0.011388483965014577


def test_estimate_generic_table_bits_are_pinned():
    # float.hex of estimates whose factors cover all four letter pairs on a
    # table of non-unit values, so every division form and product order shows
    table = _generic_table(9, 5)
    pins = (
        (((1, 3), (2, 4)), "1**1", "0x1.39b13f8428bf8p-2"),
        (((1, 4), (2, 3)), "*11*", "0x1.1397192c2bad8p+4"),
        (((1, 4), (2, 6), (3, 5)), "1*1**1", "0x1.f5db6223706c4p-3"),
        (((1, 6), (2, 5), (3, 4)), "*1*1*1", "0x1.06df308ecd27cp+0"),
        (((1, 5), (2, 3), (4, 6)), "11**1*", "0x1.96f035fe30a89p-5"),
    )
    for pairs, eps, want in pins:
        got = limit_coefficient_estimate(PairPartition(pairs), eps, 9, table)
        assert got.hex() == want


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
    assert values == [
        1.5440000000000003,
        1.7260000000000004,
        1.7310000000000003,
        1.7383750000000004,
    ]
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
