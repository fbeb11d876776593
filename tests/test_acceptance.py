"""Acceptance gate: every release-blocking property in one module.

Each test covers one numbered criterion and emits a single PASS/FAIL line on
the real stdout so the result is visible even under pytest capture.
"""

import itertools
import math
import random
import statistics
from contextlib import contextmanager

import numpy as np

from qtwick import (
    CoefficientTable,
    ExperimentConfig,
    FockParams,
    PairPartition,
    QTPolynomial,
    build_jw,
    check_commutation,
    commutator_residual,
    convergence_experiment,
    cross_nest_counts,
    enumerate_pair_partitions,
    gram_matrix,
    inner_product,
    limit_coefficient_estimate,
    normal_order,
    pair_pattern_is_default,
    partial_sum_moment,
    sampled_table,
    vacuum_moment,
    wick_field,
    wick_joint,
    wick_mixed,
)
from qtwick.cli import Metadata, _clt_artifact
from qtwick.fock import annihilate, create

from _brute import clt_metadata, transposition_beta, wick_sum


@contextmanager
def criterion(capsys, num: int, label: str):
    def emit(verdict: str) -> None:
        with capsys.disabled():
            print(f"{verdict} criterion {num:02d}: {label}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def test_criterion_01_census(capsys):
    with criterion(capsys, 1, "pairing census matches the double factorials"):
        for n, count in enumerate([1, 3, 15, 105, 945, 10395], start=1):
            assert len(enumerate_pair_partitions(n)) == count


def test_criterion_02_extreme_statistics(capsys):
    with criterion(capsys, 2, "unique all-crossing and all-nesting pairings on six points"):
        counts = [cross_nest_counts(p) for p in enumerate_pair_partitions(3)]
        assert counts.count((3, 0)) == 1
        assert counts.count((0, 3)) == 1
        assert counts.count((2, 1)) >= 1


def test_criterion_03_pairing_sums_exact(capsys):
    with criterion(capsys, 3, "pairing-sum polynomials match the naive oracle exactly"):
        for n in (1, 2, 3, 4):
            assert wick_field(n).terms == wick_sum("1" * 2 * n, cov={("1", "1"): 1})
        assert str(wick_field(2)) == "1 + q + t"
        assert str(wick_mixed("11**")) == "q + t"
        assert wick_mixed("1*1*") == QTPolynomial.one()
        assert wick_mixed("1***") == QTPolynomial.zero()
        assert str(wick_joint((1, 2, 2, 1), "11**")) == "t"
        assert str(wick_joint((1, 2, 1, 2), "11**")) == "q"
        for eps in ("11**", "1*1*", "1**1", "111***", "11*1**"):
            assert wick_mixed(eps).terms == wick_sum(eps)


def test_criterion_04_swap_symmetry(capsys):
    with criterion(capsys, 4, "single-letter pairing sums are symmetric under q <-> t"):
        for n in range(1, 7):
            f = wick_field(n)
            assert f == f.swap_variables()


def test_criterion_05_field_moments(capsys):
    with criterion(capsys, 5, "truncated-algebra field moments equal the pairing sums"):
        for q, t in [(0.5, 1.0), (0.3, 0.9), (-0.4, 0.7)]:
            for n in (1, 2, 3, 4):
                params = FockParams(d=1, m=2 * n, q=q, t=t)
                got = vacuum_moment([("field", 1)] * (2 * n), params)
                want = wick_field(n).evaluate(q, t)
                assert abs(got - want) <= 1e-9


def test_criterion_06_commutation_residual(capsys):
    with criterion(capsys, 6, "deformed commutation relation holds on the truncated algebra"):
        for q, t in [(0.5, 1.25), (0.3, 0.9), (-0.4, 0.7), (1.0, 1.0), (-1.0, 1.0)]:
            params = FockParams(d=3, m=6, q=q, t=t)
            for f in (1, 2, 3):
                for g in (1, 2, 3):
                    assert commutator_residual(f, g, params) <= 1e-12


def test_criterion_07_adjointness_and_positivity(capsys):
    with criterion(capsys, 7, "creation adjoint to annihilation; Gram matrices positive"):
        for q, t in [(0.5, 1.0), (0.3, 0.9), (-0.4, 0.7)]:
            params = FockParams(d=2, m=4, q=q, t=t)
            words_u = [
                w
                for deg in range(params.m)
                for w in itertools.product((1, 2), repeat=deg)
            ]
            words_v = words_u + list(itertools.product((1, 2), repeat=params.m))
            for i in (1, 2):
                for u in words_u:
                    for v in words_v:
                        lhs = inner_product(create(i, {u: 1.0}, params), {v: 1.0}, params)
                        rhs = inner_product({u: 1.0}, annihilate(i, {v: 1.0}, params), params)
                        assert abs(lhs - rhs) <= 1e-10
            assert params.hilbert
            for n in (1, 2, 3):
                eigs = np.linalg.eigvalsh(gram_matrix(n, params))
                assert eigs.min() >= -1e-10


def test_criterion_08_chain_relations(capsys):
    with criterion(capsys, 8, "chain operators satisfy the exchange relations and moment table"):
        qt_grid = [(0.5, 1.25), (0.3, 0.9), (1.0, 1.0), (-0.4, 0.8), (0.9, 2.0)]
        for seed in range(20):
            q, t = qt_grid[seed % len(qt_grid)]
            table = sampled_table(8, q, t, seed)
            report = check_commutation(8, table)
            assert report.ok
            assert report.max_deviation <= 1e-12
        table = sampled_table(8, 0.5, 1.25, 42)
        from qtwick import vacuum_expectation

        for i in range(1, 9):
            assert vacuum_expectation([(i, False)], 8, table) == 0.0
            assert vacuum_expectation([(i, True)], 8, table) == 0.0
            assert vacuum_expectation([(i, False), (i, True)], 8, table) == 1.0
            assert vacuum_expectation([(i, True), (i, False)], 8, table) == 0.0


def test_criterion_09_engine_equivalence(capsys):
    with criterion(capsys, 9, "chain expectations equal normal-ordered coefficient products"):
        rng = random.Random(12)
        tables = [
            sampled_table(6, 0.5, 1.25, 12),
            CoefficientTable(
                {
                    (i, j): rng.choice([1, -1]) * rng.uniform(0.3, 2.0)
                    for j in range(2, 7)
                    for i in range(1, j)
                },
                1.1,
            ),
        ]
        for table, max_pairs in ((tables[0], 3), (tables[1], 2)):
            ops = {
                (site, adj): build_jw(6, site, table, adjoint=adj)
                for site in range(1, 7)
                for adj in (False, True)
            }

            def vac_exp(seq):
                state = {0: 1.0}
                for site, adj in reversed(seq):
                    state = ops[(site, adj)].apply(state)
                    if not state:
                        return 0.0
                return state.get(0, 0.0)

            for n in range(1, max_pairs + 1):
                for pairing in enumerate_pair_partitions(n):
                    block = pairing.block_of()
                    for labels in itertools.permutations(range(1, 7), n):
                        values = tuple(
                            labels[block[pos] - 1] for pos in range(1, 2 * n + 1)
                        )
                        for eps_bits in itertools.product("1*", repeat=2 * n):
                            eps = "".join(eps_bits)
                            res = normal_order(values, eps, table)
                            walk = transposition_beta(values, eps, table)
                            assert abs(res.beta - walk) <= 1e-9 * max(1.0, abs(walk))
                            want = (
                                res.beta
                                if pair_pattern_is_default(pairing, eps)
                                else 0.0
                            )
                            got = vac_exp(
                                [(v, e == "*") for v, e in zip(values, eps)]
                            )
                            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_criterion_10_moment_convergence(capsys):
    with criterion(capsys, 10, "finite-size moments drift toward the pairing-sum target"):
        cfg = ExperimentConfig(
            mode="moment", eps="11**", q=0.5, t=1.25, ns=(25, 50, 100, 200), seed=42
        )
        report = convergence_experiment(cfg)
        errs = [row.abs_err for row in report.rows]
        assert report.rows[-1].target == 1.75
        assert abs(report.rows[-1].value - 1.75) <= 0.15
        assert all(errs[k + 1] <= errs[k] for k in range(len(errs) - 1))
        table = sampled_table(200, 0.5, 1.25, 42)
        for n in (25, 117, 200):
            assert partial_sum_moment(n, "1*", table) == 1.0
        for eps in ("1", "111", "1*1", "**"):
            assert partial_sum_moment(50, eps, table) == 0.0


def test_criterion_11_coefficient_convergence(capsys):
    with criterion(capsys, 11, "pairing-coefficient estimates settle near their limits"):
        table = sampled_table(2000, 0.5, 1.25, 42)
        crossing = PairPartition(((1, 3), (2, 4)))
        nesting = PairPartition(((1, 4), (2, 3)))
        cr = limit_coefficient_estimate(crossing, "11**", 2000, table)
        ne = limit_coefficient_estimate(nesting, "11**", 2000, table)
        assert abs(cr - 0.5) <= 0.1
        assert abs(ne - 1.25) <= 0.1
        n = 100
        values = [
            limit_coefficient_estimate(
                crossing, "11**", n, sampled_table(n, 0.5, 1.25, seed)
            )
            for seed in range(200)
        ]
        mean = statistics.fmean(values)
        se = statistics.stdev(values) / math.sqrt(len(values))
        expected = 0.5 * (n * n - n) / (n * n)
        assert abs(mean - expected) <= 4 * se


def test_criterion_12_deterministic_reports(capsys):
    with criterion(capsys, 12, "repeated experiment runs emit byte-identical reports"):
        moment_cfg = ExperimentConfig(
            mode="moment", eps="11**", q=0.5, t=1.25, ns=(25, 50, 100, 200), seed=42
        )
        lam_cfg = ExperimentConfig(
            mode="lambda",
            eps="11**",
            q=0.5,
            t=1.25,
            ns=(2000,),
            seed=42,
            pairing=PairPartition(((1, 3), (2, 4))),
        )
        for cfg in (moment_cfg, lam_cfg):
            # the artifact `qtwick clt` writes for cfg, twice in each format
            meta = Metadata(clt_metadata(cfg))
            first, second = ({fmt: _clt_artifact(meta, fmt) for fmt in ("csv", "json")}
                             for _ in range(2))
            assert first["csv"] == second["csv"]
            assert first["json"] == second["json"]
        assert convergence_experiment(lam_cfg).rows[0].value == 0.49923
