import itertools
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from qtwick import jw
from qtwick import (
    CoefficientTable,
    CommutationReport,
    MonomialOperator,
    SizeLimitError,
    ValidationError,
    build_jw,
    check_commutation,
    normal_order,
    sampled_table,
    vacuum_expectation,
)
from qtwick.jw import IDENTITY, LOWER, MAX_VERIFY_SITES, RAISE, diagonal

TB = CoefficientTable({(1, 2): 0.7}, 2.0)


def test_build_shapes():
    op = build_jw(2, 2, TB)
    sq = math.sqrt(2.0)
    assert op.n == 2 and op.scalar == 1.0
    assert op.slots[0] == ((1.0, 0), (sq * 0.7, 1))
    assert op.slots[1] == LOWER
    adj = build_jw(2, 2, TB, adjoint=True)
    assert adj.slots[1] == RAISE
    op = build_jw(2, 1, TB)
    assert op.slots[0] == LOWER
    assert op.slots[1] == ((1.0, 0), (sq, 1))


def test_build_validation():
    with pytest.raises(ValueError):
        build_jw(2, 3, TB)
    with pytest.raises(ValueError):
        build_jw(3, 1, TB)  # table only covers 2 sites
    single = build_jw(1, 1, CoefficientTable({}, 2.0))
    assert single.slots == (LOWER,)


def test_build_refuses_n_then_the_site_then_coverage():
    # TB covers 2 sites; each refusal wins over every one after it
    for args, message in (
        ((4.0, 5), "need an integer n, got n=4.0"),
        ((0, 1), "need n >= 1"),
        ((4, 5), "site 5 outside 1..4"),
        ((4, 2.0), "need an integer site, got site=2.0"),
        ((4, 1), "table does not cover all pairs up to 4"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_jw(*args, TB)


def test_apply_and_compose():
    sq = math.sqrt(2.0)
    raise1 = build_jw(2, 1, TB, adjoint=True)
    raise2 = build_jw(2, 2, TB, adjoint=True)
    assert raise1.apply({0: 1.0}) == {1: 1.0}
    state = raise2.apply(raise1.apply({0: 1.0}))
    assert state == {3: pytest.approx(sq * 0.7)}
    assert _brute.compose(raise2, raise1).apply({0: 1.0}) == {
        3: pytest.approx(sq * 0.7)
    }


def test_lowering_twice_is_zero():
    op = build_jw(2, 1, TB)
    zero = _brute.compose(op, op)
    assert _brute.canonical(zero) is None
    assert zero.apply({k: 1.0 for k in range(4)}) == {}


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialOperator(2, (IDENTITY,))
    with pytest.raises(ValueError):
        _brute.compose(MonomialOperator(1, (IDENTITY,)), MonomialOperator(2, (IDENTITY, IDENTITY)))


def test_canonical_normalizes_leading_coefficient():
    op = MonomialOperator(1, (diagonal(2.0, 6.0),), scalar=0.5)
    slots, scalar = _brute.canonical(op)
    assert scalar == 1.0
    assert slots == (((1.0, 0), (3.0, 1)),)
    assert _brute.canonical(MonomialOperator(1, (diagonal(0.0, 0.0),))) is None


def test_apply_drops_an_entry_whose_amplitudes_cancel():
    to_zero = MonomialOperator(1, (((1.0, 0), (-1.0, 0)),))
    assert to_zero.apply({0: 1.0, 1: 1.0}) == {}
    assert to_zero.apply({0: 1.0, 1: 2.0}) == {0: -1.0}


def test_apply_refuses_a_state_outside_its_slots():
    op = build_jw(2, 1, TB, adjoint=True)
    for mask in (0b100, -1):
        with pytest.raises(ValueError, match=f"state mask {mask:#b} has bits outside the 2 slots"):
            op.apply({0: 1.0, mask: 1.0})
    assert op.apply({0: 1.0}) == {0b1: 1.0}


def test_compose_matches_sequential_application():
    rng = random.Random(17)
    table = sampled_table(4, 0.5, 1.25, 8)
    ops = [
        build_jw(4, site, table, adjoint=adj)
        for site in range(1, 5)
        for adj in (False, True)
    ]
    for _ in range(100):
        a, b = rng.choice(ops), rng.choice(ops)
        state = {rng.randrange(16): rng.uniform(-2, 2) for _ in range(5)}
        combined = _brute.compose(a, b).apply(state)
        stepwise = a.apply(b.apply(state))
        assert set(combined) == set(stepwise)
        for mask, amp in combined.items():
            assert amp == pytest.approx(stepwise[mask], rel=1e-12, abs=1e-15)


def test_vacuum_expectation_examples():
    assert vacuum_expectation([(1, False), (1, True)], 2, TB) == 1.0
    assert vacuum_expectation([(1, True), (1, False)], 2, TB) == 0.0
    got = vacuum_expectation([(2, False), (1, False), (2, True), (1, True)], 2, TB)
    assert got == pytest.approx(1.4, rel=1e-12)
    got = vacuum_expectation([(1, False), (2, False), (2, True), (1, True)], 2, TB)
    assert got == pytest.approx(0.98, rel=1e-12)


def test_moment_table_exact():
    table = sampled_table(3, 0.5, 1.25, 2)
    for i in (1, 2, 3):
        assert vacuum_expectation([(i, False)], 3, table) == 0.0
        assert vacuum_expectation([(i, True)], 3, table) == 0.0
        assert vacuum_expectation([(i, False), (i, True)], 3, table) == 1.0
        assert vacuum_expectation([(i, True), (i, False)], 3, table) == 0.0
        assert vacuum_expectation([(i, False), (i, False)], 3, table) == 0.0
        for j in (1, 2, 3):
            if i != j:
                assert vacuum_expectation([(i, False), (j, True)], 3, table) == 0.0


def test_expectation_matches_normal_order_coefficient():
    table = sampled_table(4, 0.5, 1.25, 6)
    cases = [
        ((1, 2, 1, 2), "11**"),
        ((2, 1, 2, 1), "11**"),
        ((1, 2, 2, 1), "11**"),
        ((1, 2, 1, 2), "1*1*"),
        ((3, 1, 4, 3, 1, 4), "111***"),
        ((1, 2, 3, 3, 2, 1), "111***"),
    ]
    for values, eps in cases:
        ops = [(v, e == "*") for v, e in zip(values, eps)]
        got = vacuum_expectation(ops, 4, table)
        res = normal_order(values, eps, table)
        want = res.beta if set(res.pattern[::2]) <= {"1"} and set(res.pattern[1::2]) <= {"*"} else 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@st.composite
def pair_class_words(draw):
    """(values, eps, sites): a word in which each of 1-4 distinct sites out of
    at most 16 appears twice, at shuffled positions, with random letters."""
    pairs = draw(st.integers(1, 4))
    n_sites = draw(st.integers(pairs, 16))
    sites = draw(st.lists(st.integers(1, n_sites), min_size=pairs, max_size=pairs, unique=True))
    order = draw(st.permutations(range(2 * pairs)))
    values = [0] * (2 * pairs)
    for k, pos in enumerate(order):
        values[pos] = sites[k // 2]
    eps = "".join(draw(st.lists(st.sampled_from("1*"), min_size=2 * pairs, max_size=2 * pairs)))
    return tuple(values), eps, n_sites


@settings(max_examples=80, deadline=None)
@given(
    word=pair_class_words(),
    seed=st.integers(0, 2**64 - 1),
    t=st.floats(0.2, 3.0),
    ratio=st.floats(-1.0, 1.0),
)
def test_expectation_matches_normal_order_property(word, seed, t, ratio):
    values, eps, n = word
    table = sampled_table(n, ratio * t, t, seed)
    got = vacuum_expectation([(v, e == "*") for v, e in zip(values, eps)], n, table)
    res = normal_order(values, eps, table)
    if res.pattern == "1*" * res.pairing.n:
        assert got == pytest.approx(res.beta, rel=1e-10, abs=1e-12)
    else:
        assert got == 0.0


def test_natural_order_factoring_exact():
    table = sampled_table(3, 0.3, 0.9, 4)
    for e in itertools.product((False, True), repeat=4):
        lhs = vacuum_expectation(
            [(1, e[0]), (1, e[1]), (3, e[2]), (3, e[3])], 3, table
        )
        rhs = vacuum_expectation([(1, e[0]), (1, e[1])], 3, table) * vacuum_expectation(
            [(3, e[2]), (3, e[3])], 3, table
        )
        assert lhs == rhs


def test_boundedness_with_unit_base():
    rng = random.Random(9)
    table = sampled_table(3, -0.6, 0.8, 5)
    for _ in range(60):
        ops = [(rng.randrange(1, 4), rng.random() < 0.5) for _ in range(rng.randrange(1, 7))]
        assert abs(vacuum_expectation(ops, 3, table)) <= 1.0 + 1e-12


def test_check_commutation_clean():
    tables = [
        (n, sampled_table(n, q, t, seed))
        for n, seed, q, t in [(2, 1, 0.5, 1.25), (4, 7, -0.3, 0.9), (5, 3, 1.0, 1.0)]
    ]
    # generic values tell mu(i, j) from mu(j, i) = 1 / mu(i, j), which +-1
    # tables cannot
    rng = random.Random(23)
    for n, t in [(2, 2.0), (5, 0.9), (8, 1.1), (8, 1.0)]:
        base = [rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for _ in range(n * (n - 1) // 2)]
        tables.append((n, CoefficientTable(base, t)))
    for n, table in tables:
        report = check_commutation(n, table)
        assert isinstance(report, CommutationReport)
        assert report.ok
        assert report.max_deviation <= 1e-12
        assert report.n == n


def test_check_commutation_zero_entry_kills_one_side():
    # sqrt(0.25) * 5e-324 rounds to 0.0: element 2's diagonal kills the
    # occupied bit at slot 1, so a product in which it reads that bit is zero
    # while its reverse is not (deviation inf); t * 5e-324 is 0.0 as well, so
    # 1 / (t * mu) is inf, which Python's float division would refuse
    table = CoefficientTable({(1, 2): 5e-324}, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_commutation(2, table)
    assert [(f.i, f.j, f.left, f.right, f.deviation) for f in report.failures] == [
        (1, 2, "*", "1", math.inf),
        (1, 2, "*", "*", math.inf),
        (2, 1, "1", "1", math.inf),
        (2, 1, "*", "1", math.inf),
    ]


def _report_key(report):
    """A report as comparable values, every float by its bits."""
    failures = [(f.i, f.j, f.left, f.right, f.deviation.hex()) for f in report.failures]
    return report.n, report.tolerance, report.max_deviation.hex(), failures


# the (q, t) grid of acceptance criterion 08
CHAIN_GRID = [(0.5, 1.25), (0.3, 0.9), (1.0, 1.0), (-0.4, 0.8), (0.9, 2.0)]


@pytest.mark.parametrize("point", range(len(CHAIN_GRID)))
def test_check_commutation_equals_composition(point):
    # every n up to 48, the old composed check's cap, once, at grid point
    # n mod 5; tolerance 0 also lists the relations that hold only to
    # rounding (sqrt(t) * sqrt(t) against t).  The oracle composes as
    # arrays; test_the_array_oracle_is_the_scalar_oracle pins it to the
    # scalar composition
    q, t = CHAIN_GRID[point]
    for n in range(1, 49):
        if n % len(CHAIN_GRID) == point:
            table = sampled_table(n, q, t, n)
            want = _brute.check_commutation_arrays(n, table, 0.0)
            assert _report_key(check_commutation(n, table, 0.0)) == _report_key(want)


# base values over the whole float range: 1 / (t * mu) overflows near
# 1e-320 and the scalar products reach 1e300 * 3, where the oracle reports
# infinite deviations
_magnitudes = st.one_of(
    st.floats(0.2, 3.0), st.floats(1e-320, 1e-318), st.floats(1e299, 1e300)
)


@st.composite
def generic_tables(draw):
    n = draw(st.integers(1, 12))
    count = n * (n - 1) // 2
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=count, max_size=count))
    sizes = draw(st.lists(_magnitudes, min_size=count, max_size=count))
    t = draw(st.floats(0.2, 3.0))
    return n, CoefficientTable([a * b for a, b in zip(signs, sizes)], t)


_tolerances = st.one_of(
    st.just(1e-12), st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
)


@settings(max_examples=120, deadline=None)
@given(case=generic_tables(), tolerance=_tolerances)
def test_check_commutation_matches_oracle_property(case, tolerance):
    n, table = case
    want = _brute.check_commutation(n, table, tolerance)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = check_commutation(n, table, tolerance)
    assert _report_key(got) == _report_key(want)


@settings(max_examples=120, deadline=None)
@given(case=generic_tables(), tolerance=_tolerances)
def test_the_array_oracle_is_the_scalar_oracle(case, tolerance):
    # the same compositions bit for bit, where zeros, infinities and nan
    # deviations decide the report
    n, table = case
    want = _brute.check_commutation(n, table, tolerance)
    assert _report_key(_brute.check_commutation_arrays(n, table, tolerance)) == _report_key(want)


@st.composite
def chain_walks(draw):
    """(n, table, word): a generic table with base values over the whole
    float range, or a sampled one, at t in 0.2..3 or at 1e-300 or 1e300; and
    a word drawn from its rightmost factor that mostly stays alive (each
    factor raises an empty site or lowers an occupied one, and one in ten is
    any factor), which lowers every occupied site at the end half the time."""
    n = draw(st.integers(1, 10))
    t = draw(st.one_of(st.floats(0.2, 3.0), st.sampled_from((1e-300, 1e300))))
    if draw(st.booleans()):
        count = n * (n - 1) // 2
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=count, max_size=count))
        sizes = draw(st.lists(_magnitudes, min_size=count, max_size=count))
        table = CoefficientTable([a * b for a, b in zip(signs, sizes)], t)
    else:
        table = sampled_table(n, draw(st.floats(-1.0, 1.0)) * t, t, draw(st.integers(0, 2**64 - 1)))
    occupied, acting = set(), []  # acting order: the rightmost factor first
    for _ in range(draw(st.integers(0, 14))):
        site = draw(st.integers(1, n))
        adjoint = draw(st.booleans()) if draw(st.integers(0, 9)) == 0 else site not in occupied
        acting.append((site, adjoint))
        if adjoint != (site in occupied):
            occupied ^= {site}
    if draw(st.booleans()):
        acting += [(site, False) for site in draw(st.permutations(sorted(occupied)))]
    return n, table, acting[::-1]


def _up_then_down(n):
    """Raise sites 1..n, then lower them in the same order (the word, read
    right to left)."""
    return [(site, False) for site in range(n, 0, -1)] + [(site, True) for site in range(n, 0, -1)]


@settings(max_examples=300, deadline=None)
@given(case=chain_walks())
# at t = 1e-300 each entry is about 1e-150: raising site 3 underflows the
# amplitude to -0.0, which must read as the killed state's 0.0
@example(case=(3, CoefficientTable([-1.0, 1.0, 1.0], 1e-300), _up_then_down(3)))
# the amplitude reaches inf at site 3, and site 4's entry sqrt(t) * 1e-320
# is 0.0: a killed state, not inf * 0.0 = nan
@example(case=(4, CoefficientTable([1e300] * 3 + [1e-320, 1.0, 1.0], 1e-300), _up_then_down(4)))
def test_vacuum_expectation_matches_the_operator_walk_bit_for_bit(case):
    n, table, word = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = vacuum_expectation(word, n, table)
    with np.errstate(over="ignore"):  # build_jw's entries sqrt(t) * mu may overflow
        want = _brute.vacuum_expectation(word, n, table)
    assert (got.hex(), math.copysign(1.0, got)) == (want.hex(), math.copysign(1.0, want))


def test_vacuum_expectation_refuses_n_then_the_site_then_coverage():
    # TB covers 2 sites; each refusal wins over every one after it, as in build_jw
    for args, message in (
        (([(5, False)], 4.0), "need an integer n, got n=4.0"),
        (([(5, False)], -1), "need n >= 0"),
        (([(5, False)], 4), "site 5 outside 1..4"),
        (([(2.0, False)], 4), "need an integer site, got site=2.0"),
        (([(1, False), (1, True)], 4), "table does not cover all pairs up to 4"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            vacuum_expectation(*args, TB)


def test_vacuum_expectation_rejects_a_site_outside_the_chain():
    table = sampled_table(3, 0.5, 1.25, 0)
    # the rightmost factor kills the vacuum before the bad site would act
    for site in (0, 4):
        with pytest.raises(ValidationError, match=f"site {site} outside 1..3"):
            vacuum_expectation([(site, True), (1, False)], 3, table)
    with pytest.raises(ValidationError, match="does not cover"):
        vacuum_expectation([(1, False), (1, True)], 4, table)


def test_check_commutation_refuses_a_negative_size_and_a_non_finite_tolerance():
    table = sampled_table(2, 0.5, 1.25, 1)
    with pytest.raises(ValidationError, match="need n >= 0"):
        check_commutation(-1, table)
    for tolerance in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite tolerance"):
            check_commutation(2, table, tolerance=tolerance)
    assert check_commutation(0, table).ok


def test_check_commutation_flags_at_negative_tolerance():
    table = sampled_table(2, 0.5, 1.25, 1)
    report = check_commutation(2, table, tolerance=-1.0)
    assert not report.ok
    assert len(report.failures) == 8


def test_failures_are_built_only_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a CommutationCheck was built")

    n = 300
    table = sampled_table(n, 0.5, 1.25, 1)
    monkeypatch.setattr(jw, "CommutationCheck", refuse)
    report = check_commutation(n, table, tolerance=-1.0)
    assert not report.ok
    assert len(report.failures) == 4 * n * (n - 1)
    assert check_commutation(n, table).ok


def test_failures_read_as_the_oracles_list(monkeypatch):
    # a small iteration chunk, so that items cross chunk boundaries
    monkeypatch.setattr(jw, "_FAILURE_CHUNK", 7)
    n = 9
    table = sampled_table(n, 0.3, 0.9, 4)
    got = check_commutation(n, table, tolerance=-1.0).failures
    want = _brute.check_commutation(n, table, tolerance=-1.0).failures
    assert len(got) == len(want) == 4 * n * (n - 1)
    assert list(got) == want
    assert got == want and want == got and got != want[:-1]
    assert [got[k] for k in range(len(got))] == want
    assert got[-1] == want[-1] and got[3:40:2] == want[3:40:2]
    with pytest.raises(IndexError):
        got[len(got)]


def test_failures_compare_only_with_a_sequence():
    report = check_commutation(2, sampled_table(2, 0.5, 1.25, 1), tolerance=-1.0)
    assert report.failures != 3 and not report.failures == 3
    assert report.failures != {"failures": 8}
    assert repr(report.failures) == "<8 failing relations>"


def test_check_commutation_cap():
    n = MAX_VERIFY_SITES + 1
    with pytest.raises(SizeLimitError):
        check_commutation(n, sampled_table(n, 0.5, 1.25, 0))
