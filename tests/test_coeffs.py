import hashlib
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from qtwick import (
    CoefficientTable,
    SizeLimitError,
    NonPairClassError,
    NormalOrderResult,
    PairPartition,
    QTPolynomial,
    ValidationError,
    derive_seed,
    normal_order,
    pair_limit_monomial,
    pair_pattern_is_default,
    sample_base,
    sample_packed,
    sample_ranks,
    sampled_table,
)
from qtwick import build_jw, coeffs, vacuum_expectation
from qtwick.coeffs import _SAMPLE_CHUNK, MAX_TABLE_SITES, _pair_rank


@pytest.fixture
def table():
    return CoefficientTable({(1, 2): 0.7}, 2.0)


def test_lookup_examples(table):
    assert table.lookup("*", "*", 1, 2) == 0.7
    assert table.lookup("*", "1", 1, 2) == 1.4
    assert table.lookup("1", "1", 1, 2) == pytest.approx(1 / 0.7, abs=0)
    assert table.lookup("1", "*", 2, 1) == pytest.approx(1 / 1.4, abs=0)
    assert table.lookup("*", "*", 2, 1) == pytest.approx(1 / 0.7, abs=0)
    assert table.lookup("1", "1", 2, 1) == 0.7


def test_lookup_validation(table):
    with pytest.raises(ValueError):
        table.lookup("x", "1", 1, 2)
    with pytest.raises(ValueError):
        table.lookup("1", "1", 2, 2)
    with pytest.raises(ValidationError):
        table.lookup("1", "1", 1, 3)


def test_table_validation():
    with pytest.raises(ValidationError):
        CoefficientTable({(1, 2): 1.0}, 0.0)
    with pytest.raises(ValidationError):
        CoefficientTable({(2, 1): 1.0}, 1.0)
    with pytest.raises(ValidationError):
        CoefficientTable({(1, 2): 0.0}, 1.0)


def test_covers_and_matrix():
    tb = sampled_table(4, 0.0, 1.0, 1)
    assert tb.covers(4) and not tb.covers(5)
    m = tb.base_matrix(4)
    assert m.shape == (4, 4)
    assert m[0, 1] == tb.base_value(1, 2)
    assert m[1, 0] == m[0, 1]
    assert not m.diagonal().any()
    with pytest.raises(ValidationError):
        tb.base_matrix(5)


def test_lookup_swap_inverts(table):
    rng = random.Random(3)
    for _ in range(50):
        n = 8
        base = {
            (i, j): rng.choice([1, -1]) * rng.uniform(0.2, 3.0)
            for j in range(2, n + 1)
            for i in range(1, j)
        }
        tb = CoefficientTable(base, rng.uniform(0.3, 2.5))
        i, j = rng.sample(range(1, n + 1), 2)
        for e1 in "1*":
            for e2 in "1*":
                prod = tb.lookup(e1, e2, i, j) * tb.lookup(e2, e1, j, i)
                assert prod == pytest.approx(1.0, abs=1e-14)
                # conjugating both letters also inverts
                c1 = "1" if e1 == "*" else "*"
                c2 = "1" if e2 == "*" else "*"
                assert tb.lookup(e1, e2, i, j) * tb.lookup(c1, c2, i, j) == pytest.approx(
                    1.0, abs=1e-14
                )


def test_lookup_star_one_scaling(table):
    # the (*, 1) entry is t times the (*, *) entry for i < j
    assert table.lookup("*", "1", 1, 2) == 2.0 * table.lookup("*", "*", 1, 2)


def test_derive_seed_pins():
    assert derive_seed(42, 0) == 13679457532755275413
    assert derive_seed(42, 1) == 2949826092126892291
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(2**64 + 5, 0) == derive_seed(5, 0)
    for master, k in ((42, 0), (-1, 7), (2**64 + 5, 10**6), (3, 2**70)):
        assert derive_seed(master, k) == _brute.derive_seed(master, k)


@pytest.mark.parametrize("seed, same", [(1, 2**64 + 1), (-5, 2**64 - 5)])
def test_seeds_are_read_modulo_2_to_the_64(seed, same):
    assert np.array_equal(sample_packed(30, 0.5, 1.25, seed), sample_packed(30, 0.5, 1.25, same))
    assert not np.array_equal(sample_packed(30, 0.5, 1.25, seed),
                              sample_packed(30, 0.5, 1.25, seed + 1))
    assert derive_seed(seed, 7) == derive_seed(same, 7)


def test_pair_rank_is_cutoff_free():
    assert _pair_rank(1, 2) == 0
    assert _pair_rank(2, 3) == 2
    assert _pair_rank(1, 5) == 6
    ranks = [_pair_rank(i, j) for j in range(2, 30) for i in range(1, j)]
    assert sorted(ranks) == list(range(len(ranks)))


def test_sample_base_values_and_determinism():
    a = sample_base(6, 0.5, 1.25, 42)
    b = sample_base(6, 0.5, 1.25, 42)
    assert a == b
    assert set(a) == {(i, j) for j in range(2, 7) for i in range(1, j)}
    assert set(a.values()) <= {1.0, -1.0}
    assert sample_base(6, 0.5, 1.25, 43) != a


def test_sample_base_restriction():
    big = sample_base(9, 0.3, 0.9, 7)
    small = sample_base(5, 0.3, 0.9, 7)
    assert small == {k: v for k, v in big.items() if k[1] <= 5}


def test_sample_base_degenerate_laws():
    assert set(sample_base(8, 1.0, 1.0, 11).values()) == {1.0}
    assert set(sample_base(8, -1.0, 1.0, 11).values()) == {-1.0}


def test_sample_base_mean_pin():
    base = sample_base(448, 0.5, 1.25, 42)
    assert len(base) == 448 * 447 // 2
    mean = sum(base.values()) / len(base)
    assert mean == 0.4040428251837648
    assert abs(mean - 0.5 / 1.25) <= 0.02


def test_sample_base_validation():
    with pytest.raises(ValidationError):
        sample_base(3, 0.5, 0.0, 1)
    with pytest.raises(ValidationError):
        sample_base(3, 2.0, 1.0, 1)
    with pytest.raises(ValidationError):
        sample_base(0, 0.0, 1.0, 1)
    with pytest.raises(SizeLimitError):
        sample_packed(MAX_TABLE_SITES + 1, 0.0, 1.0, 1)


@pytest.mark.parametrize("q, t", [
    (math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (-math.inf, 1.0), (math.inf, math.inf),
])
def test_sampler_rejects_non_finite(q, t):
    with pytest.raises(ValidationError, match="finite"):
        sample_packed(3, q, t, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        CoefficientTable({(1, 2): 1.0}, bad)
    with pytest.raises(ValidationError, match="finite"):
        CoefficientTable({(1, 2): bad}, 1.0)
    with pytest.raises(ValidationError, match="finite"):
        CoefficientTable([bad], 1.0)


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 5, -1])
def test_sampler_matches_scalar_oracle(seed):
    # bit for bit, including the degenerate laws q = +-t
    for q, t in ((0.5, 1.25), (1.0, 1.0), (-1.0, 1.0), (-0.3, 0.9)):
        n = 300 if (q, t) == (0.5, 1.25) else 40
        want = _brute.sample_base(n, q, t, seed)
        packed = sample_packed(n, q, t, seed)
        assert packed.dtype == np.float64 and packed.shape == (n * (n - 1) // 2,)
        assert packed.tolist() == list(want.values())
        view = sample_base(n, q, t, seed)
        assert list(view.items()) == list(want.items())
        assert view == want


def test_sampler_pin_at_2000_sites():
    packed = sample_packed(2000, 0.5, 1.25, 42)
    digest = hashlib.sha256(packed.tobytes()).hexdigest()
    assert digest == "c782555055603e20d7b654d319736df4466318d998bdeb06e7367d0a8c5d26ab"


def test_packed_table_is_prefix_stable():
    big = sampled_table(120, 0.3, 0.9, 7)
    for n in (1, 2, 3, 17, 60, 120):
        small = sample_packed(n, 0.3, 0.9, 7)
        assert np.array_equal(big.packed(n), small)
        assert np.array_equal(sampled_table(n, 0.3, 0.9, 7).packed(n), small)
    with pytest.raises(ValidationError):
        big.packed(121)
    with pytest.raises(ValueError):
        big.packed(5)[0] = 2.0  # views of the table are read-only


# 363 sites hold 65703 pairs, past the sampler's first four chunks
_PAST_FIRST_CHUNK = 363


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    sizes=st.lists(st.integers(min_value=1, max_value=_PAST_FIRST_CHUNK), min_size=2, max_size=2),
    ratio=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=0.01, max_value=100.0),
)
def test_sample_packed_restriction_property(seed, sizes, ratio, t):
    n, m = sorted(sizes)
    q = ratio * t
    if abs(q) > t:  # the product can round past t
        q = math.copysign(t, q)
    small = sample_packed(n, q, t, seed)
    assert np.array_equal(small, sample_packed(m, q, t, seed)[: small.size])


_PAST_FIRST_CHUNK_PAIRS = _PAST_FIRST_CHUNK * (_PAST_FIRST_CHUNK - 1) // 2


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.integers(min_value=-(2**70), max_value=-1),
                   st.integers(min_value=0, max_value=2**64 - 1),
                   st.integers(min_value=2**64, max_value=2**70)),
    ranks=st.lists(st.integers(min_value=0, max_value=_PAST_FIRST_CHUNK_PAIRS - 1), max_size=40),
    ratio=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0)),
    t=st.floats(min_value=0.01, max_value=100.0),
)
def test_sample_ranks_equals_the_whole_table_at_those_ranks(seed, ranks, ratio, t):
    # any order, repeats and the empty set; ranks past the first chunk; q = +-t
    q = ratio * t
    if abs(q) > t:  # the product can round past t
        q = math.copysign(t, q)
    got = sample_ranks(ranks, q, t, seed)
    assert got.dtype == np.float64 and got.shape == (len(ranks),)
    whole = sample_packed(_PAST_FIRST_CHUNK, q, t, seed)
    assert np.array_equal(got, whole[np.array(ranks, dtype=np.intp)])
    assert np.array_equal(sample_ranks(np.array(ranks, dtype=np.int64), q, t, seed), got)


@pytest.mark.parametrize("seed", [0, 9, 2**64 + 5, -(2**66) - 3])
def test_sample_ranks_matches_scalar_oracle(seed):
    ranks = [0, 1, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK, 2 * _SAMPLE_CHUNK + 7, 10**9, 2**63 + 1, 5]
    for q, t in ((0.2, 1.1), (1.0, 1.0), (-1.0, 1.0)):
        p_plus = 0.5 * (1.0 + q / t)
        want = [1.0 if _brute.uniform01(_brute.derive_seed(seed, k)) < p_plus else -1.0
                for k in ranks]
        assert sample_ranks(ranks, q, t, seed).tolist() == want


def _rank_drawing(seed: int, top_bits: int, low_bits: int) -> int:
    """The rank k whose derive_seed(seed, k) is top_bits << 11 | low_bits."""
    x = _brute.unsplitmix64(top_bits << 11 | low_bits)
    return ((x - seed) * pow(0x9E3779B97F4A7C15, -1, 1 << 64) - 1) & ((1 << 64) - 1)


# p_plus = 0, 1, 1/2, 0.2 (whose p_plus * 2^53 is no integer, and rounds half
# to even below its ceiling) and 1 - 2^-53, the largest float below 1
@pytest.mark.parametrize("p_plus", [0.0, 1.0, 0.5, 0.2, 1.0 - 2.0**-53])
@pytest.mark.parametrize("seed", [0, 9, -5, 2**64 + 5])
def test_the_draw_rule_holds_on_both_sides_of_its_boundary(p_plus, seed):
    q = 2.0 * p_plus - 1.0  # at t = 1
    assert 0.5 * (1.0 + q) == p_plus
    cut = math.ceil(p_plus * 2**53)
    # the top 53 bits just below the cut draw +1, at the cut -1
    sides = [(b, sign) for b, sign in ((cut - 1, 1.0), (cut, -1.0)) if 0 <= b < 2**53]
    assert len(sides) == (1 if p_plus in (0.0, 1.0) else 2)
    ranks, want = [], []
    for b, sign in sides:
        for low in (0, 2**11 - 1):
            k = _rank_drawing(seed, b, low)
            assert _brute.derive_seed(seed, k) >> 11 == b
            assert (_brute.uniform01(_brute.derive_seed(seed, k)) < p_plus) == (sign > 0)
            ranks.append(k)
            want.append(sign)
    assert sample_ranks(ranks, q, 1.0, seed).tolist() == want


def test_sample_ranks_checks_the_law():
    for q, t, message in ((2.0, 1.25, "two-point law"), (math.nan, 1.0, "finite q"),
                          (0.5, 0.0, "t > 0"), (0.5, math.inf, "finite t")):
        for ranks in ([], [3]):
            with pytest.raises(ValidationError, match=message):
                sample_ranks(ranks, q, t, 1)


def test_sampler_chunks_cover_the_table():
    count = _PAST_FIRST_CHUNK * (_PAST_FIRST_CHUNK - 1) // 2
    assert count > _SAMPLE_CHUNK
    want = [_brute.uniform01(_brute.derive_seed(9, k)) < 0.5 * (1.0 + 0.2 / 1.1)
            for k in range(_SAMPLE_CHUNK - 3, count)]
    got = sample_packed(_PAST_FIRST_CHUNK, 0.2, 1.1, 9)[_SAMPLE_CHUNK - 3:]
    assert got.tolist() == [1.0 if w else -1.0 for w in want]


def _sites_past(pairs: int) -> int:
    """The fewest sites that hold more than `pairs` pairs."""
    return next(n for n in itertools.count(2) if n * (n - 1) // 2 > pairs)


# q = t draws +1 everywhere (its cut is 2^53), q = -t -1 everywhere
@pytest.mark.parametrize("ratio", [1.0, -1.0, 0.2])
@pytest.mark.parametrize("chunks", [1, 2])
def test_sampler_matches_scalar_oracle_past_each_chunk(chunks, ratio):
    n = _sites_past(chunks * _SAMPLE_CHUNK)
    assert (n - 1) * (n - 2) // 2 <= chunks * _SAMPLE_CHUNK < n * (n - 1) // 2
    t = 1.1
    want = _brute.sample_base(n, ratio * t, t, 9)
    assert sample_packed(n, ratio * t, t, 9).tolist() == list(want.values())


def test_sampled_table_holds_one_copy():
    # the table of 2048 sites is 16.8 MB; the whole-table bits, uniforms and
    # np.where output used to be alive together, and the table copied them.
    # A sampled_table draws on its first bulk read, which is measured here
    n = 2048
    nbytes = 8 * n * (n - 1) // 2
    tracemalloc.start()
    try:
        packed = sample_packed(n, 0.5, 1.25, 3)
        sample_peak = tracemalloc.get_traced_memory()[1]
        table = sampled_table(n, 0.5, 1.25, 3)
        tracemalloc.reset_peak()
        table.packed(n)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.packed(n), packed)
    # one table plus about 2 MB of per-chunk temporaries; then one more table
    # (the first is still alive) and its chunk temporaries
    assert sample_peak < 1.25 * nbytes
    assert table_peak < 2.25 * nbytes


def _reads(rng, n, count):
    """Random single reads of an n-site table, some of them refused: pairs,
    letter pairs and sites up to n + 1, and jw --ops words that survive."""
    reads = []
    for _ in range(count):
        kind = rng.choice(["base_value", "lookup", "build_jw", "vacuum"])
        if kind == "base_value":
            reads.append((kind, tuple(sorted(rng.sample(range(1, n + 2), 2)))))
        elif kind == "lookup":
            i, j = rng.sample(range(1, n + 2), 2)
            reads.append((kind, (rng.choice("1*"), rng.choice("1*"), i, j)))
        elif kind == "build_jw":
            reads.append((kind, (rng.randint(1, n + 1), rng.random() < 0.5)))
        else:
            sites = rng.sample(range(1, n + 1), min(n, rng.randint(1, 6)))
            word = [(s, False) for s in sites] + [(s, True) for s in reversed(sites)]
            if rng.random() < 0.3:
                rng.shuffle(word)  # mostly killed, and then reads nothing
            reads.append((kind, word))
    return reads


def _read_all(table, n, reads):
    """Each read's value as its exact bytes or repr, or the error it raised."""
    out = []
    for kind, args in reads:
        try:
            if kind == "bulk":
                out += [table.packed(n).tobytes(), table.base_matrix(n).tobytes()]
            elif kind == "base_value":
                out.append(repr(table.base_value(*args)))
            elif kind == "lookup":
                out.append(repr(table.lookup(*args)))
            elif kind == "build_jw":
                out.append(repr(build_jw(n, args[0], table, args[1])))
            else:
                out.append(repr(vacuum_expectation(args, n, table)))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=90, max_value=400)),
    seed=st.one_of(st.integers(min_value=-(2**70), max_value=2**64 - 1),
                   st.integers(min_value=2**64, max_value=2**70)),
    ratio=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0)),
    t=st.floats(min_value=0.01, max_value=100.0),
    bulk=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    rng_seed=st.integers(min_value=0, max_value=2**32),
)
def test_a_sampled_table_reads_as_the_whole_table(n, seed, ratio, t, bulk, rng_seed):
    # every read of sampled_table, made before or after its first bulk read
    # (or with none), equals the same read of the table drawn whole up front
    q = ratio * t
    if abs(q) > t:  # the product can round past t
        q = math.copysign(t, q)
    reads = _reads(random.Random(rng_seed), n, 12)
    if bulk is not None:
        reads.insert(min(bulk, len(reads)), ("bulk", ()))
    whole = CoefficientTable(sample_packed(n, q, t, seed), t)
    assert _read_all(sampled_table(n, q, t, seed), n, reads) == _read_all(whole, n, reads)
    # and each read made first, when it draws only the ranks it reads
    for read in reads:
        assert _read_all(sampled_table(n, q, t, seed), n, [read]) == _read_all(whole, n, [read])


def test_only_the_first_single_read_draws_single_ranks(monkeypatch):
    drawn = []
    real_draw = coeffs._draw

    def counting_draw(ranks, seed, p_plus):
        drawn.append(ranks.size)
        return real_draw(ranks, seed, p_plus)

    monkeypatch.setattr(coeffs, "_draw", counting_draw)
    n = 300
    count = n * (n - 1) // 2
    table = sampled_table(n, -0.3, 0.8, 2**64 + 1)
    whole = sample_packed(n, -0.3, 0.8, 2**64 + 1)
    drawn.clear()
    got = [table.base_value(i, j) for j in range(2, n + 1) for i in range(1, j)]
    assert got == whole.tolist()
    # one rank for the first read, then the whole table in chunks
    assert drawn[0] == 1 and sum(drawn[1:]) == count


@st.composite
def pair_reads(draw, n):
    """Pairs i < j <= n, n >= 2, as the engines pass them to _read: two
    ints, two int arrays, an int i with an array j, an i column against a
    j row, or no pair at all."""
    kind = draw(st.sampled_from(["scalar", "array", "broadcast", "grid", "empty"]))
    if kind == "scalar":
        j = draw(st.integers(2, n))
        return draw(st.integers(1, j - 1)), j
    if kind == "array":
        pair = st.integers(2, n).flatmap(lambda j: st.tuples(st.integers(1, j - 1), st.just(j)))
        i, j = zip(*draw(st.lists(pair, min_size=1, max_size=8)))
        return np.array(i), np.array(j)
    if kind == "broadcast":
        i = draw(st.integers(1, n - 1))
        return i, np.array(draw(st.lists(st.integers(i + 1, n), min_size=1, max_size=8)))
    if kind == "grid":
        k = draw(st.integers(2, n))
        return np.arange(1, k)[:, None], np.arange(k, n + 1)
    return np.arange(1, 1), draw(st.integers(2, n))


def _same_read(got, matrix, i, j):
    """got is matrix[i - 1, j - 1], bit for bit: a Python float for two int
    sites, an array of the broadcast shape otherwise."""
    want = matrix[np.subtract(i, 1), np.subtract(j, 1)]
    if isinstance(i, int) and isinstance(j, int):
        return type(got) is float and got.hex() == float(want).hex()
    return (got.shape == want.shape
            and list(map(float.hex, got.ravel().tolist())) == list(map(float.hex, want.ravel().tolist())))


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 30),
    extra=st.integers(0, 5),
    seed=st.integers(-(2**65), 2**65),
    ratio=st.floats(-1.0, 1.0),
    t=st.floats(0.1, 4.0),
)
def test_a_pair_read_is_the_matrix_entry(data, n, extra, seed, ratio, t):
    i, j = data.draw(pair_reads(n))
    # a hand-built table of any nonzero values, covering n + extra sites
    count = (n + extra) * (n + extra - 1) // 2
    values = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False).filter(bool),
        min_size=count, max_size=count))
    hand = CoefficientTable(values, t)
    assert _same_read(hand._read(i, j), hand.base_matrix(n), i, j)
    # a sampled table: its first read draws only those pairs, and a read
    # after its whole draw reads the drawn table
    sampled = sampled_table(n + extra, ratio * t, t, seed)
    first = sampled._read(i, j)
    assert sampled._packed is None
    sampled.packed(n + extra)
    matrix = sampled.base_matrix(n)
    assert _same_read(first, matrix, i, j)
    assert _same_read(sampled._read(i, j), matrix, i, j)


def test_a_sequence_is_copied_and_left_writable():
    packed = sample_packed(40, 0.5, 1.25, 1)
    table = CoefficientTable(packed, 1.25)
    assert packed.flags.writeable
    assert not np.shares_memory(table.packed(40), packed)
    assert np.array_equal(table.packed(40), packed)
    first = packed[0]
    packed[0] = -first
    assert table.base_value(1, 2) == first
    # a view is copied too
    whole = np.ones(10)
    view = CoefficientTable(whole[:6], 2.0)
    whole[0] = -1.0
    assert whole.flags.writeable and view.base_value(1, 2) == 1.0


def test_a_negative_site_count_is_refused():
    table = CoefficientTable([1.0, -1.0, 1.0], 1.25)
    assert table.base_matrix(0).shape == (0, 0)
    for read in (table.base_matrix, table.packed, lambda n: vacuum_expectation([], n, table)):
        with pytest.raises(ValidationError, match="need n >= 0"):
            read(-1)
    # a sampled table refuses before it draws anything
    sampled = sampled_table(5, 0.5, 1.25, 1)
    with pytest.raises(ValidationError, match="need n >= 0"):
        sampled.base_matrix(-1)
    assert sampled._packed is None


@pytest.mark.parametrize("ranks", [
    [-1], np.array([-1]), [1.5], np.array([1.5]), [2**64], [0, -1, 2**63], ["3"], [[1]],
])
def test_sample_ranks_refuses_a_rank_outside_uint64(ranks):
    with pytest.raises(ValidationError, match="0..2\\^64-1"):
        sample_ranks(ranks, 0.5, 1.25, 1)


def test_sample_ranks_takes_every_uint64_rank():
    top = 2**64 - 1
    want = sample_ranks(np.array([0, 2**63, top], dtype=np.uint64), 0.5, 1.25, 1)
    for ranks in ([0, 2**63, top], np.array([0, 2**63, top], dtype=object)):
        assert np.array_equal(sample_ranks(ranks, 0.5, 1.25, 1), want)
    assert sample_ranks([], 0.5, 1.25, 1).shape == (0,)


def _double_loop_matrix(table, n):
    out = np.zeros((n, n))
    for j in range(2, n + 1):
        for i in range(1, j):
            out[i - 1, j - 1] = out[j - 1, i - 1] = table.base_value(i, j)
    return out


def test_base_matrix_equals_double_loop():
    rng = random.Random(8)
    hand = CoefficientTable(
        {(i, j): rng.uniform(0.2, 3.0) for j in range(2, 12) for i in range(1, j)}, 1.3
    )
    for table, n in ((sampled_table(50, 0.5, 1.25, 3), 50), (hand, 11), (hand, 7)):
        assert np.array_equal(table.base_matrix(n), _double_loop_matrix(table, n))
    assert table.base_matrix(1).shape == (1, 1)


def test_hand_built_table_with_a_gap():
    # a dict gives every pair up to its last one, or construction names the
    # first pair it leaves out
    for base, missing in (({(1, 2): 0.5, (2, 3): -2.0}, "(1,3)"),
                          ({(2, 3): -2.0}, "(1,2)"),
                          ({(1, 2): 0.5, (1, 3): 1.5, (1, 10**9): 2.0}, "(2,3)")):
        with pytest.raises(ValidationError, match=rf"no base value for pair {re.escape(missing)}"):
            CoefficientTable(base, 1.0)
    table = CoefficientTable({(1, 2): 0.5, (1, 3): 1.5, (2, 3): -2.0}, 1.0)
    assert table.covers(3) and not table.covers(4)
    assert table.base_value(2, 3) == -2.0
    with pytest.raises(ValidationError):
        table.base_value(2, 1)  # base values are stored for i < j only
    with pytest.raises(ValidationError):
        table.base_matrix(4)
    for i, j in ((3, 4), (1, 10**9), (1, 10**30)):  # past the last stored pair
        with pytest.raises(ValidationError, match=rf"\({i},{j}\)"):
            table.base_value(i, j)
    with pytest.raises(ValidationError, match=r"\(1,4\)"):
        table.lookup("*", "*", 4, 1)
    assert CoefficientTable({}, 2.0).covers(1) and not CoefficientTable({}, 2.0).covers(2)


def test_packed_constructor_validation():
    table = CoefficientTable([0.5, -1.0, 2.0], 1.5)
    assert table.covers(3) and not table.covers(4)
    assert table.lookup("*", "1", 2, 3) == 3.0
    with pytest.raises(ValidationError):
        CoefficientTable([1.0, 0.0, 1.0], 1.0)
    with pytest.raises(ValidationError):
        CoefficientTable(np.ones((2, 2)), 1.0)


def test_single_reads_return_python_floats():
    for table in (sampled_table(6, 0.5, 1.25, 2), CoefficientTable({(1, 2): 0.7}, 2.0)):
        assert type(table.base_value(1, 2)) is float
        for e1, e2 in itertools.product("1*", repeat=2):
            assert type(table.lookup(e1, e2, 1, 2)) is float
            assert type(table.lookup(e1, e2, 2, 1)) is float


def test_single_read_copies_nothing():
    # a Python list of the 2M values would take about 80 MB
    table = sampled_table(2048, 0.5, 1.25, 4)
    tracemalloc.start()
    try:
        first = table.lookup("1", "*", 7, 2000)  # draws this one pair
        first_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table.packed(2048)  # as the next read would, the table is drawn whole
    tracemalloc.start()
    try:
        value = table.lookup("1", "*", 7, 2000)
        assert table.base_value(2047, 2048) in (1.0, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == value == 1.0 / (1.25 * table.base_value(7, 2000))
    assert max(first_peak, peak) < 64 * 1024


def test_normal_order_examples(table):
    r = normal_order((1, 2, 1, 2), "11**", table)
    assert r.beta == 1.4
    assert r.pairing.pairs == ((1, 3), (2, 4))
    assert r.pattern == "1*1*"
    r = normal_order((1, 2, 2, 1), "11**", table)
    assert r.beta == pytest.approx(0.98, rel=1e-12)
    assert r.pairing.pairs == ((1, 4), (2, 3))
    r = normal_order((1, 2, 1, 2), "1*1*", table)
    assert r.beta == pytest.approx(1 / 1.4, abs=0)
    assert r.pattern == "11**"


def test_normal_order_trivial_cases(table):
    r = normal_order((3, 3), "1*", table)
    assert r.beta == 1.0 and r.pattern == "1*"
    with pytest.raises(NonPairClassError):
        normal_order((1, 1, 1, 1), "11**", table)
    with pytest.raises(NonPairClassError):
        normal_order((1, 2, 1), "111", table)
    with pytest.raises(ValueError):
        normal_order((1, 1), "1", table)
    # the empty word has the empty pairing
    assert normal_order((), "", table) == NormalOrderResult(1.0, PairPartition(()), "")


def test_normal_order_matches_closed_form_exhaustively():
    rng = random.Random(5)
    base = {
        (i, j): rng.choice([1, -1]) * rng.uniform(0.3, 2.0)
        for j in range(2, 5)
        for i in range(1, j)
    }
    tb = CoefficientTable(base, 1.7)
    from qtwick import enumerate_pair_partitions

    for n in (1, 2, 3, 4):
        for p in enumerate_pair_partitions(n):
            block = p.block_of()
            labels = rng.sample(range(1, 5), n)
            values = tuple(labels[block[pos] - 1] for pos in range(1, 2 * n + 1))
            for eps_bits in itertools.product("1*", repeat=2 * n):
                eps = "".join(eps_bits)
                # the crossing/nesting closed form against the walk it replaces
                r = normal_order(values, eps, tb)
                walk = _brute.transposition_beta(values, eps, tb)
                assert r.beta == pytest.approx(walk, rel=1e-9)
                assert r.pairing == p


def test_pair_limit_monomial():
    crossing = PairPartition(((1, 3), (2, 4)))
    nesting = PairPartition(((1, 4), (2, 3)))
    split = PairPartition(((1, 2), (3, 4)))
    assert pair_pattern_is_default(crossing, "11**")
    assert not pair_pattern_is_default(crossing, "1*1*")
    assert pair_limit_monomial(crossing, "11**") == QTPolynomial.monomial(1, 0)
    assert pair_limit_monomial(nesting, "11**") == QTPolynomial.monomial(0, 1)
    assert pair_limit_monomial(split, "1*1*") == QTPolynomial.one()
    assert pair_limit_monomial(crossing, "1*1*") == QTPolynomial.zero()
    with pytest.raises(ValueError):
        pair_limit_monomial(crossing, "1*")


@pytest.mark.parametrize("eps", ["", "1", "1*1*"])
def test_pair_pattern_is_default_refuses_a_pattern_of_the_wrong_length(eps):
    with pytest.raises(ValidationError, match="pattern of length"):
        pair_pattern_is_default(PairPartition(((1, 2),)), eps)


def test_sampled_table_round_trip():
    tb = sampled_table(5, 0.5, 1.25, 9)
    assert isinstance(tb, CoefficientTable)
    assert tb.t == 1.25
    assert tb.covers(5)
    assert tb.base_value(2, 5) in (1.0, -1.0)
    assert math.isfinite(tb.lookup("1", "*", 5, 2))
