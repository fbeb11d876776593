import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings

import pytest

import _brute
from qtwick import (
    FockParams, SizeLimitError, enumerate_pair_partitions, vacuum_expectation, vacuum_moment,
)
from qtwick import (
    CoefficientTable, build_jw, cli, coeffs, limit_coefficient_estimate, sample_packed,
    sampled_table,
)
from qtwick.cli import build_parser, main, run_check
from qtwick.coeffs import MAX_LISTED_SITES, MAX_TABLE_SITES
from qtwick.floats import _fmt
from qtwick.jw import MAX_VERIFY_SITES, _parse_sites, _vacuum_walk
from qtwick.pairings import MAX_ENUMERATION_PAIRS, _parse_pairing

CHAIN = ("--q", "0.5", "--t", "1.25", "--seed", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pairings_text(capsys):
    code, out, err = run(capsys, "pairings", "--n", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines == [
        "{(1,2),(3,4)} cross=0,nest=0",
        "{(1,3),(2,4)} cross=1,nest=0",
        "{(1,4),(2,3)} cross=0,nest=1",
    ]


def test_pairings_csv_and_json(capsys):
    code, out, _ = run(capsys, "pairings", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# command: pairings"
    assert "pairs,cross,nest" in lines
    assert "1-3; 2-4,1,0" in lines
    code, out, _ = run(capsys, "pairings", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["n"] == "2"
    assert payload["header"] == ["pairs", "cross", "nest"]
    assert len(payload["rows"]) == 3


def test_wick_golden_line(capsys):
    code, out, _ = run(capsys, "wick", "--eps", "11**")
    assert code == 0
    assert out == "q + t\n"


def test_wick_field_with_evaluation(capsys):
    code, out, _ = run(capsys, "wick", "--field", "2", "--q", "0.5", "--t", "1.25")
    assert code == 0
    assert out.splitlines() == ["1 + q + t", "value = 2.75"]
    code, out, _ = run(capsys, "wick", "--field", "2", "--format", "csv")
    assert code == 0
    assert "deg_q,deg_t,coeff" in out
    assert "0,0,1" in out


def test_wick_joint_labels(capsys):
    code, out, _ = run(capsys, "wick", "--eps", "11**", "--labels", "1,2,2,1")
    assert code == 0 and out == "t\n"


def test_wick_needs_q_and_t_together(capsys):
    code, out, err = run(capsys, "wick", "--eps", "1*", "--q", "0.5")
    assert code == 2
    assert "together" in err


def test_fock_moment_matches_library(capsys):
    code, out, _ = run(
        capsys, "fock", "--d", "1", "--m", "4", "--q", "0.3", "--t", "0.8",
        "--ops", "s1,s1,s1,s1",
    )
    assert code == 0
    value = float(out.split("=")[1])
    params = FockParams(d=1, m=4, q=0.3, t=0.8)
    assert value == vacuum_moment([("field", 1)] * 4, params)
    assert value == pytest.approx(2.1)


def test_fock_residual_and_gram(capsys):
    code, out, _ = run(
        capsys, "fock", "--d", "2", "--m", "3", "--q", "0.5", "--t", "1.0",
        "--residual", "--format", "csv",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 4
    assert all(float(r.split(",")[2]) <= 1e-12 for r in rows)
    code, out, _ = run(
        capsys, "fock", "--d", "2", "--m", "3", "--q", "0.5", "--t", "1.0",
        "--gram", "2",
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    assert all(l.startswith("eig[") for l in out.splitlines())


def test_fock_bad_ops_token(capsys):
    code, _, err = run(
        capsys, "fock", "--d", "1", "--m", "2", "--q", "0.0", "--t", "1.0",
        "--ops", "x9",
    )
    assert code == 2 and "token" in err


def test_coeffs_dump_and_lookup(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--n", "3", "--q", "0.5", "--t", "1.25", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert "# seed: 1" in lines
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 3
    assert all(r.split(",")[2] in ("1", "-1") for r in rows)
    code, out, _ = run(
        capsys, "coeffs", "--n", "2", "--q", "1", "--t", "1", "--seed", "0",
        "--lookup", "*,1,1,2",
    )
    assert code == 0
    assert out.startswith("mu_(*,1)(1,2) = ")


def test_jw_expectation_and_verify(capsys):
    code, out, _ = run(
        capsys, "jw", "--n", "2", "--q", "0.5", "--t", "1.25", "--seed", "3",
        "--ops", "2,1,2*,1*",
    )
    assert code == 0
    from qtwick import sampled_table

    table = sampled_table(2, 0.5, 1.25, 3)
    want = vacuum_expectation([(2, False), (1, False), (2, True), (1, True)], 2, table)
    assert float(out.split("=")[1]) == want
    code, out, _ = run(
        capsys, "jw", "--n", "3", "--q", "0.5", "--t", "1.25", "--seed", "3",
        "--verify",
    )
    assert code == 0
    assert "failures = 0" in out


def test_jw_dump_is_json(capsys):
    code, out, _ = run(
        capsys, "jw", "--n", "2", "--q", "0.5", "--t", "1.25", "--seed", "0",
        "--dump-op", "1*", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar"] == 1.0
    assert len(payload["slots"]) == 2
    assert payload["slots"][0]["empty"] == [1.0, 1]


def test_jw_dump_bytes_are_pinned(capsys):
    # the slots carry sqrt(t) * base values of both signs
    for site, digest in (
        ("6*", "7923a2be3ae9a9dd018db468559da8ccd83d5ff8abb31bbb77c03466069b1e34"),
        ("2", "14eb827c2e632a05e2011c3621b9373810f97bd3e30ee370a6cff68cff6c89cc"),
    ):
        code, out, _ = run(
            capsys, "jw", "--n", "6", "--q", "-0.4", "--t", "0.8", "--seed", "4",
            "--dump-op", site, "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_jw_dump_text_lists_each_slot(capsys):
    code, out, _ = run(
        capsys, "jw", "--n", "3", "--q", "1.25", "--t", "1.25", "--seed", "0",
        "--dump-op", "2*",
    )
    assert code == 0
    # every base value is +1 at q = t, so slots 1 and 3 scale |1> by sqrt(t)
    sq = _fmt(math.sqrt(1.25))
    assert out == (
        f"slot 1: |0> -> 1 |0>, |1> -> {sq} |1>\n"
        "slot 2: |0> -> 1 |1>, |1> -> none\n"
        f"slot 3: |0> -> 1 |0>, |1> -> {sq} |1>\n"
    )


def test_jw_dump_csv_lists_each_slot_and_checks(capsys, tmp_path):
    path = tmp_path / "dump.csv"
    code, _, _ = run(
        capsys, "jw", "--n", "3", *CHAIN, "--dump-op", "3", "--format", "csv", "--out", str(path)
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert "# op: dump" in lines and "# site: 3" in lines
    header = lines.index("slot,empty_coeff,empty_bit,occupied_coeff,occupied_bit")
    rows = [line.split(",") for line in lines[header + 1:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert rows[2] == ["3", "none", "none", "1", "0"]
    assert all(row[1:3] == ["1", "0"] and row[4] == "1" for row in rows[:2])
    assert run(capsys, "--check", str(path)) == (0, f"ok: {path}\n", "")
    path.write_text(path.read_text().replace("3,none,none,1,0", "3,none,none,1,1"))
    code, _, err = run(capsys, "--check", str(path))
    assert code == 2 and "does not match a fresh run of jw" in err


def test_coeffs_listing_cap(capsys):
    n = str(MAX_LISTED_SITES + 1)
    code, out, err = run(capsys, "coeffs", "--n", n, *CHAIN)
    assert code == 2 and out == ""
    assert f"{MAX_LISTED_SITES}-site cap" in err
    # a lookup lists nothing; only the table cap bounds it
    code, out, _ = run(capsys, "coeffs", "--n", n, *CHAIN, "--lookup", "*,1,1,2")
    assert code == 0 and out.startswith("mu_(*,1)(1,2) = ")
    code, _, err = run(
        capsys, "coeffs", "--n", str(MAX_TABLE_SITES + 1), *CHAIN, "--lookup", "*,1,1,2"
    )
    assert code == 2 and f"{MAX_TABLE_SITES}-site table cap" in err


def test_jw_caps(capsys):
    code, out, err = run(capsys, "jw", "--n", str(MAX_VERIFY_SITES + 1), *CHAIN, "--verify")
    assert code == 2 and out == ""
    assert f"{MAX_VERIFY_SITES}-site cap" in err
    code, _, err = run(capsys, "jw", "--n", str(MAX_TABLE_SITES + 1), *CHAIN, "--ops", "1,1*")
    assert code == 2 and f"{MAX_TABLE_SITES}-site table cap" in err


def test_pairings_cap(capsys):
    with pytest.raises(SizeLimitError):
        enumerate_pair_partitions(MAX_ENUMERATION_PAIRS + 1)
    for n in (MAX_ENUMERATION_PAIRS + 1, 10**9):  # refused before any table is built
        code, out, err = run(capsys, "pairings", "--n", str(n))
        assert code == 2 and out == ""
        assert f"n={n} > {MAX_ENUMERATION_PAIRS}" in err


@pytest.mark.parametrize("argv", [
    ("clt", "--mode", "moment", "--eps", "11**", "--q", "nan", "--t", "nan", "--ns", "10,20"),
    ("clt", "--mode", "lambda", "--eps", "11**", "--q", "0.5", "--t", "inf", "--ns", "10",
     "--pairing", "1-3,2-4"),
    ("coeffs", "--n", "5", "--q", "0.5", "--t", "inf"),
    ("coeffs", "--n", "5", "--q=-inf", "--t", "1"),
    ("jw", "--n", "3", "--q", "nan", "--t", "1", "--ops", "1,1*"),
    ("fock", "--d", "1", "--m", "2", "--q", "0.5", "--t", "inf", "--ops", "s1,s1"),
])
def test_non_finite_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("clt", "--mode", "moment", "--eps", "1111****", "--q", "0", "--t", "1e300", "--ns", "8,12"),
    ("fock", "--d", "2", "--m", "4", "--q", "0.5", "--t", "1e300", "--gram", "3"),
    ("fock", "--d", "2", "--m", "6", "--q", "0.5", "--t", "1e300", "--residual"),
    ("fock", "--d", "1", "--m", "8", "--q", "0.5", "--t", "1e300", "--ops", "s1,s1,s1,s1,s1,s1"),
])
def test_float64_overflow_from_finite_parameters_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {argv[0]}: the result overflows float64 at q=" in err
    # --check of a finite artifact whose t was edited to the same value
    at = argv.index("--t") + 1
    finite = tmp_path / "finite.csv"
    code, _, _ = run(capsys, *argv[:at], "1.25", *argv[at + 1:], "--format", "csv",
                     "--out", str(finite))
    assert code == 0
    edited = tmp_path / "edited.csv"
    edited.write_text(finite.read_text().replace("# t: 1.25\n", "# t: 1e300\n"))
    code, _, err = run(capsys, "--check", str(edited))
    assert code == 2 and f"error: {argv[0]}: the result overflows float64" in err


@pytest.mark.parametrize("argv, quantity", [
    (("coeffs", "--n", "4", "--q", "0", "--t", "1e-320", "--lookup", "1,*,2,1"),
     "mu_(1,*)(2,1)"),
    (("fock", "--d", "1", "--m", "200", "--q", "0.5", "--t", "1.25", "--ops", ",".join(["s1"] * 200)),
     "the vacuum moment"),
    (("jw", "--n", "4", "--q", "0", "--t", "1e300", "--ops", "1,2,3,3*,2*,1*"),
     "the vacuum expectation"),
    (("fock", "--d", "2", "--m", "5", "--q", "1e100", "--t", "1e-20", "--residual"),
     "the residual at f=1, g=1"),
    (("wick", "--eps", "11**", "--q", "1e308", "--t", "1e308"), "the value"),
    (("fock", "--d", "2", "--m", "6", "--q", "0.5", "--t", "1e150", "--gram", "3"),
     "the Gram matrix"),
    (("clt", "--mode", "lambda", "--eps", "111***", "--pairing", "1-4,2-5,3-6", "--q", "0",
      "--t", "1e200", "--ns", "5", "--seed", "1"), "the estimate at N=5"),
    (("clt", "--mode", "lambda", "--eps", "1**1", "--pairing", "1-4,2-3", "--q", "0",
      "--t", "1e-320", "--ns", "5", "--seed", "1"), "the estimate at N=5"),
])
def test_a_value_past_float64_from_finite_parameters_exits_2(capsys, argv, quantity):
    # float arithmetic that overflows gives inf, not OverflowError; the error
    # line is all a user sees, no numpy warning beside it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert [str(w.message) for w in caught] == []
    assert err.startswith(f"error: {argv[0]}: {quantity} overflows float64 at q=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, t", [
    # two 1/(t mu) factors per tuple: the estimate is inf
    (("--eps", "1**1", "--pairing", "1-4,2-3"), "1e-300"),
    # three t-scaled factors per tuple, of both signs: the estimate is +inf
    (("--eps", "111***", "--pairing", "1-4,2-5,3-6"), "1e200"),
])
def test_a_non_finite_clt_row_exits_2(capsys, tmp_path, argv, t):
    # the library's estimate is an infinity, never nan
    pairing = _parse_pairing(argv[3])
    table = sampled_table(5, 0.0, float(t), 1)
    assert math.isinf(limit_coefficient_estimate(pairing, argv[1], 5, table))
    clt = ("clt", "--mode", "lambda", *argv, "--q", "0", "--ns", "5", "--seed", "1")
    message = "error: clt: the estimate at N=5 overflows float64 at q=0, t="
    code, out, err = run(capsys, *clt, "--t", t, "--format", "csv")
    assert code == 2 and out == ""
    assert message in err
    # --check of a finite artifact whose t was edited to the same value
    finite = tmp_path / "finite.csv"
    code, _, _ = run(capsys, *clt, "--t", "1.25", "--format", "csv", "--out", str(finite))
    assert code == 0
    edited = tmp_path / "edited.csv"
    edited.write_text(finite.read_text().replace("# t: 1.25\n", f"# t: {t}\n"))
    code, _, err = run(capsys, "--check", str(edited))
    assert code == 2 and message in err


@pytest.mark.parametrize("lookup", ["1,*,2", "1,*,x,2"])
def test_coeffs_lookup_of_the_wrong_shape_exits_2(capsys, lookup):
    code, out, err = run(capsys, "coeffs", "--n", "4", *CHAIN, "--lookup", lookup)
    assert code == 2 and out == ""
    assert "left,right,i,j" in err


_LAW = ("--q", "0.5", "--t", "1.25")


@pytest.mark.parametrize("argv, line", [
    (("jw", "--n", "5000", *_LAW, "--ops", "1,1*"), "5000 sites exceed the 4096-site table cap"),
    (("jw", "--n", "0", *_LAW, "--ops", "1,1*"), "need n >= 1"),
    (("jw", "--n", "10", "--q", "2", "--t", "1.25", "--ops", "1,1*"),
     "two-point law needs |q| <= t, got q=2.0, t=1.25"),
    # a word killed before it reads a pair is refused all the same
    (("jw", "--n", "10", "--q", "2", "--t", "1.25", "--ops", "1"),
     "two-point law needs |q| <= t, got q=2.0, t=1.25"),
    (("jw", "--n", "5000", *_LAW, "--ops", "1"), "5000 sites exceed the 4096-site table cap"),
    (("jw", "--n", "10", *_LAW, "--ops", "11,11*"), "site 11 outside 1..10"),
    (("jw", "--n", "10", *_LAW, "--dump-op", "11"), "site 11 outside 1..10"),
    (("jw", "--n", "10", "--q", "2", "--t", "1.25", "--dump-op", "11"),
     "two-point law needs |q| <= t, got q=2.0, t=1.25"),
    (("coeffs", "--n", "10", *_LAW, "--lookup", "1,*,3,11"),
     "table has no base value for pair (3,11)"),
    (("coeffs", "--n", "10", *_LAW, "--lookup", "1,*,3,3"),
     "coefficients are only defined for distinct indices"),
    (("coeffs", "--n", "10", *_LAW, "--lookup", "x,*,3,4"),
     "letters must be '1' or '*', got ('x','*')"),
    (("coeffs", "--n", "4", "--q", "0", "--t", "1e-320", "--lookup", "1,*,2,1"),
     "coeffs: mu_(1,*)(2,1) overflows float64 at q=0, t=9.9998886718268301e-321"),
    (("coeffs", "--n", "5000", *_LAW, "--lookup", "1,*,3,11"),
     "5000 sites exceed the 4096-site table cap"),
])
def test_chain_refusals_keep_their_message_and_precedence(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize("site", ["3**", "+3", "x", "-3"])
@pytest.mark.parametrize("flag", ["--ops", "--dump-op"])
def test_a_bad_site_token_exits_2(capsys, flag, site):
    code, out, err = run(capsys, "jw", "--n", "5", *CHAIN, flag, site)
    assert code == 2 and out == ""
    assert err.startswith("error: bad site token ") and err.count("\n") == 1


def test_dump_op_takes_one_site(capsys):
    code, out, err = run(capsys, "jw", "--n", "5", *CHAIN, "--dump-op", "2,3")
    assert code == 2 and out == ""
    assert err == "error: --dump-op takes one site, got '2,3'\n"


def _table_words(rng, n):
    """jw --ops words on n sites: pair-class words, which a random mark
    mostly kills, nested words, which survive, and words on sites 1 and n."""
    words = []
    for pairs in (1, 2, 3, 4):
        if pairs <= n:
            sites = rng.sample(range(1, n + 1), pairs)
            tokens = [f"{s}*" if rng.getrandbits(1) else str(s) for s in sites for _ in (0, 1)]
            rng.shuffle(tokens)
            words.append(",".join(tokens))
            down = sites[:]
            rng.shuffle(down)
            words.append(",".join([str(s) for s in down] + [f"{s}*" for s in reversed(sites)]))
    words += [f"{n},1,{n}*,1*", f"1,{n},1*,{n}*", f"1,{n},{n}*,1*", f"{n}*", "1"]
    return words


def _meta(*argv):
    return cli._meta_from_args(cli._parser().parse_args(list(argv)))


def _full_table_artifact(argv, fmt):
    """The artifact of a jw --ops, jw --dump-op or coeffs --lookup run from
    the library over the whole sampled table, or the error line it exits with.
    The table is drawn whole up front, so it reads no rank the way the
    commands' sampled_table does."""
    meta = _meta(*argv)
    n, q, t, seed = int(meta["n"]), float(meta["q"]), float(meta["t"]), int(meta["seed"])
    table = CoefficientTable(sample_packed(n, q, t, seed), t)
    if "site" in meta:
        op = build_jw(n, int(meta["site"].rstrip("*")), table, meta["site"].endswith("*"))
        if fmt == "json":
            slots = [{"empty": None if a[0] is None else list(a[0]),
                      "occupied": None if a[1] is None else list(a[1])} for a in op.slots]
            payload = {"metadata": meta, "scalar": op.scalar, "slots": slots}
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        rows, text_lines = [], []
        for k, slot in enumerate(op.slots, start=1):
            row, kets = [str(k)], []
            for image in slot:
                row += ["none", "none"] if image is None else [_fmt(image[0]), str(image[1])]
                kets.append("none" if image is None else f"{_fmt(image[0])} |{image[1]}>")
            rows.append(row)
            text_lines.append(f"slot {k}: |0> -> {kets[0]}, |1> -> {kets[1]}")
        header = ["slot", "empty_coeff", "empty_bit", "occupied_coeff", "occupied_bit"]
        return _brute.render(meta, header, rows, fmt, text_lines)
    if "ops" in meta:
        quantity, header = "the vacuum expectation", "value"
        value = vacuum_expectation(_parse_sites(meta["ops"]), n, table)
    else:
        e1, e2, i, j = meta["lookup"].split(",")
        quantity, header = f"mu_({e1},{e2})({i},{j})", None
        value = table.lookup(e1, e2, int(i), int(j))
    if not math.isfinite(value):
        return f"error: {meta['command']}: {quantity} overflows float64 at q={meta['q']}, t={meta['t']}\n"
    if header is None:
        return _brute.render(meta, ["left", "right", "i", "j", "value"], [[e1, e2, i, j, _fmt(value)]],
                             fmt, [f"{quantity} = {_fmt(value)}"])
    return _brute.render(meta, [header], [[_fmt(value)]], fmt, [f"value = {_fmt(value)}"])


@pytest.mark.parametrize("q, t", [
    ("0.5", "1.25"), ("-0.4", "0.8"), ("1", "1"), ("-1", "1"),
    ("0", "1e-320"),  # 1/(t mu) overflows, sqrt(t) products underflow
    ("0", "1e300"),  # sqrt(t) products overflow
])
def test_chain_commands_write_the_full_table_bytes(capsys, q, t):
    rng = random.Random(f"{q},{t}")
    for n in (1, 2, 9, 40):
        chain = ("--n", str(n), f"--q={q}", "--t", t, "--seed", str(rng.randrange(-5, 2**65)))
        jobs = [("jw", *chain, "--ops", word) for word in _table_words(rng, n)]
        jobs += [("jw", *chain, "--dump-op", f"{site}{mark}")
                 for site in {1, n, rng.randint(1, n)} for mark in ("", "*")]
        if n > 1:
            pairs = {(1, n), (n, 1), tuple(rng.sample(range(1, n + 1), 2))}
            jobs += [("coeffs", *chain, "--lookup", f"{e1},{e2},{i},{j}")
                     for e1 in "1*" for e2 in "1*" for i, j in pairs]
        for argv in jobs:
            for fmt in ("csv", "json", "text"):
                code, out, err = run(capsys, *argv, "--format", fmt)
                want = _full_table_artifact(argv, fmt)
                assert (out if code == 0 else err) == want, argv


def test_a_chain_word_draws_only_the_pairs_it_reads(capsys, monkeypatch):
    drawn = []
    real_draw = coeffs._draw

    def counting_draw(ranks, seed, p_plus):
        drawn.append(ranks.size)
        return real_draw(ranks, seed, p_plus)

    def no_whole_table(*args):
        raise AssertionError("sample_packed called")

    monkeypatch.setattr(coeffs, "_draw", counting_draw)
    monkeypatch.setattr(coeffs, "sample_packed", no_whole_table)
    n = MAX_TABLE_SITES
    rng = random.Random(15)
    sites = rng.sample(range(1, n + 1), 40)
    word = ",".join([str(s) for s in sites] + [f"{s}*" for s in reversed(sites)])
    walk = _vacuum_walk(_parse_sites(word), n)
    assert walk is not None
    code, out, _ = run(capsys, "jw", "--n", str(n), *CHAIN, "--ops", word)
    assert code == 0 and out.startswith("value = ")
    assert drawn == [len(set(walk[0]))] and 0 < drawn[0] < len(walk[0])
    drawn.clear()
    code, _, _ = run(capsys, "jw", "--n", str(n), *CHAIN, "--dump-op", "4000*")
    assert code == 0 and drawn == [3999]
    drawn.clear()
    code, _, _ = run(capsys, "coeffs", "--n", str(n), *CHAIN, "--lookup", "1,*,7,4000")
    assert code == 0 and drawn == [1]


def test_check_names_missing_or_malformed_metadata(capsys, tmp_path):
    good = tmp_path / "coeffs.csv"
    code, _, _ = run(capsys, "coeffs", "--n", "5", *CHAIN, "--format", "csv", "--out", str(good))
    assert code == 0
    text = good.read_text()
    broken = tmp_path / "broken.csv"
    broken.write_text(text.replace("# n: 5\n", ""))
    code, _, err = run(capsys, "--check", str(broken))
    assert code == 2 and "'n'" in err and "internal" not in err
    broken.write_text(text.replace("# n: 5\n", "# n: five\n"))
    code, _, err = run(capsys, "--check", str(broken))
    assert code == 2 and "'n'" in err and "malformed" in err
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "clt", "--mode", "moment", "--eps", "1*", *CHAIN, "--ns", "5",
        "--format", "json", "--out", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    del payload["metadata"]["seed"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code, _, err = run(capsys, "--check", str(broken))
    assert code == 2 and "'seed'" in err
    broken.write_text(json.dumps({"rows": []}))
    code, _, err = run(capsys, "--check", str(broken))
    assert code == 2 and "metadata" in err


def test_clt_csv_to_file_and_check(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "clt", "--mode", "moment", "--eps", "11**", "--q", "0.5",
        "--t", "1.25", "--ns", "10,20", "--seed", "7", "--out", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# command: clt")
    assert run_check(str(target)) == f"ok: {target}"
    code, out, err = run(capsys, "--check", str(target))
    assert code == 0 and out.strip() == f"ok: {target}"

    target.write_text(text.replace("moment,", "moment,9", 1))
    code, _, err = run(capsys, "--check", str(target))
    assert code == 2 and "does not match" in err


def test_clt_lambda_via_cli(capsys):
    code, out, _ = run(
        capsys, "clt", "--mode", "lambda", "--eps", "11**", "--q", "0.5",
        "--t", "1.25", "--ns", "10,30", "--seed", "5",
        "--pairing", "1-3,2-4", "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("N=10 value=")
    assert "target=0.5" in lines[0]


def test_clt_repeat_runs_are_byte_identical(capsys):
    args = (
        "clt", "--mode", "moment", "--eps", "1*", "--q", "0.5", "--t", "1.25",
        "--ns", "5,10", "--seed", "11",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_json_artifact(capsys, tmp_path):
    target = tmp_path / "pairings.json"
    code, out, _ = run(
        capsys, "pairings", "--n", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert run_check(str(target)).startswith("ok:")


def test_check_reads_only_the_json_metadata(capsys, tmp_path):
    target = tmp_path / "pairings.json"
    assert run(capsys, "pairings", "--n", "3", "--format", "json", "--out", str(target))[0] == 0
    text = target.read_text()
    # the rows are never decoded, only compared
    target.write_text(text.replace('"rows": [', '"rows": [[', 1))
    code, _, err = run(capsys, "--check", str(target))
    assert code == 2 and "does not match a fresh run of pairings" in err
    for meta, why in [('"metadata": ["pairings"]', "no 'metadata' object"),
                      ('"metadata": {"command": "pairings", "n": 3}', "'n' is malformed")]:
        target.write_text(json.dumps({"header": [], "rows": []}).replace('"rows"', meta + ', "rows"'))
        code, _, err = run(capsys, "--check", str(target))
        assert code == 2 and why in err, meta


@pytest.mark.parametrize("argv", [
    ("coeffs", "--n", "4", *CHAIN, "--format", "csv"),
    ("clt", "--mode", "moment", "--eps", "11**", *CHAIN, "--ns", "5,10", "--format", "csv"),
])
def test_check_echoes_the_artifact_version(capsys, tmp_path, argv):
    target = tmp_path / "old.csv"
    code, text, _ = run(capsys, *argv)
    assert code == 0 and f"# version: {cli.__version__}\n" in text
    old = text.replace(f"# version: {cli.__version__}\n", "# version: 0.0.9\n")
    target.write_text(old)
    assert run(capsys, "--check", str(target))[:2] == (0, f"ok: {target}\n")
    target.write_text(old[:-2] + ("7" if old[-2] != "7" else "1") + "\n")
    code, _, err = run(capsys, "--check", str(target))
    assert code == 2 and "does not match" in err
    assert "version 0.0.9" in err and f"version {cli.__version__}" in err


def test_check_rejects_plain_file(tmp_path, capsys):
    stray = tmp_path / "stray.csv"
    stray.write_text("N,value\n1,2\n")
    code, _, err = run(capsys, "--check", str(stray))
    assert code == 2 and "metadata" in err


@pytest.mark.parametrize("argv", [
    ("--check", "{tmp}/nonexistent.csv"),
    ("--check", "{tmp}"),
    ("pairings", "--n", "2", "--out", "{tmp}/nonexistent/x.csv"),
    ("pairings", "--n", "2", "--out", "{tmp}"),
])
def test_a_file_that_cannot_be_opened_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert str(tmp_path) in err and "internal" not in err


# one json artifact of every command and op
JSON_JOBS = [
    ("pairings", "--n", "2"),
    ("wick", "--eps", "11**", "--q", "0.5", "--t", "1.25"),
    ("wick", "--eps", "1*1*", "--labels", "1,1,2,2"),
    ("wick", "--field", "2"),
    ("fock", "--d", "2", "--m", "3", "--q", "0.5", "--t", "1", "--ops", "a1,c1"),
    ("fock", "--d", "2", "--m", "3", "--q", "0.5", "--t", "1", "--residual"),
    ("fock", "--d", "2", "--m", "3", "--q", "0.5", "--t", "1", "--gram", "2"),
    ("coeffs", "--n", "4", *CHAIN),
    ("coeffs", "--n", "4", *CHAIN, "--lookup", "1,*,1,3"),
    ("jw", "--n", "3", *CHAIN, "--ops", "1,1*"),
    ("jw", "--n", "3", *CHAIN, "--verify"),
    ("jw", "--n", "3", *CHAIN, "--dump-op", "2*"),
    ("clt", "--mode", "moment", "--eps", "1*", *CHAIN, "--ns", "5"),
    ("clt", "--mode", "lambda", "--eps", "11**", *CHAIN, "--ns", "5", "--pairing", "1-3,2-4"),
]


@pytest.mark.parametrize("argv", JSON_JOBS, ids=lambda argv: " ".join(argv))
def test_check_rejects_non_string_json_metadata(capsys, tmp_path, argv):
    good = tmp_path / "good.json"
    assert run(capsys, *argv, "--format", "json", "--out", str(good))[0] == 0
    assert run(capsys, "--check", str(good))[0] == 0
    payload = json.loads(good.read_text())
    broken = tmp_path / "broken.json"
    for key in payload["metadata"]:
        for value in (5, [payload["metadata"][key]], {key: "x"}, None):
            edited = dict(payload, metadata={**payload["metadata"], key: value})
            broken.write_text(json.dumps(edited, indent=2, sort_keys=True) + "\n")
            code, out, err = run(capsys, "--check", str(broken))
            assert code == 2 and out == "", (key, value)
            assert repr(key) in err and "internal" not in err, (key, value, err)


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QTWICK_SEED", "42")
    code, out_env, _ = run(
        capsys, "coeffs", "--n", "3", "--q", "0.5", "--t", "1.25", "--format", "csv"
    )
    monkeypatch.delenv("QTWICK_SEED")
    code2, out_flag, _ = run(
        capsys, "coeffs", "--n", "3", "--q", "0.5", "--t", "1.25", "--seed", "42",
        "--format", "csv",
    )
    assert code == code2 == 0
    assert out_env == out_flag
    assert "# seed: 42" in out_env


def test_seed_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("QTWICK_SEED", "not-a-number")
    code, _, err = run(
        capsys, "coeffs", "--n", "2", "--q", "0.5", "--t", "1.25"
    )
    assert code == 2 and "QTWICK_SEED" in err


def test_config_file_defaults_and_explicit_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn=2\nformat=csv\n")
    code, out, _ = run(capsys, "pairings", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# command: pairings")
    assert "# n: 2" in out
    code, out, _ = run(capsys, "pairings", "--config", str(cfg), "--n", "3")
    assert code == 0
    assert "# n: 3" in out


def test_config_file_store_true(capsys, tmp_path):
    cfg = tmp_path / "jw.cfg"
    cfg.write_text("n=2\nq=0.5\nt=1.25\nseed=0\nverify=true\n")
    code, out, _ = run(capsys, "jw", "--config", str(cfg))
    assert code == 0
    assert "failures = 0" in out


def test_config_file_values_may_start_with_a_minus(capsys, tmp_path):
    cfg = tmp_path / "jw.cfg"
    cfg.write_text("n=3\nq=-1e-3\nt=1.25\nseed=-7\nops=1,2,2*,1*\nformat=csv\n")
    code, out, err = run(capsys, "jw", "--config", str(cfg))
    assert code == 0 and err == ""
    want = run(capsys, "jw", "--n", "3", "--q=-1e-3", "--t", "1.25", "--seed=-7",
               "--ops", "1,2,2*,1*", "--format", "csv")
    assert want == (0, out, "") and "# q: -0.001" in out
    # explicit flags still win over the file
    code, out, _ = run(capsys, "jw", "--config", str(cfg), "--q", "0.5")
    assert code == 0 and "# q: 0.5" in out


def test_config_file_errors(capsys, tmp_path):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "pairings", "--config", str(missing))
    assert code == 2 and "config" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    code, _, err = run(capsys, "pairings", "--config", str(bad))
    assert code == 2 and "key=value" in err


def test_no_command_prints_usage(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_validation_failures_exit_2(capsys):
    code, _, err = run(capsys, "wick", "--eps", "1a")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "pairings", "--n", "99")
    assert code == 2
    code, _, err = run(
        capsys, "clt", "--mode", "moment", "--eps", "11**", "--q", "3", "--t", "1",
        "--ns", "5",
    )
    assert code == 2 and "|q| <= t" in err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["pairings", "--bogus"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qtwick" in capsys.readouterr().out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    jobs = [
        ["jw", "--n", "6", *CHAIN, "--verify", "--format", "csv"],
        ["jw", "--n", "6", *CHAIN, "--ops", "2,5,2*,5*"],
        ["wick", "--eps", "11**", "--q", "0.5", "--t", "1.25", "--format", "json"],
    ]
    try:
        with pytest.raises(SystemExit) as exc:  # two options of one exclusive group
            main(["jw", "--n", "6", *CHAIN, "--verify", "--ops", "1,1*"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
        outs = []
        for argv in jobs:
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            outs.append(out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    for argv, out in zip(jobs, outs):
        proc = subprocess.run(
            [sys.executable, "-m", "qtwick", *argv], capture_output=True, text=True, check=True
        )
        assert proc.stdout == out


def test_module_entry_point():
    env = dict(os.environ, QTWICK_SEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "qtwick", "wick", "--eps", "1*"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
