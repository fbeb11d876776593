"""Listings render each distinct cell once; their bytes must equal the
row-by-row oracle in `_brute`, and --check must keep reading and comparing
them as before."""

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from qtwick import cli
from qtwick.cli import main
from qtwick.errors import ValidationError
from qtwick.pairings import MAX_ENUMERATION_PAIRS
from qtwick.wickpoly import wick_field

FORMATS = ("csv", "text", "json")
COEFFS_GRID = [
    (n, q, t, seed)
    for n in (1, 2, 3, 17, 300)
    for q, t in (("0.5", "1.25"), ("1", "1"), ("-1", "1"), ("0", "2"))
    for seed in ("0", "7")
]


def _meta(*argv):
    return cli._meta_from_args(cli._parser().parse_args(list(argv)))


@pytest.mark.parametrize("fmt", FORMATS)
def test_coeffs_listing_matches_the_row_oracle(fmt):
    for n, q, t, seed in COEFFS_GRID:
        meta = _meta("coeffs", "--n", str(n), f"--q={q}", "--t", t, "--seed", seed)
        listing = cli._coeffs_artifact(meta, fmt)
        assert listing == _brute.coeffs_listing(meta, fmt), (n, q, t, seed)
        if fmt == "csv" and q.lstrip("-") == t:  # q = t samples +1 only, q = -t -1 only
            mu = {line.rsplit(",", 1)[1] for line in listing.splitlines()[len(meta) + 1:]}
            assert mu == ({"1" if q == t else "-1"} if n > 1 else set()), (n, q, t, seed)


@pytest.mark.parametrize("fmt", FORMATS)
def test_pairings_listing_matches_the_row_oracle(fmt):
    # pairings filtered from all set partitions, counted by interval containment
    for n in range(1, 6):
        meta = _meta("pairings", "--n", str(n))
        counted = [(pairs, *_brute.chord_stats(pairs)) for pairs in sorted(_brute.pairings_rgs(n))]
        assert cli._pairings_artifact(meta, fmt) == _brute.pairings_listing(meta, fmt, counted), n


@pytest.mark.parametrize("n", [6, MAX_ENUMERATION_PAIRS])
def test_pairings_listing_past_the_oracle(n):
    """Past the reach of the set-partition oracle: the csv rows are distinct
    pairings in increasing order, (2n-1)!! of them, whose (cross, nest)
    histogram is the pairing-sum engine's."""
    meta = _meta("pairings", "--n", str(n))
    lines = cli._pairings_artifact(meta, "csv").splitlines()
    assert lines[:len(meta) + 1] == [f"# {k}: {v}" for k, v in meta.items()] + ["pairs,cross,nest"]
    # "w-z; w-z,c,s" read as the points w, z, w, z, ... then c and s
    rows = [tuple(map(int, line.replace("; ", ",").replace("-", ",").split(",")))
            for line in lines[len(meta) + 1:]]
    for row in rows:
        points = row[:-2]
        assert len(points) == 2 * n and sorted(points) == list(range(1, 2 * n + 1)), row
        assert all(w < z for w, z in zip(points[::2], points[1::2])), row
    assert all(a[:-2] < b[:-2] for a, b in zip(rows, rows[1:]))
    assert len(rows) == math.prod(range(1, 2 * n, 2))
    assert Counter(row[-2:] for row in rows) == wick_field(n).terms
    if n == 6:  # the text and json layouts of those rows, row by row
        counted = [(tuple(zip(row[:-2:2], row[1:-2:2])), *row[-2:]) for row in rows]
        for fmt in ("text", "json"):
            assert cli._pairings_artifact(meta, fmt) == _brute.pairings_listing(meta, fmt, counted)


@pytest.mark.parametrize("fmt", FORMATS)
def test_listing_formats_each_distinct_value_once(capsys, monkeypatch, fmt):
    calls = []
    fmt_float = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or fmt_float(x))
    argv = ["coeffs", "--n", "300", "--q", "0.5", "--t", "1.25", "--seed", "3", "--format", fmt]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 44850  # 300 * 299 / 2 rows
    # q and t in the metadata, then the two sampled values +-1
    assert len(calls) <= 4


_PIECES = st.sampled_from(["# ", ": ", "\n", "\r", "\x0b", "\x1c", "\u2028", " ", "#", "k"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join), st.integers(1, 12))
def test_preamble_reader_splits_as_splitlines(text, size):
    assert cli._preamble(text, size) == _brute.csv_preamble(text)
    assert cli._preamble(text) == _brute.csv_preamble(text)
    try:
        meta, fmt = cli._parse_artifact(text)
    except ValidationError as exc:
        assert str(exc) == "file carries no metadata preamble; cannot re-check"
        assert not _brute.csv_preamble(text)
    else:
        assert (meta, fmt) == (_brute.csv_preamble(text), "csv")


_CELLS = st.text(st.sampled_from('ab"\\\n/\t\x00\xe9\u2028\U0001f600 '), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_CELLS, _CELLS, max_size=3),
    st.lists(_CELLS, max_size=3),
    st.lists(st.lists(_CELLS, max_size=4), max_size=5),
)
def test_render_equals_the_row_oracle(meta, header, rows):
    meta = cli.Metadata(meta)
    payload = {"metadata": meta, "header": header, "rows": rows}
    assert cli._render(meta, header, rows, "json") == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for fmt in ("csv", "text"):
        assert cli._render(meta, header, rows, fmt) == _brute.render(meta, header, rows, fmt)


@pytest.fixture(scope="module")
def coeffs_300_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("listing") / "coeffs-300.csv"
    argv = ["coeffs", "--n", "300", "--q", "0.5", "--t", "1.25", "--seed", "3", "--format", "csv"]
    assert main(argv + ["--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_check_catches_one_flipped_body_byte(coeffs_300_csv, tmp_path_factory, data):
    text = coeffs_300_csv
    k = data.draw(st.integers(8192, len(text) - 1))
    swap = {"1": "7", "-": "+", ",": ";", "\n": "\r"}
    flipped = text[:k] + swap.get(text[k], "1") + text[k + 1:]
    path = tmp_path_factory.mktemp("flip") / "coeffs-300.csv"
    path.write_text(flipped, encoding="utf-8", newline="")
    assert main(["--check", str(path)]) == 2


def test_check_reads_an_unchanged_300_site_listing(capsys, coeffs_300_csv, tmp_path):
    path = tmp_path / "coeffs-300.csv"
    path.write_text(coeffs_300_csv, encoding="utf-8", newline="")
    assert main(["--check", str(path)]) == 0
    assert capsys.readouterr().out == f"ok: {path}\n"
