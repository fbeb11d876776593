import hashlib
import json
import os
import subprocess
import sys

import pytest

from qtwick import (
    FockParams, SizeLimitError, enumerate_pair_partitions, vacuum_expectation, vacuum_moment,
)
from qtwick import cli
from qtwick.cli import build_parser, main, run_check
from qtwick.coeffs import MAX_LISTED_SITES, MAX_TABLE_SITES
from qtwick.jw import MAX_VERIFY_SITES
from qtwick.pairings import MAX_ENUMERATION_PAIRS

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
        "--dump-op", "1*",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar"] == 1.0
    assert len(payload["slots"]) == 2
    assert payload["slots"][0]["empty"] == [1.0, 1]


def test_jw_dump_bytes_are_pinned(capsys):
    # the slots carry sqrt(t) * base values of both signs
    for site, digest in (
        ("6*", "d1c094795e769bc4fe203034b3d1d70b4bcd45aae5d1a187d436b36bb63d1a97"),
        ("2", "faaeb2e8b5b1f9871174b8f17184776881bf952a7fb88ef7e241525c480d0750"),
    ):
        code, out, _ = run(
            capsys, "jw", "--n", "6", "--q", "-0.4", "--t", "0.8", "--seed", "4",
            "--dump-op", site,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
])
def test_a_value_past_float64_from_finite_parameters_exits_2(capsys, argv, quantity):
    # float arithmetic that overflows gives inf, not OverflowError
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert f"error: {argv[0]}: {quantity} overflows float64 at q=" in err


@pytest.mark.parametrize("argv, t", [
    # two 1/(t mu) factors per tuple: the estimate is inf
    (("--eps", "1**1", "--pairing", "1-4,2-3"), "1e-300"),
    # products of three t-scaled factors of both signs: value and abs_err are nan
    (("--eps", "111***", "--pairing", "1-4,2-5,3-6"), "1e200"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_clt_row_exits_2(capsys, tmp_path, argv, t):
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
