"""Every command at small sizes, with q and t anywhere in 1e-320..1e300: a run
either writes an artifact of finite cells or exits 2 with one error line,
and numpy never warns on the way.

The one documented non-finite cell is `jw --verify`'s max_deviation: it is
inf when one side of a relation vanishes and the other does not (at
t = 1e-320, say, where sqrt(t) * mu underflows to zero).
"""

import contextlib
import io
import json
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from qtwick import enumerate_pair_partitions
from qtwick.cli import main

NON_FINITE = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)

magnitudes = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)
signs = st.sampled_from((-1.0, 0.0, 1.0))
formats = st.sampled_from(("text", "csv", "json"))
sizes = st.integers(1, 8)
patterns = st.text(alphabet="1*", min_size=1, max_size=6)
PAIRINGS = [p for n in (1, 2, 3) for p in enumerate_pair_partitions(n)]


def _flag(name: str, value: float) -> str:
    # one token, because argparse reads a separate "-1e-3" as an option
    return f"--{name}={value!r}"


@st.composite
def parameters(draw, two_point: bool) -> list[str]:
    """--q and --t; a sampled table's two-point law needs |q| <= t."""
    t = draw(magnitudes)
    q = draw(magnitudes)
    if two_point:
        q = min(q, t)
    return [_flag("q", draw(signs) * q), _flag("t", t)]


@st.composite
def wick_argv(draw) -> list[str]:
    shape = draw(st.one_of(patterns.map(lambda eps: ["--eps", eps]),
                           st.integers(1, 3).map(lambda n: ["--field", str(n)])))
    return ["wick", *shape, *draw(parameters(two_point=False))]


@st.composite
def fock_argv(draw) -> list[str]:
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 5))
    token = st.one_of(st.just("n"), st.tuples(st.sampled_from("cas"), st.integers(1, d))
                      .map(lambda kl: f"{kl[0]}{kl[1]}"))
    op = draw(st.one_of(
        st.lists(token, min_size=1, max_size=6).map(lambda ws: ["--ops", ",".join(ws)]),
        st.just(["--residual"]),
        st.integers(0, 3).map(lambda k: ["--gram", str(k)]),
    ))
    return ["fock", "--d", str(d), "--m", str(m), *draw(parameters(two_point=False)), *op]


@st.composite
def coeffs_argv(draw) -> list[str]:
    n = draw(sizes)
    argv = ["coeffs", "--n", str(n), *draw(parameters(two_point=True)), "--seed", "3"]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        e1, e2 = draw(st.sampled_from("1*")), draw(st.sampled_from("1*"))
        argv += ["--lookup", f"{e1},{e2},{i},{j}"]
    return argv


@st.composite
def jw_argv(draw) -> list[str]:
    n = draw(sizes)
    site = st.tuples(st.integers(1, n), st.sampled_from(("", "*"))).map(lambda sa: f"{sa[0]}{sa[1]}")
    op = draw(st.one_of(
        st.lists(site, min_size=1, max_size=8).map(lambda ws: ["--ops", ",".join(ws)]),
        st.just(["--verify"]),
        site.map(lambda s: ["--dump-op", s]),
    ))
    return ["jw", "--n", str(n), *draw(parameters(two_point=True)), "--seed", "3", *op]


@st.composite
def clt_argv(draw) -> list[str]:
    if draw(st.booleans()):
        mode = ["--mode", "moment", "--eps", draw(patterns)]
        low = 1
    else:
        pairing = draw(st.sampled_from(PAIRINGS))
        eps = draw(st.text(alphabet="1*", min_size=pairing.size, max_size=pairing.size))
        spelled = ",".join(f"{w}-{z}" for w, z in pairing.pairs)
        mode = ["--mode", "lambda", "--eps", eps, "--pairing", spelled]
        low = pairing.n
    ns = sorted(draw(st.sets(st.integers(low, 10), min_size=1, max_size=2)))
    return ["clt", *mode, *draw(parameters(two_point=True)),
            "--ns", ",".join(map(str, ns)), "--seed", "3"]


commands = st.one_of(
    st.integers(1, 3).map(lambda n: ["pairings", "--n", str(n)]),
    wick_argv(), fock_argv(), coeffs_argv(), jw_argv(), clt_argv(),
)


def _without_max_deviation(out: str, fmt: str) -> str:
    """A `jw --verify` artifact without its max_deviation cell."""
    if fmt == "text":
        return re.sub(r"^max deviation = .*$", "", out, flags=re.MULTILINE)
    if fmt == "csv":
        *head, row = out.splitlines()
        n, _, failures = row.split(",")
        return "\n".join([*head, n, failures])
    payload = json.loads(out)
    del payload["rows"][0][1]
    return json.dumps(payload)


@settings(max_examples=500, deadline=None)
@given(argv=commands, fmt=formats)
def test_a_command_writes_finite_cells_or_exits_2(argv, fmt):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*argv, "--format", fmt])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code == 0 and err == ""
    if argv[0] == "jw" and "--verify" in argv:
        out = _without_max_deviation(out, fmt)
    assert not NON_FINITE.search(out), out
