"""Command-line front end.

Every tabular artifact (csv or json) starts from a flat metadata mapping that
fully determines it; `--check FILE` re-derives the artifact from the embedded
metadata and verifies the bytes match.  All randomness flows from --seed,
which falls back to the QTWICK_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import __version__
from .errors import SizeLimitError, ValidationError
from .floats import _check_finite, _fmt

# each artifact function imports the engines it runs, so a command loads
# only those (`pairings` and `wick` never load numpy)
if TYPE_CHECKING:
    from .clt import ExperimentConfig
    from .wickpoly import QTPolynomial


class Metadata(dict):
    """The flat metadata of an artifact.  A missing or malformed entry is a
    user error (a hand-edited file, say), so it raises ValidationError naming
    the key instead of KeyError."""

    def __missing__(self, key: str) -> str:
        raise ValidationError(f"metadata has no {key!r} entry")

    def number(self, key: str, kind: Callable[[str], Any] = int) -> Any:
        raw = self[key]
        try:
            return kind(raw)
        except (AttributeError, TypeError, ValueError):
            raise ValidationError(f"metadata entry {key!r} is malformed: {raw!r}") from None


def _int_list(text: str, sep: str = ",") -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(sep))


def _overflow(meta: Metadata, quantity: str) -> ValidationError:
    return ValidationError(f"{meta['command']}: {quantity} overflows float64 "
                           f"at q={meta.get('q')}, t={meta.get('t')}")


def _finite(meta: Metadata, quantity: str, value: float) -> float:
    """value, which finite q and t can still take past float64's range (a
    product of many t-scaled factors, say): then a user error naming the
    quantity, never an inf cell."""
    if not math.isfinite(value):
        raise _overflow(meta, quantity)
    return value


def _json(payload: Any) -> str:
    """A json artifact: payload as every json artifact lays it out."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# fmt: (start, between, end, sep) of a listing row, its cells joined by
# between, as _render writes csv rows and _json json rows at depth 2; a
# listing cell is ascii with nothing to escape, so json's quotes are layout
_ROW = {
    "csv": ("", ",", "", "\n"),
    "json": ('[\n      "', '",\n      "', '"\n    ]', ",\n    "),
}


def _render(meta: Metadata, header: list[str], rows: list[list[str]], fmt: str,
            text_lines: Optional[list[str]] = None, body: Optional[str] = None) -> str:
    """The artifact: csv or json around `rows`, or `text_lines` (else the
    rows) as text.  A listing may pass no rows and its `body` instead, the
    rows laid out as fmt lays them out and joined (None if there are none)."""
    if fmt == "text":
        if body is None:
            body = "\n".join(text_lines if text_lines is not None else map(" ".join, rows))
        return body + "\n"
    if fmt == "csv":
        lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(header)]
        lines += map(",".join, rows)
        return "\n".join(lines + ([""] if body is None else [body, ""]))
    if fmt == "json":
        text = _json({"metadata": meta, "header": header, "rows": rows})
        # a listing's body goes where its rows sort, last
        return text if body is None else "".join(
            (text[:-len("[]\n}\n")], "[\n    ", body, "\n  ]\n}\n"))
    raise ValidationError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------- pairings

def _pairings_artifact(meta: Metadata, fmt: str) -> str:
    from .pairings import _placements

    n = meta.number("n")
    # a row is `start`, a token per pair (the last one closes the pairs cell)
    # and one of the count strings
    if fmt == "text":
        start, pair, last, counts, sep = "{", "({},{}),", "({},{})}} cross=", "{},nest={}", "\n"
    else:
        start, between, end, sep = _ROW[fmt]
        pair, last, counts = "{}-{}; ", "{}-{}" + between, "{}" + between + "{}" + end
    placed = _placements(n, start, pair.format, last.format)
    most = range(n * (n - 1) // 2 + 1)
    num = [[counts.format(c, s) for s in most] for c in most]
    rows = [head + suffix + num[cross + c][nest + s]
            for head, cross, nest, tails in placed for suffix, c, s in tails]
    return _render(meta, ["pairs", "cross", "nest"], [], fmt, body=sep.join(rows))


# -------------------------------------------------------------------- wick

def _wick_poly(meta: Metadata) -> QTPolynomial:
    from .wickpoly import wick_field, wick_joint, wick_mixed

    if meta["kind"] == "field":
        return wick_field(meta.number("n"))
    if meta["kind"] == "joint":
        labels = meta.number("labels", lambda text: _int_list(text, ";"))
        return wick_joint(labels, meta["eps"])
    return wick_mixed(meta["eps"])


def _wick_artifact(meta: Metadata, fmt: str) -> str:
    poly = _wick_poly(meta)
    rows = [[str(a), str(b), str(c)] for (a, b), c in poly._sorted_terms()]
    text_lines = [str(poly)]
    if "q" in meta and "t" in meta:
        q = _check_finite("q", meta.number("q", float))
        t = _check_finite("t", meta.number("t", float))
        if fmt == "text":  # the one format that writes the value
            value = _finite(meta, "the value", poly.evaluate(q, t))
            text_lines.append(f"value = {_fmt(value)}")
    return _render(meta, ["deg_q", "deg_t", "coeff"], rows, fmt, text_lines)


# -------------------------------------------------------------------- fock

def _fock_artifact(meta: Metadata, fmt: str) -> str:
    from .fock import (
        FockParams, _check_residual_size, _parse_fock_ops, commutator_residual, gram_matrix,
        vacuum_moment,
    )

    params = FockParams(
        d=meta.number("d"), m=meta.number("m"),
        q=meta.number("q", float), t=meta.number("t", float),
    )
    op = meta["op"]
    if op == "moment":
        value = _finite(meta, "the vacuum moment",
                        vacuum_moment(_parse_fock_ops(meta["ops"]), params))
        cell = _fmt(value)
        return _render(meta, ["value"], [[cell]], fmt, [f"value = {cell}"])
    if op == "residual":
        _check_residual_size(params, params.d**2)
        rows = []
        for f in range(1, params.d + 1):
            for g in range(1, params.d + 1):
                r = _finite(meta, f"the residual at f={f}, g={g}",
                            commutator_residual(f, g, params))
                rows.append([str(f), str(g), _fmt(r)])
        text_lines = [f"f={f} g={g} residual={r}" for f, g, r in rows]
        return _render(meta, ["f", "g", "residual"], rows, fmt, text_lines)
    if op == "gram":
        import numpy as np

        gram = gram_matrix(meta.number("degree"), params)
        if not np.isfinite(gram).all():
            raise _overflow(meta, "the Gram matrix")
        eigs = np.linalg.eigvalsh(gram)
        rows = [[str(k), _fmt(v)] for k, v in enumerate(eigs)]
        text_lines = [f"eig[{k}] = {v}" for k, v in rows]
        return _render(meta, ["index", "eigenvalue"], rows, fmt, text_lines)
    raise ValidationError(f"unknown fock op {op!r}")


# ------------------------------------------------------------------ coeffs

def _chain_params(meta: Metadata) -> tuple[int, float, float, int]:
    return (meta.number("n"), meta.number("q", float), meta.number("t", float),
            meta.number("seed"))


def _coeffs_artifact(meta: Metadata, fmt: str) -> str:
    import numpy as np

    from .coeffs import MAX_LISTED_SITES, sampled_table

    n, q, t, seed = _chain_params(meta)
    if "lookup" in meta:
        try:
            e1, e2, i, j = (x.strip() for x in meta["lookup"].split(","))
            site_i, site_j = int(i), int(j)
        except ValueError:
            raise ValidationError(f"--lookup {meta['lookup']!r} is not left,right,i,j") from None
        value = _finite(meta, f"mu_({e1},{e2})({i},{j})",
                        sampled_table(n, q, t, seed).lookup(e1, e2, site_i, site_j))
        return _render(
            meta,
            ["left", "right", "i", "j", "value"],
            [[e1, e2, i, j, _fmt(value)]],
            fmt,
            [f"mu_({e1},{e2})({i},{j}) = {_fmt(value)}"],
        )
    if n > MAX_LISTED_SITES:
        raise SizeLimitError(f"listing {n} sites exceeds the {MAX_LISTED_SITES}-site cap")
    table = sampled_table(n, q, t, seed)
    table.packed(n)  # the whole table, drawn once before the rows read it
    # n site indices and the two sampled values -1.0 and +1.0, each rendered
    # once: row (i, j) reads first[i] + cells[(mu > 0) * (n + 1) + j], as fmt
    # lays out a row
    if fmt == "text":
        start, between, mid, end, sep = "mu(", ",", ") = ", "", "\n"
    else:
        start, between, end, sep = _ROW[fmt]
        mid = between
    first = [start + str(i) + between for i in range(n + 1)]
    second = [str(j) + mid for j in range(n + 1)]
    values = [_fmt(x) + end for x in (-1.0, 1.0)]
    cells = [s + v for v in values for s in second]
    sites = np.arange(n + 1)
    rows = []
    # a block of rows of about 8192 pairs per read, which costs what a read
    # of one row does; no array over all pairs stays alive
    step = max(1, 8192 // n)
    for a in range(1, n, step):
        block = np.arange(a, min(a + step, n))
        # row i of the block at every column j > a: a pair at or below the
        # diagonal reads (i, i + 1) instead, and the row's slice drops it
        j = np.maximum(sites[a + 1:], block[:, None] + 1)
        index = (table._read(block[:, None], j) > 0) * (n + 1) + j
        for r, i in enumerate(block.tolist()):
            row = map(cells.__getitem__, index[r, r:].tolist())
            rows.append(first[i] + (sep + first[i]).join(row))
    return _render(meta, ["i", "j", "mu"], [], fmt, body=sep.join(rows) if rows else None)


# ---------------------------------------------------------------------- jw

def _image_cells(image: Optional[tuple[float, int]]) -> list[str]:
    """The coefficient and bit cells of a dump where a slot maps a basis
    state, or none twice where it kills the state."""
    return ["none", "none"] if image is None else [_fmt(image[0]), str(image[1])]


def _ket(coeff: str, bit: str) -> str:
    """Those cells in a text dump: the coefficient and its ket, or none."""
    return coeff if bit == "none" else f"{coeff} |{bit}>"


def _jw_artifact(meta: Metadata, fmt: str) -> str:
    from .coeffs import sampled_table
    from .jw import _parse_sites, build_jw, check_commutation, vacuum_expectation

    n, q, t, seed = _chain_params(meta)
    table = sampled_table(n, q, t, seed)
    op = meta["op"]
    if op == "expectation":
        value = _finite(meta, "the vacuum expectation",
                        vacuum_expectation(_parse_sites(meta["ops"]), n, table))
        return _render(meta, ["value"], [[_fmt(value)]], fmt, [f"value = {_fmt(value)}"])
    if op == "verify":
        report = check_commutation(n, table)
        rows = [[str(report.n), _fmt(report.max_deviation), str(len(report.failures))]]
        text_lines = [
            f"sites = {report.n}",
            f"max deviation = {_fmt(report.max_deviation)}",
            f"failures = {len(report.failures)}",
        ]
        return _render(meta, ["n", "max_deviation", "failures"], rows, fmt, text_lines)
    if op == "dump":
        sites = _parse_sites(meta["site"])
        if len(sites) != 1:
            raise ValidationError(f"--dump-op takes one site, got {meta['site']!r}")
        [(site, adjoint)] = sites
        operator = build_jw(n, site, table, adjoint)
        if fmt == "json":  # an image is a (coefficient, bit) array, or null
            slots = [{"empty": empty, "occupied": occupied} for empty, occupied in operator.slots]
            return _json({"metadata": meta, "scalar": operator.scalar, "slots": slots})
        # one row per slot; a chain element's scalar is 1.0, which only json
        # spells out
        rows = [[str(k), *_image_cells(empty), *_image_cells(occupied)]
                for k, (empty, occupied) in enumerate(operator.slots, start=1)]
        text_lines = [f"slot {k}: |0> -> {_ket(*row[1:3])}, |1> -> {_ket(*row[3:])}"
                      for k, row in enumerate(rows, start=1)]
        header = ["slot", "empty_coeff", "empty_bit", "occupied_coeff", "occupied_bit"]
        return _render(meta, header, rows, fmt, text_lines)
    raise ValidationError(f"unknown jw op {op!r}")


# --------------------------------------------------------------------- clt

def _clt_config(meta: Metadata) -> ExperimentConfig:
    from .clt import ExperimentConfig
    from .pairings import _parse_pairing

    pairing = _parse_pairing(meta["pairing"]) if "pairing" in meta else None
    return ExperimentConfig(
        mode=meta["mode"],
        eps=meta["eps"],
        q=meta.number("q", float),
        t=meta.number("t", float),
        ns=meta.number("ns", _int_list),
        seed=meta.number("seed"),
        pairing=pairing,
    )


def _clt_artifact(meta: Metadata, fmt: str) -> str:
    from .clt import convergence_experiment

    report = convergence_experiment(_clt_config(meta))
    cfg = report.config
    quantity = "the moment" if cfg.mode == "moment" else "the estimate"
    for row in report.rows:
        _finite(meta, f"{quantity} at N={row.n}", row.value)
        if row.target is not None:
            _finite(meta, "the target", row.target)
            _finite(meta, f"the error at N={row.n}", row.abs_err)
    header = ["N", "eps", "q", "t", "seed", "mode", "value", "target", "abs_err"]
    if fmt == "json":  # the rows keep their numbers typed
        rows = [dict(zip(header, (row.n, cfg.eps, cfg.q, cfg.t, cfg.seed, cfg.mode, row.value,
                                  row.target, row.abs_err))) for row in report.rows]
        return _json({"metadata": meta, "rows": rows})
    cells = [cfg.eps, _fmt(cfg.q), _fmt(cfg.t), str(cfg.seed), cfg.mode]
    rows = [[str(row.n), *cells]
            + ["none" if x is None else _fmt(x) for x in (row.value, row.target, row.abs_err)]
            for row in report.rows]
    lines = [f"N={n} value={v} target={g} abs_err={e}" for n, *_, v, g, e in rows]
    return _render(meta, header, rows, fmt, lines)


ARTIFACTS: dict[str, Callable[[Metadata, str], str]] = {
    "pairings": _pairings_artifact,
    "wick": _wick_artifact,
    "fock": _fock_artifact,
    "coeffs": _coeffs_artifact,
    "jw": _jw_artifact,
    "clt": _clt_artifact,
}


def _artifact(meta: Metadata, fmt: str) -> str:
    """The artifact of meta's command, a csv one refused before any work if a
    metadata value holds a line break.  Finite q and t can still take a float
    past float64's range (t**k in a weight, say): that is a user error."""
    command = meta["command"]
    broken = [key for key, value in meta.items() if "\n" in value]
    if broken and fmt == "csv":  # _preamble reads a value up to its line's end
        raise ValidationError(f"csv metadata entry {broken[0]!r} holds a line break")
    try:
        return ARTIFACTS[command](meta, fmt)
    except OverflowError:
        raise _overflow(meta, "the result") from None


# ------------------------------------------------------------------- check

def _parse_artifact(text: str) -> tuple[Metadata, str]:
    """Extract (metadata, format) from an emitted csv or json artifact."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # decode only the metadata object: whatever it holds, the artifact
        # passes only if a fresh render of it matches byte for byte
        tag = '"metadata": '
        at = text.find(tag)
        meta = json.JSONDecoder().raw_decode(text, at + len(tag))[0] if at >= 0 else None
        if not isinstance(meta, dict):
            raise ValidationError("json artifact has no 'metadata' object; cannot re-check")
        for key, value in meta.items():
            if not isinstance(value, str):  # as every csv value is
                raise ValidationError(f"metadata entry {key!r} is malformed: {value!r}")
        return Metadata(meta), "json"
    meta = _preamble(text)
    if not meta:
        raise ValidationError("file carries no metadata preamble; cannot re-check")
    return meta, "csv"


def _preamble(text: str) -> Metadata:
    """The `# key: value` lines that open text, each read up to the "\n" that
    ends it, as _render writes them."""
    meta = Metadata()
    start = 0
    while text.startswith("# ", start):
        end = text.find("\n", start)
        if end < 0:
            break
        key, _, value = text[start + 2:end].partition(": ")
        meta[key] = value
        start = end + 1
    return meta


def run_check(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read artifact {path}: {exc}") from None
    meta, fmt = _parse_artifact(text)
    command = meta.get("command")
    if command not in ARTIFACTS:
        raise ValidationError(f"metadata names unknown command {command!r}")
    fresh = _artifact(meta, fmt)
    if fresh != text:
        why = f"artifact {path} does not match a fresh run of {command}"
        version = meta.get("version")
        if version is not None and version != __version__:
            why += f"; it names version {version}, and this is version {__version__}"
        raise ValidationError(why)
    return f"ok: {path}"


# --------------------------------------------------------------- interface

def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValidationError(f"config line {line!r} is not key=value")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    return out


def _merge_config(argv: list[str]) -> list[str]:
    """Inject config-file entries as flags after the subcommand; explicit flags
    stay later on the line, so argparse lets them win."""
    path = None
    for k, token in enumerate(argv):
        if token == "--config" and k + 1 < len(argv):
            path = argv[k + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None or not argv:
        return argv
    present = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    extra: list[str] = []
    for key, value in _load_config_file(path).items():
        if key == "config" or f"--{key}" in present:
            continue
        if value.lower() == "true":
            extra.append(f"--{key}")
        elif value.lower() == "false":
            continue
        else:
            # one token: a value that starts with '-' is no flag
            extra.append(f"--{key}={value}")
    return [argv[0]] + extra + argv[1:]


class _Parser(argparse.ArgumentParser):
    """Reads a negative token in exponent form (`--q -1e-3`) as a value, not an option."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_common(sub: argparse.ArgumentParser, default_format: str = "text") -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default=default_format)
    sub.add_argument("--out", help="write the artifact to this path instead of stdout")
    sub.add_argument("--config", help="key=value file supplying defaults for flags")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qtwick",
        description="pairing statistics, two-parameter Wick sums, and their finite-size models",
    )
    parser.add_argument("--version", action="version", version=f"qtwick {__version__}")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="verify a previously emitted csv/json artifact byte-for-byte",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("pairings", help="enumerate pairings with crossing/nesting counts")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("wick", help="pairing-sum polynomials (note: quote patterns like '11**')")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", help="letter pattern over 1 and *")
    group.add_argument("--field", type=int, dest="n", metavar="FIELD",
                       help="number of pairs for the single-letter sum")
    p.add_argument("--labels", help="comma-separated labels, pairs must match")
    p.add_argument("--q", type=float)
    p.add_argument("--t", type=float)
    _add_common(p)

    p = subs.add_parser("fock", help="truncated-algebra moments, residuals, Gram spectra")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ops", help="comma list of c<i>, a<i>, s<i>, n tokens")
    group.add_argument("--residual", action="store_true")
    group.add_argument("--gram", type=int, dest="degree", metavar="DEGREE")
    _add_common(p)

    p = subs.add_parser("coeffs", help="sample coefficient tables, look up derived entries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lookup", help="left,right,i,j (quote: letters include *)")
    _add_common(p)

    p = subs.add_parser("jw", help="chain-model expectations and relation checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ops", help="comma list of sites, * marks the adjoint (quote it)")
    group.add_argument("--verify", action="store_true")
    group.add_argument("--dump-op", dest="site", metavar="SITE",
                       help="site (append * for the adjoint)")
    _add_common(p)

    p = subs.add_parser("clt", help="convergence experiments against limiting targets")
    p.add_argument("--mode", choices=("moment", "lambda"), required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ns", required=True, help="comma list of sizes, increasing")
    p.add_argument("--pairing", help="pairs as w-z, comma separated (lambda mode)")
    _add_common(p, default_format="csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main() call:
    parsing leaves no state behind in it."""
    return build_parser()


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    raw = os.environ.get("QTWICK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"QTWICK_SEED={raw!r} is not an integer") from None


# the parsed entries that shape no artifact, and the op that a fock or jw
# group flag selects, keyed by its command and dest
_NOT_META = ("check", "command", "format", "out", "config")
_OPS = {("fock", "ops"): "moment", ("fock", "residual"): "residual", ("fock", "degree"): "gram",
        ("jw", "ops"): "expectation", ("jw", "verify"): "verify", ("jw", "site"): "dump"}


def _pairing_text(text: str) -> str:
    from .pairings import _parse_pairing

    return ";".join(f"{w}-{z}" for w, z in _parse_pairing(text).pairs)


# where str would not do, a value spelled as its engine reads it: wick's labels,
# clt's sizes (refused as _clt_config would) and pairs, so `--ns "10, 20"` is 10,20
_SPELL: dict[str, Callable[[str], str]] = {
    "labels": lambda text: ";".join(x.strip() for x in text.split(",")),
    "ns": lambda text: ",".join(map(str, Metadata(ns=text).number("ns", _int_list))),
    "pairing": _pairing_text,
}


def _meta_from_args(args: argparse.Namespace) -> Metadata:
    """The command, then each flag given, keyed by dest in declaration order."""
    command = args.command
    meta = Metadata(command=command, version=__version__)
    if command == "wick":
        if args.n is not None and args.labels is not None:
            raise ValidationError("--labels labels an --eps pattern; --field takes none")
        if (args.q is None) != (args.t is None):
            raise ValidationError("--q and --t must be given together")
        meta["kind"] = ("field" if args.n is not None
                        else "mixed" if args.labels is None else "joint")
    for key, value in vars(args).items():
        if key == "seed":
            value = _resolve_seed(value)
        if value is None or value is False or key in _NOT_META:
            continue
        if (command, key) in _OPS:
            meta["op"] = _OPS[command, key]
        if value is not True:  # a store_true flag is its op alone
            meta[key] = _fmt(value) if isinstance(value, float) else _SPELL.get(key, str)(value)
    return meta


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _merge_config(argv)
        args = parser.parse_args(argv)
        if args.check:
            print(run_check(args.check))
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        text = _artifact(_meta_from_args(args), args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write {args.out}: {exc}") from None
        else:
            sys.stdout.write(text)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
