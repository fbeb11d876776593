"""Output checks: stored references and seed-independent invariants.

A reference summarizes one csv artifact: its header, its row count, a
sha256 over every cell that must match exactly (polynomial coefficients,
pairing counts, indices, +-1 tables, patterns) and the list of float cells,
which match when |a - b| <= 1e-9 * max(1, |b|).  References were recorded
from the package at the commit that introduced the benchmark, for the seeds
listed in refs/*.json; a seed without one is checked on invariants only.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Optional

from workloads import SEEDED, Job

REFS = Path(__file__).resolve().parent / "refs"

# columns holding computed floats; every other cell is compared exactly
FLOAT_COLUMNS = frozenset(
    {"value", "target", "abs_err", "eigenvalue", "residual", "max_deviation"}
)
REL_TOL = 1e-9


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata preamble, header, rows) of a csv artifact."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(": ")
        meta[key] = value
        k += 1
    if k >= len(lines):
        raise ValueError("artifact has no header line")
    header = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("artifact row width differs from its header")
    return meta, header, rows


def summarize(text: str) -> dict:
    """Reference record of a csv artifact."""
    _, header, rows = parse_csv(text)
    floats = []
    masked = []
    for row in rows:
        cells = []
        for name, cell in zip(header, row):
            if name in FLOAT_COLUMNS and cell != "none":
                floats.append(float(cell))
                cells.append("#")
            else:
                cells.append(cell)
        masked.append(",".join(cells))
    digest = hashlib.sha256("\n".join(masked).encode()).hexdigest()
    return {"header": header, "rows": len(rows), "exact_sha256": digest, "floats": floats}


def compare(got: dict, ref: dict) -> Optional[str]:
    """None when a summary matches its reference, else the first difference."""
    for key in ("header", "rows", "exact_sha256"):
        if got[key] != ref[key]:
            return f"{key} differs"
    if len(got["floats"]) != len(ref["floats"]):
        return "float count differs"
    for k, (a, b) in enumerate(zip(got["floats"], ref["floats"])):
        if not abs(a - b) <= REL_TOL * max(1.0, abs(b)):
            return f"float {k}: {a!r} vs reference {b!r}"
    return None


def load_refs(workload: str, seed: int) -> Optional[dict[str, dict]]:
    """Stored references by job label, or None for a seed never recorded."""
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())["by_seed"]
    key = str(seed) if workload in SEEDED else "any"
    return stored.get(key)


# ------------------------------------------------------------- invariants

def _pair_cross_nest(pairing: str) -> tuple[int, int]:
    pairs = sorted(tuple(sorted(int(x) for x in p.split("-"))) for p in pairing.split(";"))
    cross = nest = 0
    for k, (w1, z1) in enumerate(pairs):
        for w2, z2 in pairs[k + 1:]:
            if w2 < z1 < z2:
                cross += 1
            elif z2 < z1:
                nest += 1
    return cross, nest


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def invariant_problem(
    job: Job, text: str, moment_target: Callable[[str, float, float], float]
) -> Optional[str]:
    """Seed-independent checks of one artifact: finite floats, the clt target,
    zero `jw --verify` failures and a +-1 coefficient table.  `moment_target`
    gives the limiting moment of a pattern at (q, t)."""
    if job.argv[0] == "--check":
        return None if text.startswith("ok: ") else "check did not report ok"
    meta, header, rows = parse_csv(text)
    for row in rows:
        for name, cell in zip(header, row):
            if name in FLOAT_COLUMNS and cell != "none" and not math.isfinite(float(cell)):
                return f"non-finite {name} {cell}"
    col = {name: k for k, name in enumerate(header)}
    command = job.argv[0]
    if command == "clt":
        q, t = float(meta["q"]), float(meta["t"])
        if meta["mode"] == "moment":
            want: Optional[float] = moment_target(meta["eps"], q, t)
        else:
            eps = meta["eps"]
            pairs = [p.split("-") for p in meta["pairing"].split(";")]
            default = all(eps[int(w) - 1] == "1" and eps[int(z) - 1] == "*" for w, z in pairs)
            cross, nest = _pair_cross_nest(meta["pairing"])
            want = q**cross * t**nest if default else None
        for row in rows:
            got = row[col["target"]]
            if want is None and got != "none":
                return f"target {got} where none is defined"
            if want is not None and (got == "none" or not _close(float(got), want)):
                return f"target {got}, expected {want!r}"
    elif command == "jw" and "--verify" in job.argv:
        if any(row[col["failures"]] != "0" for row in rows):
            return "commutation relations fail"
    elif command == "coeffs":
        if any(row[col["mu"]] not in ("1", "-1") for row in rows):
            return "coefficient outside {+1, -1}"
    return None
