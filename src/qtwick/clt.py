"""Finite-size moments of normalized sums, the pairing-coefficient estimator,
and deterministic convergence experiments.

The normalized sum over the first N chain elements has vacuum moments that
approach pairing sums weighted by q^crossings * t^nestings; the estimator
averages the closed-form coefficient product over all index tuples in one
pairing class.  Experiments sample a single coefficient table at the largest
requested size and evaluate every smaller size on its restriction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .coeffs import (
    MAX_TABLE_SITES,
    CoefficientTable,
    pair_limit_monomial,
    pair_pattern_is_default,
    sampled_table,
)
from .errors import SizeLimitError, ValidationError
from .pairings import PairPartition, cross_nest
from .wickpoly import LETTERS, check_eps, wick_mixed

MAX_SUM_SIZE = 400
MAX_SUM_LENGTH = 8
MAX_ESTIMATE_TUPLES = 10**7
MAX_ESTIMATE_PAIRS = 3


def _set_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _apply_sum(
    state: dict[int, float], letter: str, mu: np.ndarray, sq: float, n: int
) -> dict[int, float]:
    """Apply the sum over sites 1..n of the chain element (letter '1') or its
    adjoint (letter '*') to a sparse occupation state."""
    out: dict[int, float] = {}
    if letter == "*":
        for mask, amp in state.items():
            bits = _set_bits(mask)
            lead = amp * sq ** len(bits)
            prods = np.ones(n)
            for j in bits:
                prods[j + 1:] *= mu[j, j + 1:]
            for i in range(n):
                if (mask >> i) & 1:
                    continue
                new = mask | (1 << i)
                s = out.get(new, 0.0) + lead * prods[i]
                if s == 0.0:
                    out.pop(new, None)
                else:
                    out[new] = s
    else:
        for mask, amp in state.items():
            bits = _set_bits(mask)
            lead = amp * sq ** (len(bits) - 1)
            for pos, i in enumerate(bits):
                coeff = lead
                for j in bits[:pos]:
                    coeff *= mu[j, i]
                new = mask ^ (1 << i)
                s = out.get(new, 0.0) + coeff
                if s == 0.0:
                    out.pop(new, None)
                else:
                    out[new] = s
    return out


def partial_sum_moment(n_sites: int, eps: str, table: CoefficientTable) -> float:
    """Vacuum moment of the normalized sum of the first n_sites chain elements,
    with one factor per letter of eps (product order, '1' element / '*' adjoint)."""
    check_eps(eps)
    r = len(eps)
    if n_sites < 1:
        raise ValidationError("need at least one site")
    if n_sites > MAX_SUM_SIZE:
        raise SizeLimitError(f"{n_sites} sites exceed the {MAX_SUM_SIZE}-site cap")
    if r > MAX_SUM_LENGTH:
        raise SizeLimitError(f"moment order {r} exceeds {MAX_SUM_LENGTH}")
    if n_sites >= 2 and not table.covers(n_sites):
        raise ValidationError(f"table does not cover all pairs up to {n_sites}")
    mu = table.base_matrix(n_sites)
    sq = float(np.sqrt(table.t))
    state = {0: 1.0}
    for letter in reversed(eps):
        state = _apply_sum(state, letter, mu, sq, n_sites)
        if not state:
            break
    vac = float(state.get(0, 0.0))
    if r % 2 == 0:
        return vac / float(n_sites ** (r // 2))
    return vac / float(n_sites) ** (r / 2)


def _lookup_matrix(table: CoefficientTable, e1: str, e2: str, n: int) -> np.ndarray:
    """Dense [n, n] matrix of lookup(e1, e2, x, y) for 1-based x != y; the
    diagonal is filled with ones and must not be read."""
    u = table.packed(n)
    cols, rows = np.tril_indices(n, -1)  # j - 1 and i - 1, in pair-rank order
    t = table.t
    out = np.ones((n, n))
    if (e1, e2) == ("*", "*"):
        out[rows, cols] = u
        out[cols, rows] = 1.0 / u
    elif (e1, e2) == ("*", "1"):
        out[rows, cols] = t * u
        out[cols, rows] = t * u
    elif (e1, e2) == ("1", "1"):
        out[rows, cols] = 1.0 / u
        out[cols, rows] = u
    else:
        out[rows, cols] = 1.0 / (t * u)
        out[cols, rows] = 1.0 / (t * u)
    return out


def _coefficient_factors(
    pairing: PairPartition, eps: str
) -> list[tuple[int, int, str, str]]:
    """Factors of the closed-form coefficient product as (block a, block b,
    letter a, letter b), meaning lookup(letter a, letter b, value_a, value_b)."""
    block = pairing.block_of()
    factors = []
    report = cross_nest(pairing)
    for _, b, c, _ in report.crossings:
        factors.append((block[c], block[b], eps[c - 1], eps[b - 1]))
    for _, b, c, d in report.nestings:
        factors.append((block[d], block[c], eps[d - 1], eps[c - 1]))
        factors.append((block[d], block[b], eps[d - 1], eps[b - 1]))
    return factors


def limit_coefficient_estimate(
    pairing: PairPartition, eps: str, n_sites: int, table: CoefficientTable
) -> float:
    """Average over all tuples in the pairing's class (distinct values per pair,
    values up to n_sites) of the coefficient product indexed by crossings and
    nestings, normalized by n_sites^pairs."""
    check_eps(eps)
    n = pairing.n
    if len(eps) != 2 * n:
        raise ValidationError(
            f"pattern of length {len(eps)} for a pairing of {2 * n} positions"
        )
    if n > MAX_ESTIMATE_PAIRS:
        raise SizeLimitError(f"{n} pairs exceed the {MAX_ESTIMATE_PAIRS}-pair cap")
    if n_sites**n > MAX_ESTIMATE_TUPLES:
        raise SizeLimitError(
            f"{n_sites}^{n} tuples exceed the {MAX_ESTIMATE_TUPLES} cap"
        )
    if n_sites < n:
        raise ValidationError(f"need at least {n} sites for {n} distinct values")
    if n_sites >= 2 and not table.covers(n_sites):
        raise ValidationError(f"table does not cover all pairs up to {n_sites}")
    factors = _coefficient_factors(pairing, eps)
    if n == 1:
        return float(n_sites) / n_sites  # empty product over N tuples
    mats = {}
    for a, b, e1, e2 in factors:
        if (e1, e2) not in mats:
            mats[(e1, e2)] = _lookup_matrix(table, e1, e2, n_sites)
    if n == 2:
        grid = np.ones((n_sites, n_sites))
        for a, b, e1, e2 in factors:
            m = mats[(e1, e2)]
            grid *= m if (a, b) == (1, 2) else m.T
        np.fill_diagonal(grid, 0.0)
        return float(grid.sum()) / n_sites**2
    total = 0.0
    for v1 in range(n_sites):
        grid = np.ones((n_sites, n_sites))  # axes: value of block 2, block 3
        for a, b, e1, e2 in factors:
            m = mats[(e1, e2)]
            if (a, b) == (2, 3):
                grid *= m
            elif (a, b) == (3, 2):
                grid *= m.T
            elif (a, b) == (1, 2):
                grid *= m[v1, :][:, None]
            elif (a, b) == (2, 1):
                grid *= m[:, v1][:, None]
            elif (a, b) == (1, 3):
                grid *= m[v1, :][None, :]
            else:  # (3, 1)
                grid *= m[:, v1][None, :]
        grid[v1, :] = 0.0
        grid[:, v1] = 0.0
        np.fill_diagonal(grid, 0.0)
        total += float(grid.sum())
    return total / n_sites**3


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence run: mode 'moment' or 'lambda', shared (q, t, eps, seed),
    and the increasing list of sizes to evaluate."""

    mode: str
    eps: str
    q: float
    t: float
    ns: tuple[int, ...]
    seed: int
    pairing: Optional[PairPartition] = None

    def validate(self) -> list[str]:
        problems = []
        if self.mode not in ("moment", "lambda"):
            problems.append(f"mode must be 'moment' or 'lambda', got {self.mode!r}")
        if not isinstance(self.eps, str) or not self.eps or any(
            c not in LETTERS for c in self.eps
        ):
            problems.append(f"eps {self.eps!r} must be a nonempty string over '1'/'*'")
        if not (math.isfinite(self.q) and math.isfinite(self.t)):
            problems.append(f"q and t must be finite, got q={self.q}, t={self.t}")
        elif self.t <= 0:
            problems.append(f"need t > 0, got {self.t}")
        elif abs(self.q) > self.t:
            problems.append(f"two-point law needs |q| <= t, got q={self.q}, t={self.t}")
        if not self.ns:
            problems.append("ns must be a nonempty increasing list of sizes")
        elif any(n < 1 for n in self.ns) or list(self.ns) != sorted(set(self.ns)):
            problems.append(f"ns {self.ns!r} must be strictly increasing and positive")
        elif max(self.ns) > MAX_TABLE_SITES:
            problems.append(f"tables are capped at {MAX_TABLE_SITES} sites")
        if self.mode == "moment":
            if self.ns and max(self.ns) > MAX_SUM_SIZE:
                problems.append(f"moments support at most {MAX_SUM_SIZE} sites")
            if len(self.eps) > MAX_SUM_LENGTH:
                problems.append(f"moment order is capped at {MAX_SUM_LENGTH}")
        if self.mode == "lambda":
            if self.pairing is None:
                problems.append("lambda mode needs a pairing")
            else:
                if self.pairing.n > MAX_ESTIMATE_PAIRS:
                    problems.append(
                        f"estimator is capped at {MAX_ESTIMATE_PAIRS} pairs"
                    )
                if isinstance(self.eps, str) and len(self.eps) != self.pairing.size:
                    problems.append(
                        f"eps length {len(self.eps)} != pairing size {self.pairing.size}"
                    )
                if self.ns and self.pairing.n >= 1 and max(self.ns) ** self.pairing.n > MAX_ESTIMATE_TUPLES:
                    problems.append(
                        f"{max(self.ns)}^{self.pairing.n} tuples exceed {MAX_ESTIMATE_TUPLES}"
                    )
        return problems


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    value: float
    target: Optional[float]
    abs_err: Optional[float]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ExperimentRow] = field(default_factory=list)
    version: str = __version__

    def metadata(self) -> dict[str, str]:
        cfg = self.config
        meta = {
            "command": "clt",
            "version": self.version,
            "mode": cfg.mode,
            "eps": cfg.eps,
            "q": _fmt(cfg.q),
            "t": _fmt(cfg.t),
            "seed": str(cfg.seed),
            "ns": ",".join(str(n) for n in cfg.ns),
        }
        if cfg.pairing is not None:
            meta["pairing"] = ";".join(f"{w}-{z}" for w, z in cfg.pairing.pairs)
        return meta

    def to_csv(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.metadata().items()]
        lines.append("N,eps,q,t,seed,mode,value,target,abs_err")
        cfg = self.config
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        str(row.n),
                        cfg.eps,
                        _fmt(cfg.q),
                        _fmt(cfg.t),
                        str(cfg.seed),
                        cfg.mode,
                        _fmt(row.value),
                        "none" if row.target is None else _fmt(row.target),
                        "none" if row.abs_err is None else _fmt(row.abs_err),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata(),
            "rows": [
                {
                    "N": row.n,
                    "eps": self.config.eps,
                    "q": self.config.q,
                    "t": self.config.t,
                    "seed": self.config.seed,
                    "mode": self.config.mode,
                    "value": row.value,
                    "target": row.target,
                    "abs_err": row.abs_err,
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def convergence_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment: a single sampled table at max(ns), each size read off
    the restriction, plus the limiting target when one is defined."""
    problems = config.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    top = max(config.ns)
    table = sampled_table(top, config.q, config.t, config.seed)
    target: Optional[float]
    if config.mode == "moment":
        target = wick_mixed(config.eps).evaluate(config.q, config.t)
    else:
        assert config.pairing is not None
        if pair_pattern_is_default(config.pairing, config.eps):
            target = pair_limit_monomial(config.pairing, config.eps).evaluate(
                config.q, config.t
            )
        else:
            target = None
    report = ExperimentReport(config=config)
    for n in config.ns:
        if config.mode == "moment":
            value = partial_sum_moment(n, config.eps, table)
        else:
            assert config.pairing is not None
            value = limit_coefficient_estimate(config.pairing, config.eps, n, table)
        err = None if target is None else abs(value - target)
        report.rows.append(ExperimentRow(n=n, value=value, target=target, abs_err=err))
    return report
