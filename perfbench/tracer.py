"""Traced runs: spans around the package's public entry points, from outside it.

`Tracer.install()` replaces each name listed in SPANNED by a wrapper that
records a span (name, start, end, parent span, job id) and each name in
COUNTED by a wrapper that only counts calls.  Functions are replaced in
every loaded `qtwick.*` namespace that binds them, because modules import
names from each other (`sample_base` lives in `coeffs` and is bound in `clt`
and `cli` too); methods are replaced on their class.  A listed name the
package no longer has is skipped and reported in `missing`.

Spans stay in memory until `write()`.  Self time is a span's duration minus
that of its child spans.  Growth of ru_maxrss is read at every span boundary
and charged to the innermost span open while it happened.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional, TextIO


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _pairings_of(eps: str) -> int:
    return _double_factorial(len(eps) - 1) if len(eps) % 2 == 0 else 0


# metric name -> (attribute path in qtwick, counters derived from (arguments, result))
Counters = Callable[[dict[str, Any], Any], dict[str, float]]
SPANNED: dict[str, tuple[str, Optional[Counters]]] = {
    "cli.main": ("cli.main", None),
    "clt.convergence_experiment": ("clt.convergence_experiment", None),
    "clt.partial_sum_moment": (
        "clt.partial_sum_moment",
        lambda a, r: {"clt.partial_sum_moment.site_steps": a["n_sites"] * len(a["eps"])},
    ),
    "clt.limit_coefficient_estimate": (
        "clt.limit_coefficient_estimate",
        lambda a, r: {"clt.limit_coefficient_estimate.tuples": a["n_sites"] ** a["pairing"].n},
    ),
    "coeffs.sample_base": (
        "coeffs.sample_base",
        lambda a, r: {"coeffs.sample_base.pairs": a["n"] * (a["n"] - 1) // 2},
    ),
    "coeffs.CoefficientTable": ("coeffs.CoefficientTable.__init__", None),
    "coeffs.covers": ("coeffs.CoefficientTable.covers", None),
    "coeffs.base_matrix": (
        "coeffs.CoefficientTable.base_matrix",
        lambda a, r: {"coeffs.base_matrix.bytes": 8 * a["n"] ** 2},
    ),
    "jw.build_jw": ("jw.build_jw", None),
    "jw.vacuum_expectation": ("jw.vacuum_expectation", None),
    "jw.check_commutation": ("jw.check_commutation", None),
    "wickpoly.wick_field": (
        "wickpoly.wick_field",
        lambda a, r: {"wickpoly.pairings": _double_factorial(2 * a["n"] - 1)},
    ),
    "wickpoly.wick_mixed": (
        "wickpoly.wick_mixed",
        lambda a, r: {"wickpoly.pairings": _pairings_of(a["eps"])},
    ),
    "wickpoly.wick_joint": (
        "wickpoly.wick_joint",
        lambda a, r: {"wickpoly.pairings": _pairings_of(a["eps"])},
    ),
    "fock.gram_matrix": (
        "fock.gram_matrix",
        lambda a, r: {"fock.gram_matrix.entries": r.size},
    ),
    "fock.vacuum_moment": ("fock.vacuum_moment", None),
    "fock.commutator_residual": ("fock.commutator_residual", None),
}

# every counter the SPANNED entries derive
COUNTER_NAMES = (
    "clt.partial_sum_moment.site_steps",
    "clt.limit_coefficient_estimate.tuples",
    "coeffs.sample_base.pairs",
    "coeffs.base_matrix.bytes",
    "wickpoly.pairings",
    "fock.gram_matrix.entries",
)

# hot leaves: counted, never timed
COUNTED: dict[str, str] = {
    "coeffs.lookup": "coeffs.CoefficientTable.lookup",
    "coeffs.base_value": "coeffs.CoefficientTable.base_value",
    "pairings.cross_nest": "pairings.cross_nest",
}


_ABSENT = object()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rss_kb: Counter = Counter()
        self.missing: list[str] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._rss_last = _maxrss_kb()
        self._restore: list[tuple[Any, str, Any]] = []
        self._cache: Any = None

    # ---------------------------------------------------------- recording

    def _rss_tick(self) -> None:
        now = _maxrss_kb()
        if now > self._rss_last:
            owner = self.spans[self._stack[-1]][0] if self._stack else "(outside spans)"
            self.rss_kb[owner] += now - self._rss_last
            self._rss_last = now

    def _span_wrapper(self, name: str, fn: Callable, counters: Optional[Counters]) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            self._rss_tick()
            index = len(self.spans)
            record = [name, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._rss_tick()
                self._stack.pop()
            if counters is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    extra = counters(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # the signature changed under a refactor; keep the span
                    self.counts[name + ".counter_errors"] += 1
                else:
                    self.counts.update(extra)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every listed name that exists, until `uninstall()`."""
        import qtwick

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qtwick" or k.startswith("qtwick."))]
        targets = [(name, path, counters) for name, (path, counters) in SPANNED.items()]
        targets += [(name, path, None) for name, path in COUNTED.items()]
        for name, path, counters in targets:
            owner: Any = qtwick
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                self.missing.append(name)
                continue
            if name in COUNTED:
                wrapped = self._count_wrapper(name, original)
            else:
                wrapped = self._span_wrapper(name, original, counters)
            if name == "pairings.cross_nest":
                self._cache = original
            if inspect.isclass(owner):
                self._patch(owner, parts[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def cache_stats(self) -> Optional[tuple[int, int]]:
        """(hits, misses) of the cross_nest cache, if it has one."""
        info = getattr(self._cache, "cache_info", None)
        if info is None:
            return None
        stats = info()
        return stats.hits, stats.misses

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Total self time by span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def write(self, fh: TextIO, pass_id: int) -> None:
        """Append the spans as JSON lines tagged with `pass_id`."""
        for k, (name, start, end, parent, job) in enumerate(self.spans):
            fh.write(json.dumps({"pass": pass_id, "id": k, "name": name, "start": start,
                                 "end": end, "parent": parent, "job": job}) + "\n")
