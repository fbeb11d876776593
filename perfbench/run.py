"""qtwick benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload lambda-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its `src`.
One client sends the workload's jobs back to back through
`qtwick.cli.main([...])` in this process, on one thread of work, and repeats
the job list (one pass) until --seconds have elapsed.  Caches the package
keeps are cleared between passes, so every pass does the work of one fresh
script run.  Every artifact is checked after its pass.

--trace 0 reports the end-to-end metrics:
  wall_s       time of one pass at a reference host speed: the sum over jobs
               of the median over passes of the job's time divided by the
               time of a fixed calibration loop run just before it (about
               ten times a pass), times CALIBRATION_REF_S.  The host is
               shared and its speed drifts by 20-40% within minutes; a job
               and the probe next to it slow down together, so the ratio
               repeats to a few percent while the raw time does not.  The
               raw time (sum of per-job medians) is printed too.
  setup_s      time of a fresh interpreter importing qtwick.cli at a reference
               host speed: the median, over one sample after every pass and
               at least SETUP_IMPORTS, of that time divided by the time a
               fresh interpreter started just before took to import numpy
               alone, times NUMPY_IMPORT_REF_S.  Both imports are the same
               kind of work (file reads, module execution), so the ratio
               cancels the host's drift as wall_s's probe does.
  peak_rss_mb  ru_maxrss of this process
failed_frac (failed jobs / jobs attempted) is printed with them; the final
JSON line carries it as `failed` and `attempted`.

--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of tracer.py, the tracing overhead, and each claimed layer share
from predictions.json next to its measured value.  Spans are written to
.perfbench_out/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without the package source beside it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import refcheck
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "clt", "coeffs", "jw", "wickpoly", "pairings", "fock")
SETUP_IMPORTS = 9  # setup samples at least; one more after every pass
# wall_s is given for a host on which calibration_seconds() takes this long
CALIBRATION_REF_S = 0.005

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qtwick.cli; print(time.perf_counter() - t, qtwick.cli.__file__)"
)
NUMPY_PROBE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
# setup_s is given for a host on which a fresh interpreter imports numpy this fast
NUMPY_IMPORT_REF_S = 0.075

PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "pairs": "count", "rss_growth_mb": "MB",
                   "bytes": "B", "site_steps": "count", "tuples": "count", "entries": "count",
                   "pairings": "count", "hit_ratio": "ratio", "overhead_frac": "ratio"}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _fresh_interpreter(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return proc.stdout


def setup_sample() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import qtwick.cli, and seconds the
    fresh interpreter started just before it took to import numpy alone."""
    numpy_seconds = float(_fresh_interpreter(NUMPY_PROBE))
    seconds, path = _fresh_interpreter(IMPORT_PROBE).split(maxsplit=1)
    if not _from_src(path.strip()):
        raise BenchmarkError(f"qtwick imported from {path.strip()}, not {SRC}")
    return float(seconds), numpy_seconds


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout made without git records none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit,
    }


def import_package() -> None:
    """Import qtwick.cli from this checkout's source, never from elsewhere."""
    if not (SRC / "qtwick" / "cli.py").is_file():
        raise BenchmarkError(f"no package source at {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qtwick.cli

    if not _from_src(qtwick.cli.__file__):
        raise BenchmarkError(f"qtwick imported from {qtwick.cli.__file__}, not {SRC}")


# ------------------------------------------------------------------ passes

def _package_caches() -> list:
    """Every cached function the package binds at module level."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qtwick" or name.startswith("qtwick.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop (dict stores and float sums): a probe
    of how fast the shared host runs this interpreter at the moment."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(15000):
        table[(i, i + 1)] = i * 0.5
        total += table[(i, i + 1)]
    return time.perf_counter() - start


def run_pass(jobs, on_job: Optional[Callable[[int], None]] = None,
             probes: Optional[list[float]] = None):
    """Run the job list once; returns [(seconds, exit code, artifact, stderr)].
    With `probes`, also appends for every job the calibration time measured
    just before it, or before the group of about a tenth of the jobs it is in."""
    import qtwick.cli

    stride = max(1, len(jobs) // 10)
    results = []
    for k, job in enumerate(jobs):
        if probes is not None:
            probes.append(calibration_seconds() if k % stride == 0 else probes[-1])
        if on_job is not None:
            on_job(k)
        out, err = io.StringIO(), io.StringIO()
        argv = job.resolved(str(WORK))
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qtwick.cli.main(argv)
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if job.out is not None and code == 0:
            try:
                text = Path(job.out.replace(workloads.WORK, str(WORK))).read_text()
            except OSError as exc:
                code, text = 1, f"{exc}"
        results.append((elapsed, code, text, err.getvalue()))
    return results


def check_pass(jobs, results, refs: Optional[dict], moment_target) -> list[str]:
    """Problems found in one pass, one line per failed job."""
    problems = []
    for job, (_, code, text, err) in zip(jobs, results):
        if code != 0:
            problems.append(f"{job.label}: exit {code}: {err.strip()}")
            continue
        try:
            problem = refcheck.invariant_problem(job, text, moment_target)
            if problem is None and refs is not None and job.label in refs:
                problem = refcheck.compare(refcheck.summarize(text), refs[job.label])
        except ValueError as exc:
            problem = f"unreadable artifact: {exc}"
        if problem is not None:
            problems.append(f"{job.label}: {problem}")
    return problems


def _job_median_sum(passes: list[list[float]]) -> float:
    return sum(statistics.median(times) for times in zip(*passes))


def wall_at_reference(passes: list[list[float]], probes: list[list[float]]) -> float:
    """Time of one pass at the reference host speed: for every job, the median
    over passes of its time over the calibration time measured next to it."""
    ratios = [[t / p for t, p in zip(times, near)] for times, near in zip(passes, probes)]
    return CALIBRATION_REF_S * _job_median_sum(ratios)


def measure(jobs, refs: Optional[dict], seconds: float, trace: bool,
            after_pass: Optional[Callable[[], None]] = None) -> dict:
    """Run passes for `seconds` (at least one; in trace mode at least one
    traced and one untraced, traced first) and check every artifact."""
    from qtwick.wickpoly import wick_mixed

    WORK.mkdir(exist_ok=True)
    targets: dict = {}

    def moment_target(eps: str, q: float, t: float) -> float:
        if (eps, q, t) not in targets:
            targets[(eps, q, t)] = wick_mixed(eps).evaluate(q, t)
        return targets[(eps, q, t)]

    caches = _package_caches()
    plain: list[list[float]] = []
    probes: list[list[float]] = []
    traced: list[list[float]] = []
    tracers: list = []
    problems: list[str] = []
    first_texts: Optional[list[str]] = None
    cache_hits = cache_total = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and plain and (traced or not trace):
            break
        for cache in caches:
            cache.cache_clear()
        use_tracer = trace and len(traced) <= len(plain)
        if use_tracer:
            tr = tracer.Tracer()
            tr.install()
            before = tr.cache_stats()
            try:
                results = run_pass(jobs, lambda k: setattr(tr, "job", f"{len(tracers)}:{k}"))
            finally:
                tr.uninstall()
            after = tr.cache_stats()
            if before is not None and after is not None:
                cache_hits += after[0] - before[0]
                cache_total += after[0] + after[1] - before[0] - before[1]
            tracers.append(tr)
            traced.append([r[0] for r in results])
        else:
            probes.append([])
            results = run_pass(jobs, probes=probes[-1])
            plain.append([r[0] for r in results])
        problems += check_pass(jobs, results, refs, moment_target)
        texts = [r[2] for r in results]
        if first_texts is None:
            first_texts = texts
        elif texts != first_texts:
            bad = [j.label for j, a, b in zip(jobs, texts, first_texts) if a != b]
            problems += [f"{label}: artifact bytes differ between passes" for label in bad]
        if after_pass is not None:
            after_pass()
    return {
        "plain": plain,
        "probes": probes,
        "traced": traced,
        "tracers": tracers,
        "cache_hit_ratio": cache_hits / cache_total if cache_total else 0.0,
        "problems": problems,
        "attempted": len(jobs) * (len(plain) + len(traced)),
    }


# ----------------------------------------------------------------- metrics

def layer_metrics(run: dict) -> dict[str, float]:
    """Per-layer metrics: per-pass medians over the traced passes."""
    per_pass = []
    for tr in run["tracers"]:
        values: dict[str, float] = {}
        self_times = tr.self_times()
        for name in tracer.SPANNED:
            values[name + ".calls"] = tr.counts.get(name + ".calls", 0)
            values[name + ".self_s"] = self_times.get(name, 0.0)
        for name in tracer.COUNTED:
            values[name + ".calls"] = tr.counts.get(name + ".calls", 0)
        for name in tracer.COUNTER_NAMES:
            values[name] = tr.counts.get(name, 0)
        per_pass.append(values)
    out = {k: statistics.median(values[k] for values in per_pass) for k in per_pass[0]}
    out["coeffs.sample_base.rss_growth_mb"] = sum(
        tr.rss_kb.get("coeffs.sample_base", 0) for tr in run["tracers"]) / 1024
    out["pairings.cross_nest.hit_ratio"] = run["cache_hit_ratio"]
    # the first pass is traced (so memory growth is attributed) and runs cold;
    # leave it out of the overhead when a later traced pass exists
    traced = run["traced"][1:] or run["traced"]
    out["trace.overhead_frac"] = _job_median_sum(traced) / _job_median_sum(run["plain"]) - 1.0
    return out


def layer_shares(run: dict, prefixes) -> dict[str, float]:
    """Median over traced passes of the share of pass time spent in spans
    named by each prefix (a module such as `coeffs`, or one span name)."""
    shares: dict[str, list[float]] = {p: [] for p in prefixes}
    for tr, times in zip(run["tracers"], run["traced"]):
        self_times = tr.self_times()
        wall = sum(times)
        for p in prefixes:
            spent = sum(v for name, v in self_times.items()
                        if name == p or name.startswith(p + "."))
            shares[p].append(spent / wall)
    return {p: statistics.median(v) for p, v in shares.items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    import_package()
    jobs = workloads.build(args.workload, args.seed)
    refs = refcheck.load_refs(args.workload, args.seed)
    setup_sample()  # writes the bytecode cache; not measured
    # samples spread over the run see the host's load as the passes do
    samples: list[tuple[float, float]] = []
    run = measure(jobs, refs, args.seconds, bool(args.trace),
                  after_pass=lambda: samples.append(setup_sample()))
    while len(samples) < SETUP_IMPORTS:
        samples.append(setup_sample())
    setup_raw = statistics.median(q for q, _ in samples)
    setup_s = NUMPY_IMPORT_REF_S * statistics.median(q / n for q, n in samples)
    failed = len(run["problems"])
    attempted = run["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(run['plain'])} untraced + {len(run['traced'])} traced  "
          f"jobs/pass {len(jobs)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if refs is None:
        print(f"check: no stored reference for seed {args.seed} of {args.workload}; "
              "seeded values went uncompared, invariants only")
    else:
        compared = sum(job.label in refs for job in jobs)
        print(f"check: {compared} of {len(jobs)} jobs compared with stored references, "
              "all checked on invariants")
    for line in run["problems"][:20]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.6g} fraction  ({failed} of {attempted} jobs failed)")

    if not args.trace:
        passes = [sum(times) for times in run["plain"]]
        raw = _job_median_sum(run["plain"])
        probe = statistics.median(p for pass_probes in run["probes"] for p in pass_probes)
        metrics = {
            "wall_s": _metric(wall_at_reference(run["plain"], run["probes"]), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"wall_s {metrics['wall_s']['value']:.4f} s  (at the reference host speed; "
              f"measured {raw:.4f} s as per-job medians over {len(passes)} passes, pass times "
              f"{min(passes):.3f} .. {max(passes):.3f} s; calibration probe median "
              f"{probe * 1e3:.3f} ms)")
        print(f"setup_s {setup_s:.4f} s  (at the reference host speed; measured {setup_raw:.4f} s "
              f"as the median of {len(samples)} fresh imports)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    else:
        values = layer_metrics(run)
        metrics = {k: _metric(v, PER_LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in values.items()}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
        missing = sorted({n for tr in run["tracers"] for n in tr.missing})
        if missing:
            print("trace: names not found in the package, no spans: " + ", ".join(missing))
        errors = sorted({k for tr in run["tracers"] for k in tr.counts if k.endswith("_errors")})
        if errors:
            print("trace: counters that could not be derived: " + ", ".join(errors))
        growth = sum((tr.rss_kb for tr in run["tracers"]), start=Counter())
        print("peak RSS growth by innermost span: " + ", ".join(
            f"{n} {kb / 1024:.1f} MB" for n, kb in growth.most_common()))
        claims = json.loads((HERE / "predictions.json").read_text())["workloads"]
        claims = claims[args.workload]["claims"]
        names = set(MODULES) | set(tracer.SPANNED) | {p for c in claims for p in c["layers"]}
        shares = layer_shares(run, sorted(names))
        print("self-time share by module: " + ", ".join(
            f"{m} {shares[m]:.3f}" for m in MODULES))
        print("self-time share by span: " + ", ".join(
            f"{n} {shares[n]:.3f}" for n in sorted(tracer.SPANNED, key=lambda n: -shares[n])
            if shares[n] >= 0.005))
        for c in claims:
            share = sum(shares[p] for p in c["layers"])
            holds = share > c.get("above", 0.0) and share < c.get("below", 1.0)
            print(f"claim: {c['text']}; measured {share:.3f}: "
                  + ("holds" if holds else "CONTRADICTED by this trace"))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for k, tr in enumerate(run["tracers"]):
                tr.write(fh, k)
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, summarized in one table."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise BenchmarkError(f"{name} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"failed_frac {result['failed'] / result['attempted']:.4g} fraction")
        print(f"{name:14s} " + "  ".join(cells))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(workloads.WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
