"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcheck
import run
import tracer
import workloads

run.import_package()


def _small_exact_jobs():
    jobs = workloads.build("exact-sums", 0)
    keep = {"wick --field 3 --format csv", "wick --eps 11*1*1** --format csv",
            "fock --q 0.5 --t 1.25 --d 2 --m 8 --gram 3 --format csv"}
    return [j for j in jobs if j.label in keep]


def _small_chain_jobs():
    jobs = workloads.build("chain-verify", 7)
    short = [j for j in jobs if "--verify" in j.argv and "10" in j.argv]
    short += [j for j in jobs if "--ops" in j.argv][:5]
    short += [workloads.Job(("clt", "--mode", "moment", "--eps", "11**", "--q", "0.5", "--t",
                             "1.25", "--ns", "10,20", "--seed", "7", "--format", "csv"))]
    return short + jobs[-2:]  # the coeffs file and its --check


def test_stored_references_hold_and_a_planted_one_fails():
    jobs = _small_exact_jobs()
    refs = refcheck.load_refs("exact-sums", 0)
    assert len(jobs) == 3 and all(j.label in refs for j in jobs)
    result = run.measure(jobs, refs, seconds=0, trace=False)
    assert result["problems"] == []

    planted = json.loads(json.dumps(refs))
    gram = next(j.label for j in jobs if "--gram" in j.argv)
    planted[gram]["floats"][0] += 1e-6
    result = run.measure(jobs, planted, seconds=0, trace=False)
    failed_frac = len(result["problems"]) / result["attempted"]
    assert failed_frac > 0
    assert result["problems"][0].startswith(gram)


def test_planted_exact_reference_fails():
    jobs = _small_exact_jobs()
    planted = json.loads(json.dumps(refcheck.load_refs("exact-sums", 0)))
    field = next(j.label for j in jobs if "--field" in j.argv)
    planted[field]["exact_sha256"] = "0" * 64
    result = run.measure(jobs, planted, seconds=0, trace=False)
    assert [p.split(":")[0] for p in result["problems"]] == [field]


def test_invariants_catch_a_wrong_target_without_references():
    job = workloads.Job(("clt", "--mode", "moment", "--eps", "11**"))
    good = "# q: 0.5\n# t: 1.25\n# mode: moment\n# eps: 11**\nN,value,target\n10,1,1\n"
    assert refcheck.invariant_problem(job, good, lambda eps, q, t: 1.0) is None
    bad = good.replace("10,1,1", "10,1,1.5")
    assert "target" in refcheck.invariant_problem(job, bad, lambda eps, q, t: 1.0)
    nan = good.replace("10,1,1", "10,nan,1")
    assert "non-finite" in refcheck.invariant_problem(job, nan, lambda eps, q, t: 1.0)


def test_tracing_leaves_artifact_bytes_unchanged():
    jobs = _small_chain_jobs()
    run.WORK.mkdir(exist_ok=True)
    plain = [r[2] for r in run.run_pass(jobs)]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [r[2] for r in run.run_pass(jobs)]
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.missing == []
    assert tr.counts["jw.build_jw.calls"] > 0
    assert tr.counts["coeffs.base_value.calls"] > 0
    assert tr.counts["clt.partial_sum_moment.site_steps"] == (10 + 20) * 4
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "coeffs.sample_base", "jw.check_commutation"} <= names
    # sample_base is bound in coeffs, clt, cli and the package; all are restored
    import qtwick
    import qtwick.cli
    import qtwick.clt
    import qtwick.coeffs
    for module in (qtwick, qtwick.cli, qtwick.clt):
        assert module.sample_base is qtwick.coeffs.sample_base
        assert not hasattr(module.sample_base, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans = [["a", 0.0, 10.0, -1, "0"], ["b", 1.0, 4.0, 0, "0"], ["c", 2.0, 3.0, 1, "0"]]
    assert tr.self_times() == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_missing_name_records_no_span(monkeypatch):
    monkeypatch.setitem(tracer.SPANNED, "clt.gone", ("clt.gone", None))
    tr = tracer.Tracer()
    tr.install()
    try:
        run.run_pass(_small_exact_jobs()[:1])
    finally:
        tr.uninstall()
    assert tr.missing == ["clt.gone"]
    assert all(s[0] != "clt.gone" for s in tr.spans)


def test_exits_nonzero_without_the_package():
    here = Path(run.__file__).resolve().parent
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(here, bare / here.name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "exact-sums", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_lists_depend_only_on_the_seed(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    if name in workloads.SEEDED:
        assert workloads.build(name, 3) != workloads.build(name, 4)
    else:
        assert workloads.build(name, 3) == workloads.build(name, 4)
