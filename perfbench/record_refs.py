"""Record the output references the benchmark checks against.

    python3 perfbench/record_refs.py --seeds 0,1,2

Writes refs/<workload>.json with one summary (see refcheck.py) per job and
seed; `exact-sums` ignores the seed and is stored once.  The stored
references are the package's outputs at the commit that introduced the
benchmark.  Do not regenerate them on a later commit: that would turn a
changed result into the new expectation.
"""

from __future__ import annotations

import argparse
import json
import subprocess

import refcheck
import run
import workloads


def record(workload: str, seeds: list[int]) -> dict:
    by_seed = {}
    keys = seeds if workload in workloads.SEEDED else ["any"]
    for key in keys:
        jobs = workloads.build(workload, 0 if key == "any" else key)
        summaries = {}
        for job, (_, code, text, err) in zip(jobs, run.run_pass(jobs)):
            if code != 0:
                raise SystemExit(f"{job.label}: exit {code}: {err}")
            if job.argv[0] != "--check":  # its output names the local path
                summaries[job.label] = refcheck.summarize(text)
        by_seed[str(key)] = summaries
    return by_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    run.import_package()
    run.WORK.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    refcheck.REFS.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        payload = {"commit": commit, "by_seed": record(workload, seeds)}
        path = refcheck.REFS / f"{workload}.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
