"""Job lists of the benchmark workloads.

A job is one argument list for `qtwick.cli.main`.  The workload seed drives
the `--seed` of every chain job (clt, jw, coeffs) and the `jw --ops` words;
`exact-sums` touches no chain and ignores it.

Each job takes well under a second and a pass a second or two, so a 20 s
run repeats every job ten times or more and the calibration probes of run.py
fall between short jobs.  That is why the sizes stay below those of the
largest runs the package allows (N = 2000 in lambda mode, for one).  Every job emits a csv
artifact, either on stdout or in a file under the work directory, so that
one parser checks all of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

Q, T = "0.5", "1.25"

# placeholder in an argument list for the run's work directory
WORK = "{work}"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    out: Optional[str] = None  # file the job writes its artifact to, if not stdout

    @property
    def label(self) -> str:
        """Stable name of the job, the key of its stored reference."""
        return " ".join(self.argv)

    def resolved(self, work: str) -> list[str]:
        return [a.replace(WORK, work) for a in self.argv]


def _clt(mode: str, eps: str, ns: str, seed: int, pairing: Optional[str] = None) -> Job:
    argv = ["clt", "--mode", mode, "--eps", eps, "--q", Q, "--t", T, "--ns", ns,
            "--seed", str(seed), "--format", "csv"]
    if pairing is not None:
        argv += ["--pairing", pairing]
    return Job(tuple(argv))


def lambda_sweep(seed: int) -> list[Job]:
    # two-pair classes: the crossing, the nesting, and patterns with no
    # target whose factors need lookup matrices of other letter pairs
    jobs = [
        _clt("lambda", eps, ns, seed, pairing)
        for pairing in ("1-3,2-4", "1-4,2-3")
        for eps in ("11**", "1*1*", "1**1")
        for ns in ("100,200,300", "150,250")
    ]
    jobs += [
        _clt("lambda", "111***", "50,100,200", seed, "1-4,2-5,3-6"),
        _clt("lambda", "1*1*1*", "50,100,150", seed, "1-6,2-3,4-5"),
        _clt("lambda", "11*1**", "50,100,150", seed, "1-5,2-3,4-6"),
    ]
    return jobs


def moment_orders(seed: int) -> list[Job]:
    sizes = {
        "11**": ("25,50,100,200",),
        "1*1*": ("25,50,100,200",),
        "111***": ("20,40,60", "25,45,65", "30,50"),
        "11*1**": ("30,60,120",),
        "1*11**": ("30,60,120",),
        "11**1*": ("30,60,120",),
        "1*1*1*": ("20,40,80",),
        "1111****": ("8,16,24", "12,20,28"),
        "11*1*1**": ("8,16,32",),
        "1*1*1*1*": ("8,16,32",),
    }
    return [_clt("moment", eps, ns, seed) for eps, runs in sizes.items() for ns in runs]


def balanced_patterns(length: int) -> list[str]:
    """All words with length/2 letters '1' and length/2 letters '*', sorted."""
    half = length // 2
    return sorted(
        "".join("1" if k in ones else "*" for k in range(length))
        for ones in itertools.combinations(range(length), half)
    )


# labelings for the joint sums; each admits at least one label-respecting pairing
_LABELINGS = ("1,1,2,2,2,2,1,1", "1,2,1,2,1,2,1,2", "1,2,2,1,1,2,2,1", "1,1,1,1,2,2,2,2")


def exact_sums(seed: int) -> list[Job]:
    del seed  # no chain: the workload is the same for every seed
    csv = ("--format", "csv")
    jobs = [Job(("wick", "--field", str(n)) + csv) for n in range(1, 6)]
    patterns = balanced_patterns(8)
    jobs += [Job(("wick", "--eps", eps) + csv) for eps in patterns]
    jobs += [
        Job(("wick", "--eps", eps, "--labels", _LABELINGS[k % len(_LABELINGS)]) + csv)
        for k, eps in enumerate(patterns[::3][:20])
    ]
    jobs += [Job(("wick", "--eps", eps) + csv) for eps in balanced_patterns(10)[::12]]
    fock = ("fock", "--q", Q, "--t", T)
    jobs += [Job(fock + ("--d", "2", "--m", "8", "--gram", str(n)) + csv) for n in range(1, 7)]
    jobs += [Job(fock + ("--d", "3", "--m", "8", "--gram", str(n)) + csv) for n in (4, 5)]
    jobs.append(Job(fock + ("--d", "2", "--m", "12", "--ops", ",".join(["s1", "s2", "s1"] * 4))
                    + csv))
    jobs.append(Job(fock + ("--d", "2", "--m", "6", "--residual") + csv))
    jobs.append(Job(("pairings", "--n", "6") + csv))
    return jobs


def pair_class_word(rng: random.Random, pairs: int, sites: int) -> str:
    """A `jw --ops` word in which each of `pairs` distinct sites appears twice,
    at shuffled positions and with random adjoint marks."""
    chosen = rng.sample(range(1, sites + 1), pairs)
    tokens = [f"{s}*" if rng.getrandbits(1) else str(s) for s in chosen for _ in (0, 1)]
    rng.shuffle(tokens)
    return ",".join(tokens)


def chain_verify(seed: int) -> list[Job]:
    chain = ("--q", Q, "--t", T, "--seed", str(seed), "--format", "csv")
    jobs = [Job(("jw", "--n", str(n)) + chain + ("--verify",)) for n in (10, 20, 30)]
    rng = random.Random(seed)
    # 20 words each of length 4, 6 and 8, so the work per pass is seed-independent
    jobs += [
        Job(("jw", "--n", "120") + chain + ("--ops", pair_class_word(rng, pairs, 120)))
        for pairs in (2, 3, 4)
        for _ in range(20)
    ]
    path = f"{WORK}/coeffs-300.csv"
    jobs.append(Job(("coeffs", "--n", "300") + chain + ("--out", path), out=path))
    jobs.append(Job(("--check", path)))
    return jobs


WORKLOADS = {
    "lambda-sweep": lambda_sweep,
    "moment-orders": moment_orders,
    "exact-sums": exact_sums,
    "chain-verify": chain_verify,
}

# workloads whose jobs depend on the seed
SEEDED = ("lambda-sweep", "moment-orders", "chain-verify")


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)
