"""Seeded job lists for the four benchmark workloads.

A job is one argv list handed to divgap.cli.run, plus what its oracle needs
to know. Each workload has a fixed mix of job kinds; the seed draws the
inputs of each kind inside its range and shuffles the order, and nothing
else. Inputs whose cost grows steeply with size are drawn as antithetic
pairs (u, 1 - u) inside equal strata, so every seed does nearly the same
total work and the run-to-run spread comes from the program, not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict)


def paired_draws(rng: random.Random, lo: int, hi: int, pairs: int,
                 log: bool = False) -> list[int]:
    """2 * pairs integers in [lo, hi], one antithetic pair per equal stratum.

    With log=True the strata are equal in log scale.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / pairs
    out = []
    for k in range(pairs):
        u = rng.random()
        for v in (u, 1.0 - u):
            x = a + (k + v) * width
            out.append(min(hi, max(lo, round(math.exp(x) if log else x))))
    return out


def _json_flags(i: int, every: int) -> tuple[str, ...]:
    return ("--json",) if i % every == 0 else ()


def gap_walk(rng: random.Random) -> list[Job]:
    """The headline identity gap = 2^b(n) on products up to 2^689596369.

    The whole stated range runs every time; the seed only sets the order.
    """
    jobs = []
    for n in range(44, 51):
        jobs.append(Job(("theorem", "--max", str(n)), "theorem", {"n_max": n, "json": False}))
        jobs.append(Job(("theorem", "--max", str(n), "--json"), "theorem",
                        {"n_max": n, "json": True}))
    for n in range(30, 37):
        jobs.append(Job(("seq", "a", "--max", str(n), "--path", "factored", "--bfile"),
                        "seq_a", {"n_max": n}))
    rng.shuffle(jobs)
    return jobs


def certify(rng: random.Random) -> list[Job]:
    """Certified digits of c and (2/9) K3 at 1000..5000 terms.

    The many cheap k3 jobs put the median and tail job on one job kind whose
    cost rises smoothly with the term count, so they hardly move with seed.
    """
    jobs = []
    for t in paired_draws(rng, 1000, 5000, 2):
        jobs.append(Job(("constants", "c", "--terms", str(t)), "constant",
                        {"which": "c", "terms": t}))
    for t in paired_draws(rng, 1000, 5000, 2):
        jobs.append(Job(("verify", "relation", "--terms", str(t)), "relation", {"terms": t}))
    for t in paired_draws(rng, 1000, 5000, 40):
        jobs.append(Job(("constants", "k3", "--terms", str(t)), "constant",
                        {"which": "k3", "terms": t}))
    rng.shuffle(jobs)
    return jobs


SURVIVOR_QS = (2, 3, 4, 5, 6, 7)


def survivors(rng: random.Random) -> list[Job]:
    """Three-route survivor agreement for n in 10^3..10^6, q in 2..7.

    The range's corner n = 10^6, q = 2 is always present: the simulation's
    list at the largest n, and its slice deletion at the smallest q, set
    peak memory.
    """
    ns = paired_draws(rng, 10**3, 10**6, 60, log=True)
    qs = [SURVIVOR_QS[i % len(SURVIVOR_QS)] for i in range(len(ns))]
    rng.shuffle(qs)
    ns.append(10**6)
    qs.append(2)
    jobs = [
        Job(("josephus", "--n", str(n), "--q", str(q), "--algo", "all"), "josephus",
            {"n": n, "q": q, "algo": "all"})
        for n, q in zip(ns, qs)
    ]
    for i in range(6):
        n = rng.randrange(10 ** (3 + 50 * i), 10 ** (3 + 50 * (i + 1)))
        q = SURVIVOR_QS[i]
        jobs.append(Job(("josephus", "--n", str(n), "--q", str(q), "--algo", "ow"), "josephus",
                        {"n": n, "q": q, "algo": "ow"}))
    rng.shuffle(jobs)
    return jobs


def desk(rng: random.Random) -> list[Job]:
    """Many small interactive queries on machine integers, and refusals."""
    jobs = []
    for i, m in enumerate(paired_draws(rng, 10**6, 10**10, 60, log=True)):
        above = rng.randint(1, 1000) if i % 2 else None
        flags = (("--above", str(above)) if above is not None else ()) + _json_flags(i, 4)
        jobs.append(Job(("delta", str(m), *flags), "delta",
                        {"m": m, "above": above, "json": "--json" in flags}))
    for i, m in enumerate(paired_draws(rng, 10**6, 10**10, 60, log=True)):
        count_only = i % 2 == 1
        flags = (("--count-only",) if count_only else ()) + _json_flags(i, 4)
        jobs.append(Job(("divisors", str(m), *flags), "divisors",
                        {"m": m, "count_only": count_only, "json": "--json" in flags}))
    for i in range(8):
        which = "12"[i % 2]
        jobs.append(Job(("lemma", which), "lemma", {"which": which}))
    for i in range(8):
        which = "ab"[i % 2]
        jobs.append(Job(("seq", which, "--max", "7"), "seq_small", {"which": which}))
    for i in range(18):
        flags = _json_flags(i, 2)
        m = rng.randint(10**6, 10**10)
        bound = str(rng.randint(10**3, m - 1))
        if i % 3 == 0:
            argv = ("delta", str(m), "--oracle-bound", bound, *flags)
            error = "OracleBoundExceeded"
        elif i % 3 == 1:
            argv = ("divisors", str(m), "--oracle-bound", bound, *flags)
            error = "OracleBoundExceeded"
        else:
            argv = ("seq", "a", "--max", "51", *flags)
            error = "ResourceLimit"
        jobs.append(Job(argv, "refusal", {"error": error, "json": bool(flags)}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"gap_walk": gap_walk, "certify": certify, "survivors": survivors, "desk": desk}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list for one workload and seed; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
