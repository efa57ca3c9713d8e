"""The job loop a benchmark child runs after set-up.

Closed loop, one client: each job starts when the previous one returns, in
one process with no threads. A pass runs the whole job list once; passes
repeat until another would overrun --seconds. Between jobs the host-speed
probe runs for about a tenth of the time the jobs took. Outputs are hashed
per job; each distinct output is checked by its oracle after the last pass,
outside the timed region, and every run of a job with a wrong output counts
as failed.

In a traced run, passes alternate untraced and traced, so the difference of
their times is the tracing overhead. Spans of the traced passes go to
divbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import oracles
import spans
import workloads

PROBE_SHARE = 0.1
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_job(cli, argv: tuple[str, ...]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.blake2b(f"{code}\0{out}\0{err}".encode(), digest_size=16).hexdigest()


def run_pass(cli, jobs, outputs: dict, kernels: tuple[str, ...],
             rec: spans.SpanRecorder | None = None) -> dict:
    """Run every job once, probing host speed with kernels in between. New
    outputs are kept in outputs, keyed by (job index, digest), for the
    oracles."""
    latencies, digests, probes = [], [], {}
    busy, probing = 0.0, hostspeed.probe(kernels, probes)
    stdout_bytes = 0
    for i, job in enumerate(jobs):
        if rec is not None:
            rec.job = i
        seconds, code, out, err = run_job(cli, job.argv)
        latencies.append(seconds)
        busy += seconds
        stdout_bytes += len(out.encode())
        key = (i, _digest(code, out, err))
        outputs.setdefault(key, (code, out, err))
        digests.append(key[1])
        while probing < PROBE_SHARE * busy:
            probing += hostspeed.probe(kernels, probes)
    return {"latencies": latencies, "digests": digests, "probes": probes,
            "stdout_bytes": stdout_bytes}


def count_failures(jobs, passes: list[dict], outputs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every job run in every pass."""
    verdicts = {key: oracles.check(jobs[key[0]], *value) for key, value in outputs.items()}
    attempted = failed = 0
    reasons = []
    for p in passes:
        for i, digest in enumerate(p["digests"]):
            attempted += 1
            reason = verdicts[(i, digest)]
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(jobs[i].argv)}: {reason}")
    return attempted, failed, reasons


def run_workload(cli, jobs, kernels: tuple[str, ...], seconds: float, trace: bool) -> dict:
    outputs: dict = {}
    passes, traced_spans, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        rec = uninstall = None
        if traced:
            rec = spans.SpanRecorder()
            uninstall = spans.install(rec)
        t0 = time.perf_counter()
        try:
            p = run_pass(cli, jobs, outputs, kernels, rec)
        finally:
            if uninstall is not None:
                uninstall()
        walls.append(time.perf_counter() - t0)
        p["traced"] = traced
        if rec is not None:
            rec.counters["cli.stdout_bytes"] = p["stdout_bytes"]
            p["layers"] = spans.layer_metrics(rec.spans, rec.counters)
            traced_spans.append(rec.spans)
        passes.append(p)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, reasons = count_failures(jobs, passes, outputs)
    for p in passes:
        del p["digests"]
    return {"passes": passes, "peak_rss_kb": peak_rss_kb, "attempted": attempted,
            "failed": failed, "reasons": reasons, "traced_spans": traced_spans}


def write_trace(workload: str, seed: int, jobs, traced_spans: list[list]) -> Path:
    """Write the traced passes' spans and the per-job self-time sweep."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    argvs = [job.argv for job in jobs]
    doc = {
        "workload": workload, "seed": seed,
        "jobs": [list(a) for a in argvs],
        "span_fields": ["name", "start_s", "end_s", "parent", "job"],
        "passes": [{"spans": s, "self_s_by_job": spans.self_time_by_job(s, argvs)}
                   for s in traced_spans],
    }
    path.write_text(json.dumps(doc))
    return path


def main(cli, ready: float, argv: list[str]) -> None:
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    jobs = workloads.generate(args.workload, args.seed)
    kernels = hostspeed.WORKLOAD_KERNELS[args.workload]
    result = run_workload(cli, jobs, kernels, args.seconds, bool(args.trace))
    traced_spans = result.pop("traced_spans")
    if args.trace:
        result["trace_file"] = str(write_trace(args.workload, args.seed, jobs, traced_spans))
    result["ready"] = ready
    result["jobs"] = len(jobs)
    print(json.dumps(result))
