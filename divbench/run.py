"""divgap benchmark: seeded CLI workloads, checked outputs, named metrics.

Usage, from the repository root:

    python3 divbench/run.py --workload gap_walk --seed 1 --seconds 25 --trace 0
    python3 divbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload run is one fresh child process (child.py) that imports
divgap.cli from src/ and drives the workload's job list through
divgap.cli.run(argv). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run. Every time is scaled to the reference host speed (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
PROBES_PER_SPAWN = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_GRACE_S = 120


class BenchError(Exception):
    pass


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile with at least ten distinct jobs of a pass beyond it."""
    for pct in TAIL_PERCENTILES:
        if jobs_per_pass * (100.0 - pct) / 100.0 >= 10:
            return pct
    raise BenchError(f"a pass of {jobs_per_pass} jobs is too short for a tail percentile")


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def measure_setup() -> float:
    """Median set-up time over several fresh children, at reference speed."""
    samples, probes = [], {}
    for _ in range(SETUP_SPAWNS):
        for _ in range(PROBES_PER_SPAWN):
            hostspeed.probe(hostspeed.ALL_KERNELS, probes)
        t0, result = _spawn(["--setup-only"], CHILD_GRACE_S)
        samples.append(result["ready"] - t0)
    return statistics.median(samples) * hostspeed.speed_factor(probes)


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """(metrics, notes): the end-to-end metrics of one untraced run."""
    walls, pooled = [], []
    for p in result["passes"]:
        factor = hostspeed.speed_factor(p["probes"])
        walls.append(sum(p["latencies"]) * factor)
        pooled += [x * factor for x in p["latencies"]]
    pct = tail_percentile(result["jobs"])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "job_ms_p50": (statistics.median(pooled) * 1000, "ms"),
        "job_ms_tail": (percentile(pooled, pct) * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "job_ms_tail": f"p{pct:g} of {len(pooled)} job runs ({result['jobs']} jobs a pass)",
        "wall_s": f"median of {len(walls)} passes; raw "
                  f"{statistics.median(sum(p['latencies']) for p in result['passes']):.3f} s",
    }
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, dict]:
    """(metrics, notes): per-layer metrics of one traced run, medians over
    traced passes, with self times at reference speed."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    names = list(traced[0]["layers"])
    metrics = {}
    for name in names:
        if name.endswith(".self_s"):
            values = [p["layers"][name] * hostspeed.speed_factor(p["probes"]) for p in traced]
            metrics[name] = (statistics.median(values), "s")
        else:
            unit = "bits" if name.endswith("_bits") else "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)

    def wall(ps):
        return statistics.median(sum(p["latencies"]) * hostspeed.speed_factor(p["probes"])
                                 for p in ps)

    metrics["trace_overhead_s"] = (wall(traced) - wall(plain), "s")
    notes = {"trace_overhead_s": f"{len(traced)} traced and {len(plain)} untraced passes; "
                                 f"spans in {Path(result['trace_file']).relative_to(ROOT)}"}
    return metrics, notes


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    setup_s = None if trace else measure_setup()
    _, result = _spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(int(trace))], seconds + CHILD_GRACE_S)
    metrics, notes = per_layer(result) if trace else end_to_end(result, setup_s)
    return result, metrics, notes


def print_table(workload: str, seed: int, result: dict, metrics: dict, notes: dict) -> None:
    print(f"{workload} seed={seed} jobs/pass={result['jobs']} passes={len(result['passes'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:g}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "divgap" / "cli.py").is_file():
        print(f"error: no divgap sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for name in names:
            result, metrics, notes = run_one(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, args.seed, result, metrics, notes)
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["failed"] == 0
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (value, unit) in metrics.items():
                out[prefix + metric] = {"value": value, "unit": unit}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
