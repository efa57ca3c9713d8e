"""Record a before/after benchmark comparison in a BENCH_<change>.json file.

Usage, from the repository root:

    python3 tools/bench_pair.py pairs --parent DIR --change DIR \\
        --workload survivors --seeds 11 12 13 14 15 16 17 18 19 20 \\
        --out BENCH_6.json
    python3 tools/bench_pair.py sweep --parent DIR --change DIR \\
        --function divgap.josephus.survivor_simulation \\
        --grid n=1000,10000,100000,1000000 --grid q=2,3,4,5,6,7 \\
        --out BENCH_6.json
    python3 tools/bench_pair.py sweep --parent DIR --change DIR \\
        --function divgap.intervals.render_digits --grid max_places=1000,10000 \\
        --build iv=divgap.constants.k3_enclosure:max_places --out BENCH_7.json
    python3 tools/bench_pair.py setup --parent DIR --change DIR --out BENCH_20.json
    python3 tools/bench_pair.py cli --parent DIR --change DIR \\
        --argv "theorem --max 50" --argv "theorem --max 50 --json" --out BENCH_26.json

DIR is a checkout of the tree to measure (for example a `git archive` of
one commit). `pairs` runs `divbench/run.py --trace 0` once per seed on each
tree for the `run_seconds` that BENCHMARK.json sets, alternating which tree
runs first, and records every run's end-to-end metrics with each side's
median, quartiles and the change's win count. `sweep` times one divgap
function of both trees over a grid of keyword arguments, in SWEEP_ROUNDS
fresh interpreters per point. Each loads both trees' divgap under separate
package names and alternates their calls one by one, SWEEP_CALLS timed
calls per tree, so that each call of one tree runs next to one of the
other on a host whose speed drifts; which tree goes first swaps round by
round and point by point. It records median seconds and the tracemalloc
peak per grid point. `--build NAME=MAKER:KEY` passes the
function a keyword NAME made, untimed, by the tree's own MAKER from the
point's KEY value, for functions whose arguments are not integers. `cli`
is that sweep of `divgap.cli.run(argv)`, one point per `--argv` command line
(split as a shell would), CLI_CALLS timed calls per point per round, kept
in the file's `cli` section. Every sweep call writes to its own StringIO
for stdout and stderr, as divbench's `run_job` does, and is timed with the
redirection. `setup`
spawns each tree's `divbench/child.py --setup-only` SETUP_SPAWNS times,
alternating trees spawn by spawn, and times each from spawn to the "ready"
moment the child prints, as divbench's `measure_setup` does but unscaled and
over many more spawns; it records every sample with each side's median,
quartiles and the change's win count, pairing the i-th spawns. Children get
the caller's environment, so run it under PYTHONDONTWRITEBYTECODE=1 to time
what the benchmark times. Each command merges its section into --out and
copies `divbench/machine.json` from the change tree.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
RUN_GRACE_S = 600
SWEEP_ROUNDS = 5  # fresh interpreters per grid point, alternating which tree goes first
SWEEP_CALLS = 5  # timed calls per tree per grid point per round
CLI_CALLS = 51  # timed calls per command line per round: most take well under a millisecond
SETUP_SPAWNS = 60  # set-up children per tree, alternating which goes first

# Runs in a fresh interpreter with neither tree on sys.path; argv is the
# JSON map of side to src/ directory, in the order the sides take turns, the
# function's dotted name, the JSON keyword dict of one point, the number of
# timed calls per side, and the JSON map of built keywords to [maker, key].
# Each tree's divgap loads as the package divgap_<side>, so both sit in one
# interpreter, and the calls alternate side by side, the first side of each
# pair swapping pair by pair (ABBA).
SWEEP_CHILD = r"""
import importlib, importlib.util, io, json, sys, time, tracemalloc
from contextlib import redirect_stderr, redirect_stdout
srcs, dotted, point, calls, builds = (json.loads(a) for a in sys.argv[1:])
def load(side, src):
    name = f"divgap_{side}"
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/divgap/__init__.py", submodule_search_locations=[f"{src}/divgap"])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return name
def resolve(package, dotted):
    module, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(package + module[len("divgap"):]), name)
def timed(package):
    fn = resolve(package, dotted)
    kwargs = {**point, **{arg: resolve(package, maker)(point[key])
                          for arg, (maker, key) in builds.items()}}
    def call():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            fn(**kwargs)
        return time.perf_counter() - t0
    return call
sides = {side: timed(load(side, src)) for side, src in srcs.items()}
order = list(sides)
for side in order:
    sides[side]()
times = {side: [] for side in order}
for i in range(calls):
    for side in (order if i % 2 == 0 else order[::-1]):
        times[side].append(sides[side]())
result = {}
for side in order:
    tracemalloc.start()
    sides[side]()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result[side] = {"median_s": sorted(times[side])[calls // 2], "tracemalloc_peak_b": peak}
# a tree that imported divgap by its own name would have reached the other
# tree, or none
assert "divgap" not in sys.modules, "a tree imports divgap by name"
print(json.dumps(result))
"""


def summarize(runs: dict[str, list[float]], better: str) -> dict:
    """Medians, quartiles and wins of paired runs; pair i is runs[side][i]."""
    out = {}
    for side in SIDES:
        values = runs[side]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}
    sign = -1 if better == "lower" else 1
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    out["pairs"] = len(runs["parent"])
    out["median_gain"] = sign * (out["change"]["median"] - out["parent"]["median"])
    out["gain_exceeds_parent_iqr"] = out["median_gain"] > out["parent"]["iqr"]
    return out


def _bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "divbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=seconds + RUN_GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"divbench in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    passes = re.search(r"passes=(\d+)", proc.stdout)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "passes": int(passes.group(1)) if passes else None,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cmd_pairs(args, trees: dict[str, Path]) -> dict:
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = _bench_run(trees[side], args.workload, seed, seconds)
            run["order"] = order.index(side)
            runs[side].append(run)
            print(f"pair {i + 1}/{len(args.seeds)} seed={seed} {side}: "
                  f"wall_s={run['metrics']['wall_s']:.4f}", file=sys.stderr)
    metrics = {
        name: summarize({side: [r["metrics"][name] for r in runs[side]] for side in SIDES}, how)
        for name, how in better.items()
    }
    return {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
            "metrics": metrics, "runs": runs}


def _setup_spawn(tree: Path) -> float:
    """Seconds from spawning tree's `child.py --setup-only` to the ready moment it prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(tree / "divbench" / "child.py"), "--setup-only"],
                          cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_GRACE_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - t0


def cmd_setup(args, trees: dict[str, Path]) -> dict:
    samples = {side: [] for side in SIDES}
    for i in range(SETUP_SPAWNS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            samples[side].append(_setup_spawn(trees[side]))
    return {"spawns": SETUP_SPAWNS,
            "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "setup_s": summarize(samples, "lower"), "samples": samples}


def _grid(specs: list[str]) -> list[dict]:
    axes = []
    for spec in specs:
        name, _, values = spec.partition("=")
        axes.append([(name, int(v)) for v in values.split(",")])
    return [dict(point) for point in itertools.product(*axes)]


def _builds(specs: list[str]) -> dict[str, list[str]]:
    out = {}
    for spec in specs:
        name, _, rest = spec.partition("=")
        maker, _, key = rest.rpartition(":")
        out[name] = [maker, key]
    return out


def cmd_sweep(args, trees: dict[str, Path]) -> dict:
    return _sweep(trees, args.function, _grid(args.grid), SWEEP_CALLS, _builds(args.build))


def cmd_cli(args, trees: dict[str, Path]) -> dict:
    return _sweep(trees, "divgap.cli.run", [{"argv": shlex.split(a)} for a in args.argv],
                  CLI_CALLS, {})


def _sweep(trees: dict[str, Path], function: str, points: list[dict], calls: int,
           builds: dict[str, list[str]]) -> dict:
    # samples[i] holds point i's result from each round, one child per round
    samples = [[] for _ in points]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for r in range(SWEEP_ROUNDS):
        for i, point in enumerate(points):
            order = SIDES if (r + i) % 2 == 0 else SIDES[::-1]
            srcs = {side: str(trees[side] / "src") for side in order}
            proc = subprocess.run(
                [sys.executable, "-c", SWEEP_CHILD, json.dumps(srcs), json.dumps(function),
                 json.dumps(point), str(calls), json.dumps(builds)],
                env=env, capture_output=True, text=True, timeout=RUN_GRACE_S, check=True)
            samples[i].append(json.loads(proc.stdout))
    rows = []
    for i, kwargs in enumerate(points):
        row = {"args": kwargs}
        for side in SIDES:
            row[side] = {
                "median_s": statistics.median(s[side]["median_s"] for s in samples[i]),
                "tracemalloc_peak_mb": samples[i][0][side]["tracemalloc_peak_b"] / 2**20,
            }
        row["speedup"] = row["parent"]["median_s"] / row["change"]["median_s"]
        rows.append(row)
    return {"function": function, "built": builds, "rounds": SWEEP_ROUNDS,
            "calls_per_round": calls, "points": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("pairs", "sweep", "setup", "cli"):
        p = sub.add_parser(name)
        p.add_argument("--parent", type=Path, required=True)
        p.add_argument("--change", type=Path, required=True)
        p.add_argument("--out", type=Path, required=True)
    p = sub.choices["pairs"]
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    p = sub.choices["sweep"]
    p.add_argument("--function", required=True, help="dotted name, e.g. divgap.josephus.f")
    p.add_argument("--grid", action="append", required=True, help="name=v1,v2,... (ints)")
    p.add_argument("--build", action="append", default=[],
                   help="NAME=MAKER:KEY, keyword NAME = MAKER(value of KEY), untimed")
    p = sub.choices["cli"]
    p.add_argument("--argv", action="append", required=True,
                   help="one command line for divgap.cli.run, e.g. \"theorem --max 50\"")
    args = ap.parse_args(argv)

    if args.command == "pairs" and len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds to give quartiles")
    if args.command == "sweep":
        if not args.function.startswith("divgap."):
            ap.error(f"--function {args.function} is not in divgap")
        axes = {spec.partition("=")[0] for spec in args.grid}
        for name, (maker, key) in _builds(args.build).items():
            if not name or not maker.startswith("divgap.") or key not in axes:
                ap.error(f"--build {name}={maker}:{key} needs "
                         "NAME=divgap.MODULE.FUNCTION:GRID_AXIS")
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    for side, tree in trees.items():
        if not (tree / "divbench" / "run.py").is_file():
            ap.error(f"--{side} {tree} has no divbench/run.py")
    commands = {"pairs": cmd_pairs, "sweep": cmd_sweep, "setup": cmd_setup, "cli": cmd_cli}
    section = commands[args.command](args, trees)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = json.loads((trees["change"] / "divbench" / "machine.json").read_text())
    if args.command in ("setup", "cli"):
        doc[args.command] = section
    else:
        key = args.workload if args.command == "pairs" else " ".join([args.function, *args.build])
        doc.setdefault(args.command, {})[key] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
