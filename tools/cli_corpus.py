"""Byte-identity corpus for the command line.

Runs a fixed set of commands through divgap.cli.run, with a given src/
directory first on sys.path, and prints one line per command: a SHA-256 over
its stdout, stderr and exit code, then the exit code, then the argv.

Usage, from the repository root:

    python3 tools/cli_corpus.py [SRC]
    python3 tools/cli_corpus.py --compare SRC_A SRC_B

SRC defaults to this repository's src/. `--compare` runs both trees and
lists the commands whose hashes differ, exiting 1 when there is any. Each
tree runs in a fresh interpreter with COLUMNS fixed, so `--help` wraps the
same way on both sides. The set covers every subcommand plain, with `--json`
and (for seq) `--bfile`, every documented exit code, `--help` and reproduce;
it stays at desk scale, a few seconds per tree.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter with the tree's src/ first on sys.path; reads
# the JSON list of argv lists on stdin and prints [digest, exit code] per
# command. A command that raises out of run() records the exception's type
# as its exit code.
CHILD = r"""
import contextlib, hashlib, io, json, sys
from divgap.cli import run
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    blob = f"{stdout.getvalue()}\0{stderr.getvalue()}\0{code}".encode()
    out.append([hashlib.sha256(blob).hexdigest(), code])
print(json.dumps(out))
"""

SUBCOMMANDS = ("seq", "delta", "divisors", "theorem", "lemma", "josephus",
               "constants", "verify", "reproduce")


def _requests() -> list[list[str]]:
    """Each command once without an output-mode flag."""
    out = []
    for n in (0, 1, 2, 3, 7, 10, 20, 30, 39):
        out.append(["seq", "a", "--max", str(n)])
    for n in (0, 3, 7, 10):
        out.append(["seq", "a", "--max", str(n), "--path", "oracle"])
    for n in (1, 2, 9, 40, 200):
        out.append(["seq", "b", "--max", str(n)])
    out += [
        ["seq", "a", "--max", "11", "--path", "oracle"],  # past the trial-division bound
        ["seq", "a", "--max", "10", "--path", "oracle", "--oracle-bound", "1000"],
        ["seq", "a", "--max", "40"],  # past the print budget
        ["seq", "a", "--max", "30", "--digit-limit", "5"],
        ["seq", "a", "--max", "-1"],
        ["seq", "b", "--max", "0"],
        ["seq", "b", "--max", "3", "--path", "oracle"],  # options of seq a alone
        ["seq", "b", "--max", "3", "--oracle-bound", "5"],
        ["seq", "a", "--max", "5", "--digit-limit", "0"],
        ["seq", "c", "--max", "5"],
    ]
    for m in (1, 2, 12, 48, 97, 360, 1000000, 999983, 123456789, 9999999967, 10**12):
        out.append(["delta", str(m)])
    for m, t in ((48, 0), (48, 1), (48, 2), (48, 46), (48, 47), (360, 5), (7, 6),
                 (12, 11), (1000000, 1000), (999983, 0), (10**12, 10**6), (2, 0)):
        out.append(["delta", str(m), "--above", str(t)])
    out += [
        ["delta", "0"],
        ["delta", "-5"],
        ["delta", "1", "--above", "0"],
        ["delta", "48", "--above", "-1"],
        ["delta", "100000000000000000"],
        ["delta", "48", "--oracle-bound", "10"],
        ["delta", "1" * 5000],
        ["delta", "abc"],
    ]
    for m in (1, 2, 48, 97, 360, 720720, 999983, 10**10):
        out.append(["divisors", str(m)])
        out.append(["divisors", str(m), "--count-only"])
    out += [
        ["divisors", "0"],
        ["divisors", "48", "--divisor-cap", "3"],
        ["divisors", "48", "--divisor-cap", "0"],
        ["divisors", "10000000000000061", "--count-only"],
        ["divisors", "1000000007", "--oracle-bound", "1000"],
    ]
    for n in (3, 10, 20, 40, 50):
        out.append(["theorem", "--max", str(n)])
    out += [
        ["theorem", "--max", "10", "--path", "oracle"],
        ["theorem", "--max", "11", "--path", "oracle"],
        ["theorem", "--max", "10", "--oracle-bound", "1000"],  # cross-check under its own bound
        ["theorem", "--max", "2"],
    ]
    for which in ("1", "2"):
        for k in (1, 4, 30, 40):
            out.append(["lemma", which, "--max-k", str(k)])
        out.append(["lemma", which, "--max-k", "0"])
    for n, q in ((1, 2), (5, 2), (41, 3), (1000, 7), (100000, 2), (12345, 1000)):
        for algo in ("all", "recurrence", "simulation", "ow"):
            out.append(["josephus", "--n", str(n), "--q", str(q), "--algo", algo])
    out += [
        ["josephus", "--n", "10" * 150, "--q", "3", "--algo", "ow"],
        ["josephus", "--n", "1000", "--q", "1000000000000", "--algo", "ow"],
        ["josephus", "--n", "1000", "--q", "1000000000000", "--algo", "recurrence"],
        ["josephus", "--n", "200000", "--q", "1000000000000", "--algo", "simulation"],
        ["josephus", "--n", "5000", "--q", "3", "--sim-cap", "100"],
        ["josephus", "--n", "0", "--q", "3"],
        ["josephus", "--n", "5", "--q", "1"],
    ]
    for which in ("c", "k3"):
        for terms in (1, 10, 200, 1000):
            out.append(["constants", which, "--terms", str(terms)])
        out.append(["constants", which, "--terms", "200", "--digits", "5"])
        out.append(["constants", which, "--terms", "0"])
    for terms in (10, 50, 200, 1000):
        out.append(["verify", "relation", "--terms", str(terms)])
    out += [
        ["verify", "relation", "--min-places", "100"],
        ["verify", "relation", "--min-places", "-5"],
        ["reproduce"],
        ["reproduce", "--fast-only"],
        ["reproduce", "--fast-only", "--terms", "60"],
        [],
        ["nosuch"],
        ["seq"],
    ]
    return out


def commands() -> list[list[str]]:
    """The fixed corpus, in order."""
    out = []
    for argv in _requests():
        out.append(argv)
        if argv:
            # --bfile applies only to seq and exits 2 elsewhere
            out += [argv + ["--json"], argv + ["--bfile"]]
    out += [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    out += [["seq", "a", "--max", "3", "--json", "--bfile"], ["seq", "a", "--max", "3", "--js"]]
    # both 3*2^k laws past the k up to which trial division recomputes them
    for which in ("1", "2"):
        out += [["lemma", which, "--max-k", "3000"], ["lemma", which, "--max-k", "3000", "--json"]]
    # the print budget read from each term's record, and an oracle refusal
    # raised from inside the gap stream while theorem reads it
    for argv in (["seq", "b", "--max", "200", "--digit-limit", "10"],
                 ["theorem", "--max", "12", "--path", "oracle", "--oracle-bound", "1000"]):
        out += [argv, argv + ["--json"]]
    # the growth-constraint fold at twice the benchmark's 5000 terms
    out += [["constants", "c", "--terms", "10000"],
            ["verify", "relation", "--terms", "10000", "--json"]]
    # a survivor game refused by its bit operations: 486,000 steps on
    # 162-bit terms
    argv = ["josephus", "--n", str(10**45), "--q", "3000", "--algo", "ow"]
    out += [argv, argv + ["--json"]]
    # a 300,000-digit --n, refused by its length before int() reads it, and
    # its negative, a usage error
    for n in ("1" + "0" * 299999, "-" + "1" * 300000):
        argv = ["josephus", "--n", n, "--q", "2", "--algo", "ow"]
        out += [argv, argv + ["--json"]]
    # both 3*2^k laws one k past their --max-k limit
    for which in ("1", "2"):
        argv = ["lemma", which, "--max-k", "100001"]
        out += [argv, argv + ["--json"]]
    # a 300,000-digit --max-k, refused by its length before int() reads it
    argv = ["lemma", "1", "--max-k", "1" + "0" * 299999]
    out += [argv, argv + ["--json"]]
    # the same digit ceiling on --q and --above, and a seq stop above
    # sys.maxsize, refused at term 40 by the print budget
    for argv in (["josephus", "--n", "5", "--q", "1" + "0" * 299999, "--algo", "recurrence"],
                 ["delta", "48", "--above", "1" + "0" * 299999],
                 ["seq", "a", "--max", "10000000000000000000"]):
        out += [argv, argv + ["--json"]]
    # text that is no integer, past the digit ceiling and below it: a usage
    # error that names the text by its length
    for m in ("x" * 5000, "x" * 4000):
        out += [["delta", m], ["delta", m, "--json"]]
    return out


def run_tree(src: Path, argvs: list[list[str]]) -> list[list]:
    """[digest, exit code] per command, run through src's divgap.cli.run."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("SRC_A", "SRC_B"))
    args = parser.parse_args(argv)
    argvs = commands()
    if args.compare is None:
        for cmd, (digest, code) in zip(argvs, run_tree(args.src, argvs)):
            print(f"{digest[:16]} {code} {shlex.join(cmd)}")
        return 0
    a, b = (run_tree(src, argvs) for src in args.compare)
    differ = [cmd for cmd, x, y in zip(argvs, a, b) if x != y]
    for cmd in differ:
        print(shlex.join(cmd))
    print(f"{len(differ)} of {len(argvs)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
