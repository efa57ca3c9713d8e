"""The one way the tests run the command line: divgap.cli.run, in this interpreter.

run_cli captures stdout and stderr as the benchmark's job loop and
tools/cli_corpus.py do, and hands back what a process would: the exit code,
stdout and stderr. Tests that check the process itself (the entry point,
the import set, hash seeds, a hang caught by a timeout) start one instead;
fresh_interpreter is the one way they read an import set.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from subprocess import CompletedProcess
from unittest.mock import patch

from divgap import cli


def run_cli(*args: str) -> CompletedProcess:
    """`divgap ARGS` through cli.run, as a CompletedProcess.

    COLUMNS is 80 for the call only, so --help and usage reports wrap the
    same way whatever terminal runs the tests. cli.run leaves the
    interpreter's int-to-str guard raised, a defect that stays until the
    benchmark's certify oracle stops relying on it (cli.run's comment says
    why). Until then the guard is put back as it was before the call, so
    the tests after a CLI test run under the guard a fresh process has.
    """
    argv = list(args)
    out, err = io.StringIO(), io.StringIO()
    guard = sys.get_int_max_str_digits()
    try:
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.set_int_max_str_digits(guard)
    return CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def fresh_interpreter(code: str, *args: str):
    """The JSON that code prints in a fresh -S interpreter on this tree's src/."""
    # -S: no site, so nothing a site hook preloads can hide an import
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
