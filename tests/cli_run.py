"""The one way the tests run the command line: divgap.cli.run, in this interpreter.

run_cli captures stdout and stderr as the benchmark's job loop and
tools/cli_corpus.py do, and hands back what a process would: the exit code,
stdout and stderr. Tests that check the process itself (the entry point,
the import set, hash seeds, a hang caught by a timeout) start one instead.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from subprocess import CompletedProcess
from unittest.mock import patch

from divgap import cli

GUARDED = hasattr(sys, "get_int_max_str_digits")


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
    guard = sys.get_int_max_str_digits() if GUARDED else None
    try:
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        if GUARDED:
            sys.set_int_max_str_digits(guard)
    return CompletedProcess(argv, code, out.getvalue(), err.getvalue())
