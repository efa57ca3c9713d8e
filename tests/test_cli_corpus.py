"""Smoke test for the byte-identity corpus in tools/cli_corpus.py."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_corpus)


def test_corpus_runs_this_tree_quickly_with_every_documented_exit_code():
    argvs = cli_corpus.commands()
    start = time.perf_counter()
    results = cli_corpus.run_tree(ROOT / "src", argvs)
    assert time.perf_counter() - start < 10
    assert len(results) == len(argvs) >= 318
    assert {code for _, code in results} == {0, 2, 3, 4}
