"""End-to-end tests of the command-line interface.

Commands run through divgap.cli.run in this interpreter (tests/cli_run.py),
with stdout, stderr and the exit code captured as a shell user would see
them, so these tests cover argument parsing, output formatting and exit
codes. Golden outputs are byte-exact. A few tests start `python -m divgap`
itself: the entry point must give the same bytes as cli.run, and two fresh
interpreters must agree with each other.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cli_run import fresh_interpreter, run_cli

import divgap
from divgap import cli
from divgap.cli import ECHO_CHARS, build_parser
from divgap.errors import ARGUMENT_DIGITS, ResourceLimit


def run_process(*args):
    """`python -m divgap ARGS` in a fresh interpreter, with COLUMNS as run_cli sets it."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(divgap.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "divgap", *args],
                          capture_output=True, text=True, timeout=120, env=env)


def envelope(*args):
    """Run with --json and parse the envelope, preserving key order."""
    proc = run_cli(*args, "--json")
    payload = json.loads(proc.stdout, object_pairs_hook=lambda kv: kv)
    return proc, payload


# --- golden plain outputs ---


def test_seq_a_golden():
    proc = run_cli("seq", "a", "--max", "7", "--path", "oracle")
    assert proc.returncode == 0
    assert proc.stdout == "0 4\n1 3\n2 4\n3 2\n4 4\n5 8\n6 16\n7 64\n"


def test_seq_b_golden():
    proc = run_cli("seq", "b", "--max", "9")
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n2 1\n3 1\n4 2\n5 3\n6 4\n7 6\n8 9\n9 14\n"


def test_delta_golden():
    proc = run_cli("delta", "48", "--above", "1")
    assert proc.returncode == 0
    assert proc.stdout == "2 (pair 6 8)\n"


def test_delta_without_threshold():
    proc = run_cli("delta", "48")
    assert proc.returncode == 0
    assert proc.stdout == "2 (pair 6 8)\n"


def test_divisors_plain_and_count():
    proc = run_cli("divisors", "48")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "1 2 3 4 6 8 12 16 24 48"
    proc = run_cli("divisors", "48", "--count-only")
    assert proc.stdout.strip().endswith("10")


def test_josephus_plain():
    proc = run_cli("josephus", "--n", "41", "--q", "3")
    assert proc.returncode == 0
    assert "31" in proc.stdout
    assert "agree" in proc.stdout


def test_theorem_plain():
    proc = run_cli("theorem", "--max", "12")
    assert proc.returncode == 0
    assert "10 checks" in proc.stdout


def test_theorem_prints_exponents_at_forty():
    # per-term values have millions of bits; the report must stay exponent-only
    proc = run_cli("theorem", "--max", "40")
    assert proc.returncode == 0
    assert "n=40 gap=2^3986219 expected=2^3986219 ok" in proc.stdout


@pytest.mark.parametrize("skew, line", [
    ("cross_check", "n=5 gap=2^3 expected=2^3 MISMATCH"),
    ("odd_gap", "n=5 gap=2^? expected=2^3 MISMATCH"),
])
def test_theorem_prints_a_failed_record(monkeypatch, skew, line):
    # n = 5 walks the product 384 = 2^7 * 3, split as p = 2, E = 7. The
    # trial-division cross-check disagreeing there fails a record whose
    # exponents match; a gap of 3 * 8 has no exponent to print
    sequences = divgap.sequences
    if skew == "cross_check":
        real = sequences.delta_above
        monkeypatch.setattr(sequences, "delta_above", lambda m, t, **kwargs: (
            divgap.divisors.DivisorPair(1, m) if m == 384 else real(m, t, **kwargs)))
    else:
        real = sequences._gap_exponents
        monkeypatch.setattr(sequences, "_gap_exponents", lambda step, *args: (
            {2: 3, 3: 1} if step[:2] == (2, 7) else real(step, *args)))
    proc = run_cli("theorem", "--max", "8")
    assert proc.returncode == 4
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["n=3 gap=2^1 expected=2^1 ok", "n=4 gap=2^2 expected=2^2 ok"]
    assert lines[2] == line
    assert lines[-1].endswith(" of 6 checks FAILED")
    # --json folds the same records into a count and the failures
    result = json.loads(run_cli("theorem", "--max", "8", "--json").stdout)["result"]
    assert result["checked"] == "6" and result["all_passed"] is False
    assert [f"n={f['n']}" for f in result["failures"]] == [
        line.split()[0] for line in lines if line.endswith("MISMATCH")]


def test_theorem_formats_no_lines_under_json():
    args = build_parser().parse_args(["theorem", "--max", "20", "--json"])
    result, lines, ok = args.handler(args)
    assert lines == []
    assert ok and result["checked"] == 18 and result["failures"] == []


def test_theorem_json_folds_the_record_stream_in_small_memory():
    # the plain report keeps every record, each holding b(n): a peak near
    # 33 MiB at n = 2 * 10**4. --json keeps only a count and the failures.
    # A first run loads the modules, so the peak counts only the run
    run_cli("theorem", "--max", "3", "--json")
    tracemalloc.start()
    try:
        proc = run_cli("theorem", "--max", "20000", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["checked"] == "19998" and result["all_passed"] is True


def test_seq_print_budget():
    proc = run_cli("seq", "a", "--max", "13", "--digit-limit", "20")
    assert proc.returncode == 3
    assert "--digit-limit" in proc.stderr
    # machine-scale terms print under any budget
    proc = run_cli("seq", "a", "--max", "7", "--digit-limit", "1")
    assert proc.returncode == 0


def test_seq_digit_limit_must_be_positive():
    for bad in ("0", "-5", "abc"):
        proc = run_cli("seq", "a", "--max", "7", "--digit-limit", bad)
        assert proc.returncode == 2
        assert "--digit-limit" in proc.stderr
        assert "_positive_int" not in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, flag",
    [
        (("constants", "c"), "--terms"),
        (("constants", "k3"), "--digits"),
        (("verify", "relation"), "--terms"),
        (("reproduce", "--fast-only"), "--terms"),
        (("divisors", "48"), "--divisor-cap"),
        (("divisors", "48"), "--oracle-bound"),
        (("delta", "48"), "--oracle-bound"),
        (("seq", "a", "--max", "3"), "--oracle-bound"),
        (("theorem", "--max", "3"), "--oracle-bound"),
        (("verify", "relation"), "--min-places"),
    ],
)
def test_term_and_place_counts_must_be_positive(args, flag):
    for bad in ("0", "-5", "abc"):
        proc = run_cli(*args, flag, bad)
        assert proc.returncode == 2
        assert flag in proc.stderr
        assert "_positive_int" not in proc.stderr
        assert proc.stdout == ""


def test_seq_refuses_unprintable_range_and_fast_path():
    proc = run_cli("seq", "a", "--max", "200")
    assert proc.returncode == 3
    assert "digit" in proc.stderr
    # the path that trusted the identity is gone; argparse refuses it
    proc = run_cli("seq", "a", "--max", "7", "--path", "fast")
    assert proc.returncode == 2
    assert "--path" in proc.stderr
    assert proc.stdout == ""


def test_lemma_2_carries_the_note():
    proc = run_cli("lemma", "2", "--max-k", "20")
    assert proc.returncode == 0
    assert "note:" in proc.stdout
    assert "ceil(k/2) - 1" in proc.stdout


@pytest.mark.parametrize("gap, got, actual", [
    (((2, 3),), "2^3", "3"),
    (((2, 2), (3, 1)), "2^?", None),  # not a power of two
])
def test_lemma_2_failure_prints_exponents(monkeypatch, gap, got, actual):
    # the walk's step on 3 * 2**5 splits the product as p = 2, E = 5
    divisors = divgap.divisors
    real = divisors._gap_exponents
    monkeypatch.setattr(divisors, "_gap_exponents",
                        lambda step, *args: dict(gap) if step[:2] == (2, 5) else real(step, *args))
    proc = run_cli("lemma", "2", "--max-k", "40")
    assert proc.returncode == 4
    assert proc.stdout.splitlines()[0] == f"k=5 expected=2^2 got={got} MISMATCH"
    proc = run_cli("lemma", "2", "--max-k", "40", "--json")
    assert proc.returncode == 4
    failures = json.loads(proc.stdout)["result"]["failures"]
    assert failures == [{"k": "5", "expected_exponent": "2", "actual_exponent": actual}]


def test_constants_c_plain():
    proc = run_cli("constants", "c", "--terms", "200")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "0.3605045561966149591015446628665164"
    assert "certified places: 34" in lines[1]


def test_constants_digit_cap():
    proc = run_cli("constants", "c", "--terms", "200", "--digits", "6")
    assert proc.stdout.splitlines()[0] == "0.360504"


def test_verify_relation_plain():
    proc = run_cli("verify", "relation", "--terms", "200", "--min-places", "24")
    assert proc.returncode == 0
    assert "34" in proc.stdout


# --- b-file output ---


def test_bfile_format():
    proc = run_cli("seq", "b", "--max", "9", "--bfile")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 1" and lines[-1] == "9 14"
    indices = [int(line.split()[0]) for line in lines]
    assert indices == list(range(1, 10))


def test_bfile_only_applies_to_seq():
    proc = run_cli("delta", "48", "--bfile")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "seq" in proc.stderr


def test_bfile_and_json_are_exclusive():
    proc = run_cli("seq", "a", "--max", "5", "--bfile", "--json")
    assert proc.returncode == 2


# --- JSON envelopes ---


def test_envelope_key_order_and_status():
    proc, payload = envelope("delta", "48", "--above", "1")
    assert proc.returncode == 0
    assert [k for k, _ in payload] == ["command", "parameters", "result", "status"]
    top = dict(payload)
    assert top["command"] == "delta"
    assert top["status"] == "ok"


def test_envelope_big_integers_are_decimal_strings():
    proc, payload = envelope("seq", "a", "--max", "12")
    top = dict(payload)
    terms = dict(top["result"])["terms"]
    assert all(isinstance(t, str) for t in terms)
    assert terms[:4] == ["4", "3", "4", "2"]
    # a late term only a bigint could hold survives the round trip
    assert int(terms[12]) == 1 << 47


@pytest.mark.parametrize("which, last", [("a", "30"), ("b", "300")])
def test_seq_json_terms_match_the_plain_lines(which, last):
    from divgap.intervals import SPLIT_BITS

    plain = run_cli("seq", which, "--max", last).stdout.splitlines()
    _, payload = envelope("seq", which, "--max", last)
    terms = dict(dict(payload)["result"])["terms"]
    assert terms == [line.split()[1] for line in plain]
    if which == "a":
        # the last gap term renders through decimal_str's split path
        assert len(terms[-1]) > SPLIT_BITS * 30103 // 100000 + 1


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # sys.modules is read before the snippet imports json to print it
    loaded = fresh_interpreter(
        "import sys, divgap, divgap.cli; divgap.cli.build_parser(); "
        "loaded = [m for m in sys.modules if m.split('.')[0] in "
        "('divgap', 'dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'json')]; "
        "import json; print(json.dumps(loaded))"
    )
    # the parser shows its defaults from errors.py; no library module loads
    assert sorted(loaded) == ["divgap", "divgap.cli", "divgap.errors"]


# the divgap modules besides cli and errors that each subcommand loads in a
# fresh interpreter, and whether fractions and decimal load with them; json
# loads with none of them
RUNS_ONLY = [
    (("josephus", "--n", "10", "--q", "2"), {"josephus", "report"}, False),
    (("delta", "48"), {"divisors", "report"}, False),
    (("divisors", "48"), {"divisors", "report"}, False),
    (("lemma", "1"), {"divisors", "report"}, False),
    (("lemma", "2"), {"divisors", "report"}, False),
    (("seq", "a", "--max", "7"), {"divisors", "report", "sequences", "intervals"}, True),
    (("theorem", "--max", "10"), {"divisors", "report", "sequences", "intervals"}, True),
    (("constants", "k3"), {"report", "intervals", "constants"}, True),
    (("verify", "relation"), {"report", "intervals", "constants"}, True),
    (("reproduce", "--fast-only"),
     {"divisors", "report", "sequences", "intervals", "constants"}, True),
]


@pytest.mark.parametrize("args, modules, numeric", RUNS_ONLY,
                         ids=[" ".join(args) for args, _, _ in RUNS_ONLY])
def test_each_subcommand_imports_only_what_it_runs(args, modules, numeric):
    # a fresh process, because an in-process run can pass on modules an
    # earlier test already imported where a user's first run would fail
    code, out, err, loaded = fresh_interpreter(
        "import io, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from divgap import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with redirect_stdout(out), redirect_stderr(err):\n"
        "    code = cli.run(sys.argv[1:])\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.split('.')[0] in ('divgap', 'fractions', 'decimal', 'json')]\n"
        "import json\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue(), loaded]))",
        *args,
    )
    ours = run_cli(*args)
    assert (code, out, err) == (ours.returncode, ours.stdout, ours.stderr)
    assert code == 0
    assert set(loaded) == ({"divgap", "divgap.cli", "divgap.errors"}
                           | {f"divgap.{m}" for m in modules}
                           | ({"fractions", "decimal"} if numeric else set()))


def test_envelope_round_trips():
    proc = run_cli("constants", "k3", "--terms", "60", "--json")
    text = proc.stdout
    parsed = json.loads(text)
    assert json.dumps(parsed) == json.dumps(json.loads(json.dumps(parsed)))


# every subcommand's parameters, in the order the envelope echoes them
PARAMETER_KEYS = {
    "seq": (("seq", "b", "--max", "3"), ["which", "max", "digit_limit"]),
    "seq a": (("seq", "a", "--max", "3"), ["which", "max", "path", "oracle_bound", "digit_limit"]),
    "delta": (("delta", "48"), ["m", "above", "oracle_bound"]),
    "divisors": (("divisors", "48"), ["m", "count_only", "oracle_bound", "divisor_cap"]),
    "theorem": (("theorem", "--max", "3"), ["max", "path", "oracle_bound"]),
    "lemma": (("lemma", "1", "--max-k", "3"), ["which", "max_k"]),
    "josephus": (("josephus", "--n", "5", "--q", "2"), ["n", "q", "algo", "sim_cap"]),
    "constants": (("constants", "c", "--terms", "5"), ["which", "terms", "digits"]),
    "verify": (("verify", "relation", "--terms", "200"), ["target", "terms", "min_places"]),
    "reproduce": (("reproduce", "--fast-only", "--terms", "60"), ["fast_only", "terms"]),
}


@pytest.mark.parametrize("command", PARAMETER_KEYS)
def test_json_parameter_keys_per_subcommand(command):
    args, keys = PARAMETER_KEYS[command]
    _, payload = envelope(*args)
    assert [k for k, _ in dict(payload)["parameters"]] == keys


@pytest.mark.parametrize("option", [
    ("--path", "oracle"), ("--path", "factored"), ("--oracle-bound", "5"), ("--or", "5"),
])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_seq_b_refuses_the_options_of_seq_a(option, json_flag):
    proc = run_cli("seq", "b", "--max", "3", *option, *json_flag)
    flag = "--oracle-bound" if option[0] == "--or" else option[0]
    message = f"{flag} applies only to seq a"
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
    if json_flag:
        payload = json.loads(proc.stdout)
        assert payload["status"] == "error"
        assert payload["result"] == {"error": "ValueError", "message": message}
        # the refused option is echoed as given, and the other not at all
        assert [k for k in payload["parameters"] if k in ("path", "oracle_bound")] == [
            flag[2:].replace("-", "_")]
    else:
        assert proc.stdout == ""


def test_json_parameters_echo_the_request():
    _, payload = envelope("josephus", "--n", "100", "--q", "4")
    params = dict(dict(payload)["parameters"])
    assert params["n"] == "100" and params["q"] == "4"


def test_json_error_envelope_on_resource_exit():
    proc = run_cli("seq", "a", "--max", "12", "--path", "oracle", "--json")
    assert proc.returncode == 3
    top = dict(json.loads(proc.stdout, object_pairs_hook=lambda kv: kv))
    assert top["status"] == "error"
    assert "error" in proc.stderr


def test_json_error_envelope_on_domain_error():
    proc = run_cli("delta", "0", "--json")
    assert proc.returncode == 2
    top = dict(json.loads(proc.stdout, object_pairs_hook=lambda kv: kv))
    assert top["status"] == "error"
    assert dict(top["result"])["error"] == "ValueError"
    plain = run_cli("delta", "0")
    assert plain.returncode == 2
    assert plain.stdout == ""
    assert "error" in plain.stderr


# --- determinism ---


@pytest.mark.parametrize(
    "args",
    [
        ("seq", "a", "--max", "20"),
        ("reproduce", "--fast-only", "--terms", "160"),
        ("constants", "c", "--terms", "80", "--json"),
    ],
)
def test_identical_argv_identical_bytes(args):
    # two interpreters, so two hash seeds
    first = run_process(*args)
    second = run_process(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


# --- exit codes ---


def test_exit_usage_on_bad_grammar():
    assert run_cli("seq", "a").returncode == 2  # --max missing
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("seq", "c", "--max", "4").returncode == 2
    assert run_cli("delta", "0").returncode == 2  # domain error reads as usage


USAGE_ERRORS = [
    (("constants", "c", "--terms", "0"), "constants", "argument --terms: must be at least 1"),
    (("seq", "a"), "seq", "the following arguments are required: --max"),
    (("frobnicate",), None, "invalid choice: 'frobnicate'"),
]


@pytest.mark.parametrize("args, command, message", USAGE_ERRORS)
def test_usage_errors_write_an_envelope_under_json(args, command, message):
    plain = run_cli(*args)
    proc = run_cli(*args, "--json")
    assert plain.returncode == proc.returncode == 2
    assert plain.stdout == ""
    # stderr carries the same usage report in both modes
    assert proc.stderr == plain.stderr
    assert plain.stderr.startswith("usage: divgap")
    payload = json.loads(proc.stdout, object_pairs_hook=lambda kv: kv)
    assert [k for k, _ in payload] == ["command", "parameters", "result", "status"]
    top = dict(payload)
    assert (top["command"], top["parameters"], top["status"]) == (command, [], "error")
    result = dict(top["result"])
    assert result["error"] == "UsageError"
    assert message in result["message"]


@pytest.mark.parametrize("args", [args for args, _, _ in USAGE_ERRORS])
def test_usage_report_is_argparse_own(args, capsys, monkeypatch):
    import argparse

    import divgap.cli

    ours = run_cli(*args)
    assert ours.returncode == 2
    assert ours.stdout == ""
    # argparse wraps its report to COLUMNS, which run_cli sets for its call
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(divgap.cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as exc:
        divgap.cli.build_parser().parse_args(list(args))
    assert exc.value.code == 2
    assert capsys.readouterr().err == ours.stderr


def test_help_under_json_writes_no_envelope():
    proc = run_cli("constants", "--help", "--json")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: divgap constants")
    assert "--terms" in proc.stdout
    assert proc.stderr == ""


# --- reading argv: the plain-form table ---


def table_reads_as_argparse(argv) -> bool:
    """Whether cli reads argv through its table; if so, argparse gives the same Namespace.

    Items and their order are compared, since the --json envelope echoes
    the parameters in vars() order, and argparse must parse argv without
    error.
    """
    ns = cli._read_plain(argv)
    if ns is not None:
        assert list(vars(ns).items()) == list(vars(build_parser().parse_args(argv)).items())
    return ns is not None


SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
LONG_TEXT = "1" * (ARGUMENT_DIGITS + 1)
VALUES = st.one_of(
    st.integers(min_value=-3, max_value=10**12).map(str),
    st.sampled_from(["a", "b", "c", "1", "2", "3", "k3", "relation", "factored", "oracle",
                     "all", "ow", "", "x", "1_000", " 7 ", "+3", "0x10", "-1", "-1_000",
                     "-x", "--", LONG_TEXT, "-" + LONG_TEXT, "x" * (ARGUMENT_DIGITS + 1)]))
OTHER_TOKENS = ["--json", "--bfile", "--", "-h", "--help", "--nope", "-x", "sequence", "se"]


def accepted_value(action):
    """A value the action's type and choices mostly accept."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    return st.integers(min_value=0, max_value=10**12).map(str)


@st.composite
def command_lines(draw):
    """argv from the CLI's grammar: a plain form, then a few ways of leaving it.

    The plain form has every positional and required option, some of the
    other options, each once, in any order; each edit then inserts,
    replaces or drops a token, abbreviates an option, joins its value with
    "=" or repeats it.
    """
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    items = []
    for action in SUBPARSERS[name]._actions:
        if action.option_strings == ["-h", "--help"]:
            continue
        if action.option_strings and not action.required and draw(st.booleans()):
            continue
        value = [] if action.nargs == 0 else [draw(accepted_value(action))]
        items.append(action.option_strings[-1:] + value)
    argv = [name, *(token for item in draw(st.permutations(items)) for token in item)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edit = draw(st.sampled_from(["insert", "replace", "drop", "abbreviate", "join",
                                     "repeat"]))
        options = [i for i, token in enumerate(argv) if token.startswith("--")]
        if edit in ("abbreviate", "join", "repeat") and options:
            i = draw(st.sampled_from(options))
            option = argv[i]
            if edit == "abbreviate":
                argv[i] = option[:draw(st.integers(min_value=2, max_value=len(option)))]
            elif edit == "join":
                argv[i:i + 2] = [f"{option}={draw(VALUES)}"]
            else:
                argv[i:i] = [option, draw(VALUES)]
            continue
        i = draw(st.integers(min_value=0, max_value=len(argv)))
        if edit == "drop" and i < len(argv):
            del argv[i]
        elif edit == "replace" and i < len(argv):
            argv[i] = draw(st.one_of(VALUES, st.sampled_from(OTHER_TOKENS)))
        else:
            argv.insert(i, draw(st.one_of(VALUES, st.sampled_from(OTHER_TOKENS))))
    return argv


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["seq", "a", "--max", "7", "--json", "--bfile"])
@example(["seq", "a", "--max", "7", "--max", "8"])
@example(["seq", "--max", "7", "a"])
@example(["seq", "a", "b", "--max", "7"])
@example(["seq", "a", "--max", "-1"])
@example(["seq", "a", "--max", ""])
@example(["seq", "a", "--max"])
@example(["seq", "a", "--ma", "7"])
@example(["seq", "a", "--max=7"])
@example(["seq", "a", "--", "--max", "7"])
@example(["delta", "--above", "5", "48"])
@example(["delta", "48", "--above", LONG_TEXT])
@example(["delta", "48", "--above", "-1_000"])
@example(["divisors", "--count-only", "48"])
@example(["theorem", "--max", "7", "--path", "trial"])
@example(["theorem", "--path", "oracle"])
@example(["lemma", "3"])
@example(["josephus", "--n", "10", "--q", "2", "-h"])
@example(["reproduce", "extra"])
@example(["sequence", "a", "--max", "7"])
@example([])
def test_the_table_reads_every_command_line_as_argparse_does(argv):
    event("table" if table_reads_as_argparse(argv) else "argparse")


def test_the_table_reads_the_corpus_as_argparse_does():
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    argvs = corpus.commands()
    taken = sum(map(table_reads_as_argparse, argvs))
    # the corpus mostly holds plain forms; its usage errors, --help and
    # refused values are what argparse reads
    assert 400 <= taken < len(argvs)


def completed(proc):
    return proc.returncode, proc.stdout, proc.stderr


BENCHMARK_SHAPED = [
    ("seq", "a", "--max", "7"),
    ("seq", "b", "--max", "7", "--json"),
    ("seq", "a", "--max", "36", "--path", "factored", "--bfile"),
    ("seq", "a", "--max", "51", "--json"),
    ("delta", "1234567", "--above", "5"),
    ("delta", "1234567", "--oracle-bound", "1000", "--json"),
    ("divisors", "1234567", "--count-only", "--json"),
    ("divisors", "1234567"),
    ("theorem", "--max", "50"),
    ("theorem", "--max", "50", "--json"),
    ("lemma", "1"),
    ("lemma", "2"),
    ("josephus", "--n", "1000", "--q", "3", "--algo", "all"),
    ("josephus", "--n", "123456789012", "--q", "5", "--algo", "ow", "--json"),
    ("constants", "k3", "--terms", "1000"),
    ("constants", "c", "--terms", "1000", "--json"),
    ("verify", "relation", "--terms", "1000"),
    ("reproduce", "--fast-only"),
]


def test_benchmark_shaped_command_lines_take_the_table(monkeypatch):
    assert {argv[0] for argv in BENCHMARK_SHAPED} == set(SUBPARSERS)
    for argv in BENCHMARK_SHAPED:
        assert table_reads_as_argparse(list(argv)), argv
    # argparse's bytes, with the table out of the way
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_read_plain", lambda argv: None)
        expected = {argv: completed(run_cli(*argv)) for argv in BENCHMARK_SHAPED}

    # run() gives the same bytes with argparse out of the way
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a plain command line")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    for argv in BENCHMARK_SHAPED:
        assert completed(run_cli(*argv)) == expected[argv]


def test_exit_resource_on_oracle_bound():
    proc = run_cli("seq", "a", "--max", "12", "--path", "oracle")
    assert proc.returncode == 3
    assert "--oracle-bound" in proc.stderr


def test_exit_resource_on_simulation_cap():
    proc = run_cli("josephus", "--n", "2000000", "--q", "3", "--algo", "simulation")
    assert proc.returncode == 3
    assert "--sim-cap" in proc.stderr


def test_sim_cap_must_be_positive():
    for bad in ("0", "-1", "abc"):
        proc = run_cli("josephus", "--n", "10", "--q", "3", "--sim-cap", bad)
        assert proc.returncode == 2
        assert "--sim-cap" in proc.stderr
        assert "_positive_int" not in proc.stderr
        assert proc.stdout == ""


def test_recurrence_reaches_huge_n():
    n = str(10**300)
    rec = run_cli("josephus", "--n", n, "--q", "7", "--algo", "recurrence")
    ow = run_cli("josephus", "--n", n, "--q", "7", "--algo", "ow")
    assert rec.returncode == ow.returncode == 0
    survivor = ow.stdout.split("survivor=")[1].split()[0]
    assert rec.stdout == f"n={n} q=7 survivor={survivor} [recurrence]\n"
    every = run_cli("josephus", "--n", n, "--q", "7", "--algo", "all")
    assert every.returncode == 3
    assert "--sim-cap" in every.stderr


@pytest.mark.parametrize("algo", ["ow", "all"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_ow_refuses_a_huge_q_at_once(algo, json_flag):
    start = time.perf_counter()
    proc = run_cli("josephus", "--n", "1000", "--q", str(10**12), "--algo", algo, *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.25
    assert "--algo recurrence" in err
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top["status"] == "error"
        assert dict(top["result"])["error"] == "ResourceLimit"
    else:
        assert out == ""


@pytest.mark.parametrize("algo", ["recurrence", "all"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_recurrence_refuses_a_huge_q_at_once(algo, json_flag):
    start = time.perf_counter()
    proc = run_cli("josephus", "--n", str(10**12), "--q", str(10**9), "--algo", algo, *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.25
    assert "--q" in err and "--n" in err
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top["status"] == "error"
        assert dict(top["result"])["error"] == "ResourceLimit"
    else:
        assert out == ""


@pytest.mark.parametrize("algo", ["recurrence", "ow", "all"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_survivor_routes_refuse_wide_terms_at_once(algo, json_flag):
    # n = 10^30000: 2 * 10^5 steps on 10^5-bit terms
    n = "1" + "0" * 30000
    start = time.perf_counter()
    proc = run_cli("josephus", "--n", n, "--q", "2", "--algo", algo, *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.05
    assert "--n" in err and n not in err
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top["status"] == "error"
        assert dict(top["result"])["error"] == "ResourceLimit"
    else:
        assert out == ""


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_long_n_is_refused_before_it_is_parsed(json_flag):
    # 300,000 digits: int() alone would take most of a second
    n = "1" + "0" * 299999
    start = time.perf_counter()
    proc = run_cli("josephus", "--n", n, "--q", "2", "--algo", "ow", *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.05
    assert err == ("error: --n has 300000 digits, above the 4300 an integer argument may "
                   "have; lower --n\n")
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top == {"command": "josephus", "parameters": [],
                       "result": [("error", "ResourceLimit"), ("message", err[7:-1])],
                       "status": "error"}
    else:
        assert out == ""


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_long_negative_n_is_a_usage_error(json_flag):
    n = "-" + "1" * 300000
    start = time.perf_counter()
    proc = run_cli("josephus", "--n", n, "--q", "2", *json_flag)
    assert time.perf_counter() - start < 0.05
    assert proc.returncode == 2
    assert "argument --n: must not be negative, got a negative value of 300000 digits" \
        in proc.stderr and n not in proc.stderr
    assert bool(proc.stdout) == bool(json_flag)


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_text_that_is_no_integer_is_a_usage_error_at_any_length(json_flag):
    # past the digit ceiling and below it, text that is not decimal once its
    # sign, whitespace and underscores are set aside is argparse's usage
    # error, and text longer than ECHO_CHARS is named by its length
    for text, shown in (("x" * ECHO_CHARS, repr("x" * ECHO_CHARS)),
                        ("x" * (ECHO_CHARS + 1), f"<{ECHO_CHARS + 1}-character text>"),
                        ("x" * 4000, "<4000-character text>"),
                        ("x" * 5000, "<5000-character text>"),
                        (" -1_2" + "3" * 5000 + "x", "<5006-character text>"),
                        ("\t" * 5000, "<5000-character text>")):
        start = time.perf_counter()
        proc = run_cli("delta", text, *json_flag)
        assert time.perf_counter() - start < 0.05
        assert proc.returncode == 2
        message = f"argument m: invalid int value: {shown}"
        assert proc.stderr.endswith(f"divgap delta: error: {message}\n")
        assert len(proc.stderr) < 300
        if json_flag:
            assert json.loads(proc.stdout) == {
                "command": "delta", "parameters": {},
                "result": {"error": "UsageError", "message": message}, "status": "error"}
        else:
            assert proc.stdout == ""
    proc = run_cli("divisors", "48", "--divisor-cap", "y" * 5000, *json_flag)
    assert proc.returncode == 2
    assert proc.stderr.endswith(
        "argument --divisor-cap: expected a positive integer, got <5000-character text>\n")


def test_the_digit_count_skips_what_int_accepts_around_the_digits():
    # leading zeros, whitespace, a sign and underscores are no digits
    for n in ("0" * 5000 + "7", " +0_0" + "0" * 4400 + "7\t"):
        proc = run_cli("josephus", "--n", n, "--q", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n=7 q=2 survivor=7 [recurrence]"
    # up to ARGUMENT_DIGITS digits the routes decide: the bit budget admits
    # 10^1702 and refuses 10^1703, 1,704 digits, and 4,300 nines
    proc = run_cli("josephus", "--n", "1" + "0" * 1702, "--q", "2", "--algo", "ow")
    assert proc.returncode == 0
    for n in ("1" + "0" * 1703, "9" * ARGUMENT_DIGITS):
        proc = run_cli("josephus", "--n", n, "--q", "2", "--algo", "ow")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: the ceiling iteration would take")
    # one digit more is refused by its length, however it is padded
    for n in ("1" + "0" * ARGUMENT_DIGITS, " +0_0" + "9" * (ARGUMENT_DIGITS + 1)):
        proc = run_cli("josephus", "--n", n, "--q", "2", "--algo", "ow")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: --n has 4301 digits")
    # what is no integer stays argparse's usage error
    proc = run_cli("josephus", "--n", "12x", "--q", "2")
    assert proc.returncode == 2
    assert proc.stderr.endswith("argument --n: invalid int value: '12x'\n")


@pytest.mark.parametrize("game", [
    ("--n", "1000000", "--q", str(10**12)),
    ("--n", str(2**32 + 1), "--q", "2", "--sim-cap", str(2**33)),
], ids=["moves", "labels"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_simulation_refuses_at_once(game, json_flag):
    start = time.perf_counter()
    proc = run_cli("josephus", *game, "--algo", "simulation", *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.25
    assert "--algo recurrence" in err
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top["status"] == "error"
        assert dict(top["result"])["error"] == "ResourceLimit"
    else:
        assert out == ""


@pytest.mark.parametrize("which", ["1", "2"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_lemma_refuses_a_huge_max_k_at_once(which, json_flag):
    # 10^8 records would need about 18 GB; the limit refuses before any
    start = time.perf_counter()
    proc = run_cli("lemma", which, "--max-k", str(10**8), *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.05
    assert "--max-k" in err
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top["status"] == "error"
        assert dict(top["result"])["error"] == "ResourceLimit"
    else:
        assert out == ""


@pytest.mark.parametrize("which", ["1", "2"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_long_max_k_is_refused_before_it_is_parsed(which, json_flag):
    # 300,000 digits: int() alone would take most of a second
    k = "1" + "0" * 299999
    start = time.perf_counter()
    proc = run_cli("lemma", which, "--max-k", k, *json_flag)
    elapsed = time.perf_counter() - start
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == 3
    assert elapsed < 0.05
    assert err == ("error: --max-k has 300000 digits, above the 4300 an integer argument "
                   "may have; lower --max-k\n")
    if json_flag:
        top = dict(json.loads(out, object_pairs_hook=lambda kv: kv))
        assert top == {"command": "lemma", "parameters": [],
                       "result": [("error", "ResourceLimit"), ("message", err[7:-1])],
                       "status": "error"}
    else:
        assert out == ""


def test_max_k_keeps_its_range_errors_up_to_the_limit_digits():
    # up to ARGUMENT_DIGITS digits the law refuses, naming a long value by its size
    for k, shown in (("100001", "100001"), ("1000000", "1000000"),
                     ("9" * ARGUMENT_DIGITS, "<14285-bit integer>")):
        proc = run_cli("lemma", "1", "--max-k", k)
        assert proc.returncode == 3
        assert proc.stderr == (f"error: max_k={shown} is above the limit 100000 "
                               "(one record is kept per k); lower --max-k\n")
    for k, shown in (("-5", "-5"), ("-" + "9" * ARGUMENT_DIGITS, "-<14285-bit integer>")):
        proc = run_cli("lemma", "2", "--max-k", k)
        assert proc.returncode == 2
        assert proc.stderr == f"error: max_k must be at least 1, got {shown}\n"
    # a negative one past the count is a usage error, and so is no integer
    proc = run_cli("lemma", "2", "--max-k", "-" + "9" * 5000)
    assert proc.returncode == 2
    assert "argument --max-k: must not be negative, got a negative value of 5000 digits" \
        in proc.stderr
    proc = run_cli("lemma", "1", "--max-k", "3.5")
    assert proc.returncode == 2
    assert proc.stderr.endswith("argument --max-k: invalid int value: '3.5'\n")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_seq_refuses_the_first_term_over_the_print_budget_as_it_streams(json_flag):
    # records are checked as the walk yields them: a billion terms stop at
    # term 40, as forty do, without walking a term past it
    start = time.perf_counter()
    tracemalloc.start()
    try:
        proc = run_cli("seq", "a", "--max", "1000000000", *json_flag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2**20
    assert proc.returncode == 3
    assert proc.stderr == run_cli("seq", "a", "--max", "40", *json_flag).stderr
    assert proc.stderr.startswith("error: term 40 needs about 1199972 decimal digits")


@pytest.mark.parametrize("command", ["delta", "divisors"])
def test_a_long_argument_is_refused_without_echoing_it(command):
    # ARGUMENT_DIGITS digits reach the oracle bound, one more the digit ceiling
    for m, named in (("7" * ARGUMENT_DIGITS, ("--oracle-bound", "14284-bit")),
                     ("7" * 5000, ("m has 5000 digits", "lower m"))):
        proc = run_cli(command, m)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert all(part in proc.stderr for part in named)
        assert "7" * 100 not in proc.stderr
        assert len(proc.stderr) < 300


# every integer argument, as the argv that reaches it with {} in its place
INTEGER_ARGUMENTS = [
    ("seq", "a", "--max", "{}"),
    ("seq", "a", "--max", "3", "--oracle-bound", "{}"),
    ("seq", "a", "--max", "3", "--digit-limit", "{}"),
    ("delta", "{}"),
    ("delta", "48", "--above", "{}"),
    ("delta", "48", "--oracle-bound", "{}"),
    ("divisors", "{}"),
    ("divisors", "48", "--oracle-bound", "{}"),
    ("divisors", "48", "--divisor-cap", "{}"),
    ("theorem", "--max", "{}"),
    ("theorem", "--max", "3", "--oracle-bound", "{}"),
    ("lemma", "1", "--max-k", "{}"),
    ("josephus", "--n", "{}", "--q", "2"),
    ("josephus", "--n", "5", "--q", "{}"),
    ("josephus", "--n", "5", "--q", "2", "--sim-cap", "{}"),
    ("constants", "c", "--terms", "{}"),
    ("constants", "c", "--digits", "{}"),
    ("verify", "relation", "--terms", "{}"),
    ("verify", "relation", "--min-places", "{}"),
    ("reproduce", "--terms", "{}"),
]


def argument_name(argv):
    """The option in front of the {} of argv, or m for the positional one."""
    i = argv.index("{}")
    return argv[i - 1] if argv[i - 1].startswith("--") else "m"


def test_the_integer_arguments_are_every_typed_argument_of_the_parser():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    typed = {(name, a.option_strings[0] if a.option_strings else a.dest)
             for name, p in sub.choices.items() for a in p._actions if a.type is not None}
    listed = {(argv[0], argument_name(argv)) for argv in INTEGER_ARGUMENTS}
    assert typed == listed and len(listed) == len(INTEGER_ARGUMENTS) == 20


@pytest.mark.parametrize("argv", INTEGER_ARGUMENTS, ids=" ".join)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_every_integer_argument_has_one_digit_ceiling(argv, json_flag):
    flag = argument_name(argv)

    def at(value):
        return [value if a == "{}" else a for a in argv] + list(json_flag)

    # 300,000 digits are refused by their count, before int() reads them
    start = time.perf_counter()
    proc = run_cli(*at("1" + "0" * 299999))
    assert time.perf_counter() - start < 0.05
    assert proc.returncode == 3
    err = (f"error: {flag} has 300000 digits, above the 4300 an integer argument may have; "
           f"lower {flag}\n")
    assert proc.stderr == err
    if json_flag:
        assert json.loads(proc.stdout) == {
            "command": argv[0], "parameters": {}, "status": "error",
            "result": {"error": "ResourceLimit", "message": err[7:-1]}}
    else:
        assert proc.stdout == ""
    # a negative one that long is a usage error
    proc = run_cli(*at("-" + "1" * 300000))
    assert proc.returncode == 2
    assert proc.stderr.endswith(
        f"argument {flag}: must not be negative, got a negative value of 300000 digits\n")
    assert bool(proc.stdout) == bool(json_flag)
    # ARGUMENT_DIGITS digits parse and go to the route; one more does not
    value = "9" * ARGUMENT_DIGITS
    args = build_parser().parse_args(at(value))
    assert int(value) in vars(args).values()
    with pytest.raises(ResourceLimit, match=f"^{flag} has {ARGUMENT_DIGITS + 1} digits"):
        build_parser().parse_args(at(value + "9"))


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_seq_a_past_the_machine_size_stops_at_the_print_budget(json_flag):
    # the stream is bounded by a range, so a stop above sys.maxsize is no
    # usage error: 10^19 terms stop at term 40, as a billion do
    proc = run_cli("seq", "a", "--max", "10000000000000000000", *json_flag)
    assert proc.returncode == 3
    assert proc.stderr == run_cli("seq", "a", "--max", "40", *json_flag).stderr
    assert proc.stderr.startswith("error: term 40 needs about 1199972 decimal digits")


def test_messages_name_long_command_line_integers_by_their_size():
    big, neg = str(10**100), str(-(10**100))
    for args, code, shown in [
        (("delta", "48", "--above", big), 4,
         "no divisor pair of 48 has difference above <333-bit integer>"),
        (("josephus", "--n", big, "--q", "2", "--algo", "simulation"), 3,
         "n=<333-bit integer> exceeds the simulation cap 1000000"),
        (("josephus", "--n", neg, "--q", "2"), 2, "n must be at least 1, got -<333-bit integer>"),
        (("josephus", "--n", "5", "--q", neg), 2, "q must be at least 2, got -<333-bit integer>"),
        (("delta", neg), 2, "m must be positive, got -<333-bit integer>"),
        (("delta", "48", "--above", neg), 2,
         "threshold must be nonnegative, got -<333-bit integer>"),
        (("seq", "a", "--max", neg), 2, "n_max must be nonnegative, got -<333-bit integer>"),
        (("theorem", "--max", neg), 2, "n_max must be at least 3, got -<333-bit integer>"),
        (("seq", "a", "--max", "3", "--digit-limit", neg), 2,
         "argument --digit-limit: must be at least 1, got -<333-bit integer>"),
    ]:
        proc = run_cli(*args)
        assert proc.returncode == code, args
        assert shown in proc.stderr and "0" * 100 not in proc.stderr, args
    # the factored walk's refusal names its threshold the same way
    with pytest.raises(divgap.NoQualifyingPair, match="difference above <333-bit integer>$"):
        divgap.delta_above(divgap.Factorization(((2, 4), (3, 1))), 10**100)


def test_raising_the_caps_unlocks_the_run():
    proc = run_cli(
        "josephus", "--n", "2000000", "--q", "2", "--algo", "simulation",
        "--sim-cap", "3000000",
    )
    assert proc.returncode == 0
    # closed form: 2000000 = 2^20 + 951424, survivor 2*951424 + 1
    assert "1902849" in proc.stdout


def test_exit_finding_when_no_pair_qualifies():
    proc = run_cli("delta", "2", "--above", "1")
    assert proc.returncode == 4


def test_exit_resource_when_precision_falls_short():
    proc = run_cli("verify", "relation", "--terms", "50", "--min-places", "24")
    assert proc.returncode == 3
    assert "--terms" in proc.stderr


def test_reproduce_refuses_too_few_terms():
    proc = run_cli("reproduce", "--fast-only", "--terms", "60")
    assert proc.returncode == 3
    assert "--terms" in proc.stderr
    assert proc.stdout == ""
    proc, payload = envelope("reproduce", "--fast-only", "--terms", "60")
    assert proc.returncode == 3
    top = dict(payload)
    assert top["status"] == "error"
    assert dict(top["result"])["error"] == "InsufficientPrecision"


@pytest.mark.parametrize("terms, relation_places, named", [
    ("140", 24, "growth constant"),  # c short of 26 places, the relation at its 24
    ("160", 30, "relation"),  # c at 28 places, the relation short of a raised 30
])
def test_reproduce_refuses_each_shortfall(monkeypatch, terms, relation_places, named):
    from divgap import cli

    monkeypatch.setattr(cli, "RELATION_PLACES", relation_places)
    proc = run_cli("reproduce", "--fast-only", "--terms", terms)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert named in proc.stderr and "--terms" in proc.stderr


@pytest.mark.parametrize("reference, terms", [
    ("0.36050455619661495910154467", "200"),  # wrong in the 26th place
    ("0.37050455619661495910154466", "60"),  # wrong in a place 60 terms certify
])
def test_reproduce_fails_on_a_disagreeing_prefix(monkeypatch, reference, terms):
    from divgap import cli

    monkeypatch.setattr(cli, "C_REFERENCE_26", reference)
    proc = run_cli("reproduce", "--fast-only", "--terms", terms)
    assert proc.returncode == 4
    row = proc.stdout.splitlines()[-3]
    assert row.startswith("growth constant to 26 places")
    assert row.endswith("FAIL")


def test_reproduce_default_passes():
    proc = run_cli("reproduce")
    assert proc.returncode == 0
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("10 pass, 1 flagged finding")


def test_reproduce_json_contains_rows():
    proc, payload = envelope("reproduce", "--fast-only")
    assert proc.returncode == 0
    top = dict(payload)
    rows = [dict(r) for r in dict(top["result"])["rows"]]
    verdicts = {r["verdict"] for r in rows}
    assert verdicts <= {"PASS", "FINDING"}
    assert any(r["verdict"] == "FINDING" for r in rows)


# --- the process around run ---


@pytest.mark.parametrize("args, code", [
    (("seq", "a", "--max", "7"), 0),
    (("seq", "a", "--json"), 2),
    (("delta", "48", "--oracle-bound", "10"), 3),
    (("delta", "2", "--above", "1"), 4),
    (("constants", "--help"), 0),
])
def test_entry_point_matches_run(args, code):
    proc = run_process(*args)
    assert proc.returncode == code
    ours = run_cli(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        ours.returncode, ours.stdout, ours.stderr)


@pytest.mark.parametrize("start, after", [
    ("0", 0), ("4300", cli.DIGIT_PRINT_LIMIT + 100), ("2000000", 2000000)])
def test_run_only_ever_raises_the_guard(monkeypatch, start, after):
    # PYTHONINTMAXSTRDIGITS=0 starts an interpreter with no limit at all,
    # which raising the limit to a number would tighten
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", start)
    assert fresh_interpreter(
        "import io, json, sys; from contextlib import redirect_stdout; from divgap import cli\n"
        "with redirect_stdout(io.StringIO()):\n    cli.run(['seq', 'a', '--max', '7'])\n"
        "print(json.dumps(sys.get_int_max_str_digits()))") == after


def test_run_cli_puts_the_guard_back():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run_cli("seq", "a", "--max", "7").returncode == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)
