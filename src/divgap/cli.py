"""Command-line interface: every library operation behind one executable.

Output modes: plain text (default), --json (a stable envelope with all
integers as decimal strings), and --bfile (seq only: its plain index/value
lines). Exit codes: 0 ok, 2 usage, 3 resource or precision limit, 4 a
mathematically meaningful negative result.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from math import floor

# Building the parser loads nothing of the library but errors.py, which holds
# every default the parser shows; each handler imports the modules it runs
from .errors import (
    A_PATHS,
    ARGUMENT_DIGITS,
    DEFAULT_TERMS,
    DIVISOR_CAP,
    ECHO_BITS,
    EXIT_FINDING,
    EXIT_OK,
    EXIT_USAGE,
    ORACLE_BOUND,
    SIMULATION_CAP,
    DivgapError,
    InsufficientPrecision,
    ResourceLimit,
    brief,
    outcome,
)

C_REFERENCE_26 = "0.36050455619661495910154466"
# places c and (2/9)*K3 must share for the relation to count as reproduced
RELATION_PLACES = 24

# Largest decimal rendering seq will attempt per term. Through decimal_str a
# million-digit term takes 0.08 s as a power of two and 0.54 s in general
# (2-core Xeon, CPython 3.11); int.__str__ would take about 18 s.
DIGIT_PRINT_LIMIT = 10**6

# namespace entries that select the command or output mode rather than echo
# a request parameter
_NOT_PARAMETERS = ("command", "json", "bfile", "handler")


def _jsonable(x, decimal_str):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return decimal_str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, decimal_str) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v, decimal_str) for k, v in x.items()}
    from fractions import Fraction

    if isinstance(x, Fraction):
        return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _print_json(payload: dict) -> None:
    # only --json output loads json
    import json

    print(json.dumps(payload))


def _command_label(args) -> str:
    which = getattr(args, "which", None)
    if args.command == "verify":
        return f"verify {args.target}"
    return f"{args.command} {which}" if which is not None else args.command


def _envelope(args, result, status) -> dict:
    # integers render through intervals, imported once per envelope rather
    # than once per integer
    from .intervals import decimal_str

    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    return {
        "command": _command_label(args),
        "parameters": _jsonable(params, decimal_str),
        "result": _jsonable(result, decimal_str),
        "status": status,
    }


# --- subcommand handlers ---
#
# Each returns (result, lines, ok): the --json result, the plain lines (none
# needed under --json), and whether the run found what it checks for; run()
# maps ok to the status and the exit code.


def _cmd_seq(args) -> tuple[dict, list[str], bool]:
    from .intervals import LOG10_2_UPPER, decimal_str
    from .sequences import _a_prefix, _b_prefix

    # --path and --oracle-bound are None when not given: seq a fills in
    # their defaults in place, so its echo keeps their order, and seq b
    # echoes neither and refuses either one given
    if args.which == "a":
        if args.path is None:
            args.path = "factored"
        if args.oracle_bound is None:
            args.oracle_bound = ORACLE_BOUND
        start, path, stream = 0, args.path, _a_prefix(args.max, args.path, args.oracle_bound)
    else:
        options = (("path", "--path"), ("oracle_bound", "--oracle-bound"))
        for dest, _ in options:
            if getattr(args, dest) is None:
                delattr(args, dest)
        for dest, flag in options:
            if hasattr(args, dest):
                raise ValueError(f"{flag} applies only to seq a")
        start, path, stream = 1, "recurrence", _b_prefix(args.max)
    # refuse the first term beyond the print budget as the records arrive,
    # before any term past it is computed or any term is rendered;
    # machine-scale terms always print, whatever the budget
    bit_budget = floor(args.digit_limit / LOG10_2_UPPER)
    records = []
    for n, (odd, e) in enumerate(stream, start=start):
        bits = odd.bit_length() + e
        if bits > 64 and bits > bit_budget:
            raise ResourceLimit(
                f"term {n} needs about {floor(bits * LOG10_2_UPPER) + 1} decimal "
                f"digits, above the print limit {args.digit_limit}; "
                "raise it with --digit-limit"
            )
        records.append((odd, e))
    digits = [decimal_str(odd << e) for odd, e in records]
    lines = [] if args.json else [f"{i} {d}" for i, d in enumerate(digits, start=start)]
    result = {"name": args.which, "start_index": start, "path": path, "terms": digits}
    return result, lines, True


def _cmd_delta(args) -> tuple[dict, list[str], bool]:
    from .divisors import delta_above, delta_pair

    if args.above is not None:
        pair = delta_above(args.m, args.above, oracle_bound=args.oracle_bound)
    else:
        pair = delta_pair(args.m, oracle_bound=args.oracle_bound)
    result = {
        "m": args.m,
        "above": args.above,
        "difference": pair.difference,
        "small": pair.small,
        "large": pair.large,
    }
    return result, [f"{pair.difference} (pair {pair.small} {pair.large})"], True


def _cmd_divisors(args) -> tuple[dict, list[str], bool]:
    from .divisors import divisor_count, divisor_list_factored, factorize

    f = factorize(args.m, oracle_bound=args.oracle_bound)
    count = divisor_count(f)
    if args.count_only:
        return {"m": args.m, "count": count}, [str(count)], True
    divs = divisor_list_factored(f, divisor_cap=args.divisor_cap)
    result = {"m": args.m, "count": count, "divisors": divs}
    return result, [] if args.json else [" ".join(map(str, divs))], True


def _cmd_theorem(args) -> tuple[dict, list[str], bool]:
    from .sequences import _theorem_records, verify_theorem

    # --json prints only a count and the failures, so it folds the record
    # stream and keeps no other record: O(max)-bit memory, not O(max^2)
    records = (_theorem_records(args.max, args.path, args.oracle_bound) if args.json
               else verify_theorem(args.max, args.path, oracle_bound=args.oracle_bound).records)
    checked, failures = 0, []
    for r in records:
        checked += 1
        if not r.passed:
            failures.append(r)
    result = {
        "max": args.max,
        "path": args.path,
        "checked": checked,
        "all_passed": not failures,
        "failures": [
            {"n": r.index, "expected_exponent": r.expected, "actual_exponent": r.actual}
            for r in failures
        ],
    }
    if args.json:
        return result, [], not failures
    from .intervals import decimal_str

    lines = []
    for r in records:
        expected = decimal_str(r.expected)
        # an exponent that matches is rendered once for both places
        actual = (expected if r.actual == r.expected
                  else "?" if r.actual is None else decimal_str(r.actual))
        lines.append(f"n={r.index} gap=2^{actual} expected=2^{expected} "
                     f"{'ok' if r.passed else 'MISMATCH'}")
    if failures:
        lines.append(f"{len(failures)} of {checked} checks FAILED")
    else:
        lines.append(f"all {checked} checks pass (n=3..{args.max}, {args.path} path)")
    return result, lines, not failures


def _cmd_lemma(args) -> tuple[dict, list[str], bool]:
    from .divisors import check_divisor_count_law, check_middle_pair_law

    if args.which == "1":
        rep = check_divisor_count_law(args.max_k)
        summary = f"divisor count of 3*2^k equals 2k+2 for k=1..{args.max_k}"
        base = unit = ""
    else:
        # lemma 2's records hold exponents of two, as theorem's do
        rep = check_middle_pair_law(args.max_k)
        summary = (
            f"minimal gap of 3*2^k equals the middle-pair gap 2^(ceil(k/2)-1) "
            f"for k=1..{args.max_k}"
        )
        base, unit = "2^", "_exponent"
    lines = []
    if rep.all_passed:
        lines.append(summary)
    else:
        for r in rep.failures:
            got = "?" if r.actual is None else r.actual
            lines.append(f"k={r.index} expected={base}{r.expected} got={base}{got} MISMATCH")
    for note in rep.notes:
        lines.append(f"note: {note}")
    result = {
        "which": args.which,
        "max_k": args.max_k,
        "all_passed": rep.all_passed,
        "failures": [
            {"k": r.index, f"expected{unit}": r.expected, f"actual{unit}": r.actual}
            for r in rep.failures
        ],
        "notes": list(rep.notes),
    }
    return result, lines, rep.all_passed


def _cmd_josephus(args) -> tuple[dict, list[str], bool]:
    from .josephus import survivor_recurrence, survivor_simulation, survivor_via_ow

    runs = []
    if args.algo in ("recurrence", "all"):
        runs.append(survivor_recurrence(args.n, args.q))
    if args.algo in ("simulation", "all"):
        runs.append(survivor_simulation(args.n, args.q, simulation_cap=args.sim_cap))
    if args.algo in ("ow", "all"):
        runs.append(survivor_via_ow(args.n, args.q))
    agree = len({r.survivor for r in runs}) == 1
    lines = [f"n={r.n} q={r.q} survivor={r.survivor} [{r.algorithm}]" for r in runs]
    if args.algo == "all":
        lines.append(f"agreement: {'yes' if agree else 'NO'}")
    result = {
        "n": args.n,
        "q": args.q,
        "results": [{"algorithm": r.algorithm, "survivor": r.survivor} for r in runs],
        "agree": agree,
    }
    return result, lines, agree


def _cmd_constants(args) -> tuple[dict, list[str], bool]:
    from .constants import c_enclosure, k3_enclosure
    from .intervals import render_digits

    enclosure = c_enclosure if args.which == "c" else k3_enclosure
    iv = enclosure(args.terms)
    cert = render_digits(iv, args.digits or args.terms)
    shown = cert.decimal_prefix if cert.decimal_prefix else "(no certified digits)"
    lines = [shown, f"certified places: {cert.certified_places}", f"terms: {args.terms}"]
    result = {
        "which": args.which,
        "terms": args.terms,
        "lo": iv.lo,
        "hi": iv.hi,
        "decimal_prefix": cert.decimal_prefix,
        "certified_places": cert.certified_places,
    }
    return result, lines, True


def _cmd_verify(args) -> tuple[dict, list[str], bool]:
    from .constants import relation_check

    rel = relation_check(args.terms)
    if rel.overlap and rel.agreeing_places < args.min_places:
        raise InsufficientPrecision(
            f"intervals overlap but agree to only {rel.agreeing_places} places, "
            f"below the required {brief(args.min_places)}; raise --terms"
        )
    passed = rel.overlap
    lines = [
        f"overlap: {'yes' if rel.overlap else 'NO'}",
        f"agreeing places: {rel.agreeing_places} (required {args.min_places})",
        f"verdict: {'PASS' if passed else 'FINDING: intervals are disjoint'}",
    ]
    result = {
        "terms": args.terms,
        "min_places": args.min_places,
        "overlap": rel.overlap,
        "agreeing_places": rel.agreeing_places,
        "c": {"lo": rel.c_interval.lo, "hi": rel.c_interval.hi},
        "k3_scaled": {"lo": rel.k3_scaled_interval.lo, "hi": rel.k3_scaled_interval.hi},
        "passed": passed,
    }
    return result, lines, passed


# --- full reproduction ---


def _row(claim: str, reference: str, computed: str, ok: bool, finding: bool = False) -> dict:
    verdict = "FINDING" if finding else ("PASS" if ok else "FAIL")
    return {"claim": claim, "reference": reference, "computed": computed, "verdict": verdict}


def _check_row(claim: str, reference: str, records: tuple, agreed: str,
               counted: bool = False) -> dict:
    """The row for a run of check records: agreed when every record passes."""
    ok = all(r.passed for r in records)
    computed = agreed if ok else "MISMATCH"
    if counted:
        computed = f"{len(records)} checks, {computed}"
    return _row(claim, reference, computed, ok)


def reproduce(fast_only: bool = False, terms: int = DEFAULT_TERMS) -> tuple[list[dict], bool]:
    """Recompute every reference value and identity; returns (rows, all_ok).

    The middle-pair exponent row is a documented finding, not a failure: the
    corrected exponent is what enumeration confirms. Too few terms to reach
    the constants' reference places raises InsufficientPrecision, as verify
    relation does, unless a certified digit disagrees with the reference:
    that is a failed row.
    """
    from .constants import relation_check
    from .divisors import BRUTE_UP_TO, check_divisor_count_law, check_middle_pair_law, delta
    from .intervals import render_digits
    from .sequences import a_seq, b_seq, verify_theorem

    rel = relation_check(terms)
    cert = render_digits(rel.c_interval, terms)
    places = len(C_REFERENCE_26) - 2
    if C_REFERENCE_26.startswith(cert.decimal_prefix[: len(C_REFERENCE_26)]):
        if cert.certified_places < places:
            raise InsufficientPrecision(
                f"{terms} terms certify the growth constant to only "
                f"{cert.certified_places} places, below the {places} of the reference; "
                "raise --terms"
            )
        if rel.overlap and rel.agreeing_places < RELATION_PLACES:
            raise InsufficientPrecision(
                f"{terms} terms make the relation intervals agree to only "
                f"{rel.agreeing_places} places, below the required {RELATION_PLACES}; "
                "raise --terms"
            )

    rows = []

    path = "factored" if fast_only else "oracle"
    want = "4 3 4 2 4 8 16 64"
    got = " ".join(str(t) for t in a_seq(7, path))
    rows.append(_row(f"gap sequence, indices 0..7 ({path} path)", want, got, got == want))

    want = "1 1 1 2 3 4 6 9 14"
    got = " ".join(str(t) for t in b_seq(9))
    rows.append(_row("ceiling recurrence, indices 1..9", want, got, got == want))

    if not fast_only:
        rows.append(_check_row("gap term = 2^b(n), n=3..10 (oracle path)", "equal at every index",
                               verify_theorem(10, "oracle").records, "all equal", counted=True))
    rows.append(_check_row("gap term = 2^b(n), n=3..40 (factored path)", "equal at every index",
                           verify_theorem(40, "factored").records, "all equal", counted=True))
    # each law runs once; its first BRUTE_UP_TO records are the ones that
    # trial division recomputed
    count_law = check_divisor_count_law(1000).records
    gap_law = check_middle_pair_law(1000).records
    rows.append(_check_row("divisor count of 3*2^k, k=1..30 (enumerated)", "2k+2",
                           count_law[:BRUTE_UP_TO], "2k+2 at every k"))
    rows.append(_check_row("divisor count of 3*2^k, k=1..1000 (formula)", "2k+2",
                           count_law, "2k+2 at every k"))
    rows.append(_check_row(
        "minimal gap of 3*2^k = middle-pair gap, k=1..30 (brute force)", "equal",
        gap_law[:BRUTE_UP_TO], "equal at every k",
    ))

    d48 = delta(48)
    rows.append(_row("minimal divisor gap of 48", "2", str(d48), d48 == 2))

    corrected = all(r.passed for r in gap_law)
    rows.append(_row(
        "middle-pair gap exponent for 3*2^k, k=1..1000",
        "2^ceil(k/2)", "2^(ceil(k/2) - 1)", corrected, finding=corrected,
    ))

    ok = cert.decimal_prefix.startswith(C_REFERENCE_26)
    shown = cert.decimal_prefix[: len(C_REFERENCE_26)]
    rows.append(_row(
        f"growth constant to 26 places ({terms} terms)",
        C_REFERENCE_26, f"{shown} ({cert.certified_places} certified)", ok,
    ))

    ok = rel.overlap and rel.agreeing_places >= RELATION_PLACES
    rows.append(_row(
        f"growth constant = (2/9) * game constant ({terms} terms)",
        f"overlap, >= {RELATION_PLACES} shared places",
        f"overlap: {'yes' if rel.overlap else 'no'}, {rel.agreeing_places} shared places",
        ok,
    ))

    all_ok = all(r["verdict"] != "FAIL" for r in rows)
    return rows, all_ok


def _cmd_reproduce(args) -> tuple[dict, list[str], bool]:
    rows, all_ok = reproduce(args.fast_only, args.terms)
    widths = (
        max(len(r["claim"]) for r in rows),
        max(len(r["reference"]) for r in rows),
        max(len(r["computed"]) for r in rows),
    )
    lines = [
        f"{r['claim']:<{widths[0]}}  {r['reference']:<{widths[1]}}  "
        f"{r['computed']:<{widths[2]}}  {r['verdict']}"
        for r in rows
    ]
    passes = sum(r["verdict"] == "PASS" for r in rows)
    findings = sum(r["verdict"] == "FINDING" for r in rows)
    fails = sum(r["verdict"] == "FAIL" for r in rows)
    lines.append(f"{passes} pass, {findings} flagged finding(s), {fails} fail")
    result = {"fast_only": args.fast_only, "terms": args.terms, "rows": rows, "all_ok": all_ok}
    return result, lines, all_ok


# --- parser and entry points ---


class UsageError(DivgapError):
    """The command line does not parse; report is argparse's own text for it."""

    exit_code = EXIT_USAGE

    def __init__(self, message: str, prog: str, report: str):
        super().__init__(message)
        self.command = prog.partition(" ")[2] or None
        self.report = report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # the report argparse.error prints, raised instead so that run() can
        # also write the --json envelope
        raise UsageError(message, self.prog,
                         f"{self.format_usage()}{self.prog}: error: {message}\n")


def _json_requested(argv: list[str]) -> bool:
    """Whether argv asks for --json, by the flag or a prefix argparse accepts."""
    return any(len(a) > 2 and "--json".startswith(a) for a in argv)


# Text longer than this is named by its length in a usage message, not
# echoed: the digits of the longest integer brief echoes
ECHO_CHARS = len(str((1 << ECHO_BITS) - 1))


def _integer(flag: str, least: int | None = None):
    """The argparse type of every integer argument; least, if given, is 1.

    int() is quadratic in the digits: a 300,000-digit value takes most of a
    second to parse before any route refuses it. Text of at most
    ARGUMENT_DIGITS characters goes straight to int(). Longer text is a
    usage error unless it is decimal once what int() accepts around the
    digits (whitespace, one sign, underscores) is set aside; its digits are
    then counted, leaving out leading zeros. More than ARGUMENT_DIGITS of
    them are refused with exit 3, or as a usage error when the value is
    negative, which no route admits. Every value that parses goes to its
    route, which refuses what it cannot answer.
    """

    def invalid(text: str) -> argparse.ArgumentTypeError:
        # argparse's own message for type=int, or for a positive count or cap
        shown = repr(text) if len(text) <= ECHO_CHARS else f"<{len(text)}-character text>"
        return argparse.ArgumentTypeError(
            f"invalid int value: {shown}" if least is None
            else f"expected a positive integer, got {shown}")

    def parse(text: str) -> int:
        if len(text) > ARGUMENT_DIGITS:
            body = text.strip()
            negative = body[:1] == "-"
            if body[:1] in ("+", "-"):
                body = body[1:]
            body = body.replace("_", "")
            if not body.isdecimal():
                raise invalid(text)
            digits = len(body.lstrip("0"))
            if digits > ARGUMENT_DIGITS:
                if negative:
                    raise argparse.ArgumentTypeError(
                        f"must not be negative, got a negative value of {digits} digits")
                raise ResourceLimit(f"{flag} has {digits} digits, above the {ARGUMENT_DIGITS} "
                                    f"an integer argument may have; lower {flag}")
        try:
            value = int(text)
        except ValueError:
            raise invalid(text) from None
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {brief(value)}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every run()."""
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON envelope")
    fmt.add_argument("--bfile", action="store_true",
                     help="emit index/value lines (sequences only)")

    parser = _Parser(
        prog="divgap",
        description="Exact divisor-gap sequences, circle-game survivors, and certified constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", parents=[common], help="list a sequence prefix")
    p.add_argument("which", choices=["a", "b"])
    p.add_argument("--max", type=_integer("--max"), required=True, help="last index to compute")
    # None stands for not given; _cmd_seq fills in seq a's defaults
    p.add_argument("--path", choices=list(A_PATHS), default=None,
                   help="route to the gap terms (seq a only)")
    p.add_argument("--oracle-bound", type=_integer("--oracle-bound", 1), default=None,
                   help="trial-division bound of the oracle route (seq a only)")
    p.add_argument("--digit-limit", type=_integer("--digit-limit", 1), default=DIGIT_PRINT_LIMIT,
                   help="largest decimal rendering to attempt per term")
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("delta", parents=[common], help="minimal divisor gap of an integer")
    p.add_argument("m", type=_integer("m"))
    p.add_argument("--above", type=_integer("--above"), default=None,
                   help="restrict to gaps strictly above this threshold")
    p.add_argument("--oracle-bound", type=_integer("--oracle-bound", 1), default=ORACLE_BOUND)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("divisors", parents=[common], help="divisors of an integer")
    p.add_argument("m", type=_integer("m"))
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--oracle-bound", type=_integer("--oracle-bound", 1), default=ORACLE_BOUND)
    p.add_argument("--divisor-cap", type=_integer("--divisor-cap", 1), default=DIVISOR_CAP)
    p.set_defaults(handler=_cmd_divisors)

    p = sub.add_parser("theorem", parents=[common],
                       help="check gap term = 2^b(n) over a range")
    p.add_argument("--max", type=_integer("--max"), required=True)
    p.add_argument("--path", choices=list(A_PATHS), default="factored")
    p.add_argument("--oracle-bound", type=_integer("--oracle-bound", 1), default=ORACLE_BOUND)
    p.set_defaults(handler=_cmd_theorem)

    p = sub.add_parser("lemma", parents=[common], help="check a 3*2^k divisor law")
    p.add_argument("which", choices=["1", "2"],
                   help="1: divisor count; 2: middle-pair gap")
    p.add_argument("--max-k", type=_integer("--max-k"), default=30)
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser("josephus", parents=[common], help="circle-game survivor")
    p.add_argument("--n", type=_integer("--n"), required=True)
    p.add_argument("--q", type=_integer("--q"), required=True)
    p.add_argument("--algo", choices=["recurrence", "simulation", "ow", "all"], default="all")
    p.add_argument("--sim-cap", type=_integer("--sim-cap", 1), default=SIMULATION_CAP)
    p.set_defaults(handler=_cmd_josephus)

    p = sub.add_parser("constants", parents=[common], help="certified constant digits")
    p.add_argument("which", choices=["c", "k3"])
    p.add_argument("--terms", type=_integer("--terms", 1), default=DEFAULT_TERMS)
    p.add_argument("--digits", type=_integer("--digits", 1), default=None,
                   help="cap on rendered decimal places (default: maximal)")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("verify", parents=[common], help="cross-checks between components")
    p.add_argument("target", choices=["relation"])
    p.add_argument("--terms", type=_integer("--terms", 1), default=DEFAULT_TERMS)
    p.add_argument("--min-places", type=_integer("--min-places", 1), default=RELATION_PLACES)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute every reference value and identity")
    p.add_argument("--fast-only", action="store_true",
                   help="skip the trial-division oracle rows")
    p.add_argument("--terms", type=_integer("--terms", 1), default=DEFAULT_TERMS)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


@functools.cache
def _plain_forms() -> dict:
    """Per subcommand, what reading a plain command line needs, from build_parser()'s actions.

    Each entry is (defaults, options, positionals, required, exclusive):
    every destination with its default, in the order argparse's Namespace
    holds them, the actions by option string, the positional actions, the
    required options, and the mutually exclusive groups. A subcommand with
    an action other than --help, a flag that stores True and one that
    stores one value is left out, and argparse reads all of its command
    lines. Built on the first run(), not with the parser, so setting up
    costs nothing more.
    """
    parser = build_parser()
    (chooser,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    forms = {}
    for name, sub in chooser.choices.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        if not all(isinstance(a, argparse._StoreTrueAction)
                   or isinstance(a, argparse._StoreAction) and a.nargs is None
                   for a in actions):
            continue
        # argparse sets the subcommand on the parent's Namespace, then copies
        # in the subparser's: the first default of each destination, then
        # those of set_defaults
        defaults = {}
        for dest, default in [*((a.dest, a.default) for a in actions), *sub._defaults.items()]:
            defaults.setdefault(dest, default)
        forms[name] = ({chooser.dest: name, **defaults},
                       {s: a for a in actions for s in a.option_strings},
                       tuple(a for a in actions if not a.option_strings),
                       tuple(a for a in actions if a.option_strings and a.required),
                       tuple(g._group_actions for g in sub._mutually_exclusive_groups))
    return forms


def _read_plain(argv) -> argparse.Namespace | None:
    """The Namespace parser.parse_args(argv) builds, when argv has the plain form; else None.

    The plain form is an exact subcommand name, then exact option strings,
    each at most once, an option's value as the next token, and as many
    positional values as the subcommand has, anywhere among the options;
    no value may start with "-". Values go through the action's own type
    and choices. Whatever is not of that form, or a value the type or
    choices refuse, returns None, and argparse reads argv instead: its
    usage reports, --help and abbreviations stay its own.
    """
    form = _plain_forms().get(argv[0]) if argv else None
    if form is None:
        return None
    defaults, options, positionals, required, exclusive = form
    values = dict(defaults)
    seen = set()
    free = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token[:1] != "-":
                free.append(token)
                continue
            action = options.get(token)
            if action is None or action in seen:
                return None
            seen.add(action)
            # a value missing at the end reads as "-", which argparse must report
            values[action.dest] = (action.const if action.nargs == 0
                                   else _plain_value(action, next(tokens, "-")))
        if len(free) != len(positionals):
            return None
        for action, text in zip(positionals, free):
            values[action.dest] = _plain_value(action, text)
    except (ValueError, TypeError, argparse.ArgumentTypeError, DivgapError):
        return None
    if not seen.issuperset(required) or any(len(seen.intersection(g)) > 1 for g in exclusive):
        return None
    return argparse.Namespace(**values)


def _plain_value(action, text: str):
    """text as argparse reads an action's value, or ValueError where argparse must read it."""
    if text[:1] == "-":
        raise ValueError("an option, or a value argparse reads in its own way")
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError("not a choice")
    return value


def _fail(exc: Exception, argv: list[str], args=None) -> int:
    """Report a failed run on stderr, and under --json as an envelope; return its exit code.

    args is the parsed command line, or None when parsing argv raised exc:
    the envelope then has no parameters, and names the subcommand argparse
    reached, or for an argument refused by its length the first argument of
    argv that is not an option.
    """
    status, code = outcome(exc)
    sys.stderr.write(exc.report if isinstance(exc, UsageError) else f"error: {exc}\n")
    result = {"error": type(exc).__name__, "message": str(exc)}
    if args is not None:
        if args.json:
            _print_json(_envelope(args, result, status))
    elif _json_requested(argv):
        command = (exc.command if isinstance(exc, UsageError)
                   else next((a for a in argv if not a.startswith("-")), None))
        _print_json({"command": command, "parameters": {}, "result": result, "status": status})
    return code


def run(argv=None) -> int:
    """Parse argv, execute, print, and return the exit code."""
    # No integer argument or plain line reaches the interpreter's int-to-str
    # guard: an argument has at most ARGUMENT_DIGITS digits, the guard's
    # default, before int() reads it, and every value printed with str() is
    # at most one of them; seq terms and certified digits render through
    # decimal_str. The guard is raised, and not lowered again on return, for
    # divbench's certify oracle alone, which renders digits with str() in
    # the interpreter that ran the jobs and relies on it; 0, no limit at
    # all, is left as it is
    wanted = DIGIT_PRINT_LIMIT + 100
    if 0 < sys.get_int_max_str_digits() < wanted:
        sys.set_int_max_str_digits(wanted)
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_plain(argv)
        if args is None:
            args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_OK  # --help, printed in full
    except DivgapError as exc:
        return _fail(exc, argv)
    if args.bfile and args.command != "seq":
        return _fail(ValueError("--bfile applies only to seq"), argv, args)
    try:
        result, lines, ok = args.handler(args)
    except (DivgapError, ValueError) as exc:
        return _fail(exc, argv, args)
    if args.json:
        _print_json(_envelope(args, result, "ok" if ok else "finding"))
    else:
        # one call for every line, where print makes one per line; each line
        # is written as it stands and not copied onto its newline, since a
        # seq --bfile line can run to hundreds of kilobytes
        sys.stdout.writelines(chain.from_iterable((line, "\n") for line in lines))
    return EXIT_OK if ok else EXIT_FINDING


def main() -> None:
    sys.exit(run())
