"""Output oracles for benchmark jobs, written without any code from src/.

Each oracle recomputes the expected answer its own way (its own b
recurrence, trial division over a sieved prime table, a batched survivor
fold, decimal powers of two, single-constraint enclosures of c) and
compares the job's stdout, exit code and --json envelope against it.
They run after the timed region.
"""

from __future__ import annotations

import decimal
import json
import os
from fractions import Fraction
from functools import lru_cache
from math import isqrt

# PAPER.md: c = 0.3605045561966149591015446628665164... (34 places)
C_PAPER = "0.3605045561966149591015446628665164"
C_PAPER_PLACES = 34

# Trial division below covers every integer up to PRIME_LIMIT**2 = 10^10.
PRIME_LIMIT = 10**5


# --- own mathematics ---


def b_terms(n_max: int) -> list[int]:
    """b(1..n_max) of b(1) = 1, b(n) = ceil((b(1) + ... + b(n-1)) / 2)."""
    terms, total = [], 0
    for n in range(1, n_max + 1):
        t = 1 if n == 1 else -(-total // 2)
        terms.append(t)
        total += t
    return terms


@lru_cache(maxsize=1)
def _primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * (PRIME_LIMIT + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, isqrt(PRIME_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, PRIME_LIMIT + 1, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def divisors_of(m: int) -> list[int]:
    """Sorted divisors of 1 <= m <= 10^10 by trial division over primes."""
    if not 1 <= m <= PRIME_LIMIT**2:
        raise ValueError(f"m={m} outside the oracle's range")
    divs, rest = [1], m
    for p in _primes():
        if p * p > rest:
            break
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            divs = [d * p**k for d in divs for k in range(e + 1)]
    if rest > 1:
        divs += [d * rest for d in divs]
    return sorted(divs)


def min_gap_pair(m: int, above: int | None) -> tuple[int, int]:
    """(d, m // d) with d <= m // d and the least gap above the threshold."""
    best = None
    for d in divisors_of(m):
        if d * d > m:
            break
        if above is None or m // d - d > above:
            best = (d, m // d)
    if best is None:
        raise ValueError(f"no pair of {m} has a gap above {above}")
    return best


def survivor(n: int, q: int) -> int:
    """1-based survivor of n in a circle removing every q-th person.

    q = 2 uses the closed form 2L + 1 with n = 2^k + L. Otherwise the fold
    pos <- (pos + q) mod m, m = 2..n, is run in batches: while pos + q stays
    below the circle size, k steps at once just add k * q, so the fold takes
    about q * log(n) batches and reaches n = 10^300.
    """
    if q == 2:
        return 2 * (n - (1 << (n.bit_length() - 1))) + 1
    pos, m = 0, 1
    while m < n:
        if m >= pos + q:
            k = min((m - pos - q) // (q - 1) + 1, n - m)
            pos += k * q
            m += k
        if m < n:
            m += 1
            pos = (pos + q) % m
    return pos + 1


def power_of_two_decimal(e: int) -> str:
    """Decimal digits of 2**e, by libmpdec rather than int-to-str."""
    ctx = decimal.Context(prec=e * 30103 // 100000 + 2, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow])
    return str(ctx.power(decimal.Decimal(2), e))


def c_interval(terms: int) -> tuple[Fraction, Fraction]:
    """c from the single constraint b(T) = ceil(c (3/2)^T - 1/2).

    That gives (b - 1/2)(2/3)^T < c <= (b + 1/2)(2/3)^T; the program
    intersects all T constraints, so its enclosure lies inside this one.
    """
    b = b_terms(terms)[-1]
    scale = Fraction(2**terms, 3**terms)
    return (b - Fraction(1, 2)) * scale, (b + Fraction(1, 2)) * scale


def k3_interval(terms: int) -> tuple[Fraction, Fraction]:
    """K3 = (9/2) c, from the relation the paper states."""
    lo, hi = c_interval(terms)
    return lo * Fraction(9, 2), hi * Fraction(9, 2)


def common_digits(lo: Fraction, hi: Fraction, places: int) -> str:
    """Digits (no decimal point) shared by every x in [lo, hi], 0 <= x < 10."""
    lo_s, hi_s = (str(x.numerator * 10**places // x.denominator).zfill(places + 1)
                  for x in (lo, hi))
    return os.path.commonprefix([lo_s, hi_s])


# --- checks: each returns None when the output is right, else a reason ---


def _envelope(out: str, command: str, status: str) -> dict:
    env = json.loads(out)
    if set(env) != {"command", "parameters", "result", "status"}:
        raise ValueError(f"envelope keys {sorted(env)}")
    if env["command"] != command or env["status"] != status:
        raise ValueError(f"envelope says {env['command']!r} / {env['status']!r}")
    return env["result"]


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {str(got)[:200]!r}, want {str(want)[:200]!r}"


def check_theorem(out: str, n_max: int, json_mode: bool) -> str | None:
    if json_mode:
        result = _envelope(out, "theorem", "ok")
        want = {"max": str(n_max), "path": "factored", "checked": str(n_max - 2),
                "all_passed": True, "failures": []}
        return _expect(result, want, "theorem result")
    bs = b_terms(n_max)
    lines = [f"n={n} gap=2^{bs[n - 1]} expected=2^{bs[n - 1]} ok" for n in range(3, n_max + 1)]
    lines.append(f"all {n_max - 2} checks pass (n=3..{n_max}, factored path)")
    return _expect(out, "\n".join(lines) + "\n", "theorem lines")


def _gap_terms(n_max: int) -> list[str]:
    bs = b_terms(n_max)
    head = ["4", "3", "4"][: n_max + 1]
    return head + [power_of_two_decimal(bs[n - 1]) for n in range(3, n_max + 1)]


def check_seq_a(out: str, n_max: int) -> str | None:
    want = "".join(f"{i} {v}\n" for i, v in enumerate(_gap_terms(n_max)))
    if out == want:
        return None
    got, exp = out.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got, exp)):
        if g != w:
            return f"seq a line {i} differs"
    return f"seq a has {len(got)} lines, want {len(exp)}"


def check_seq_small(out: str, which: str) -> str | None:
    values = _gap_terms(7) if which == "a" else [str(b) for b in b_terms(7)]
    start = 0 if which == "a" else 1
    want = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=start))
    return _expect(out, want, f"seq {which}")


def _check_digits(prefix: str, places: int, which: str, terms: int) -> str | None:
    whole, _, tail = prefix.partition(".")
    if len(tail) != places or places < C_PAPER_PLACES:
        return f"{which}: {places} certified places for prefix {prefix[:40]!r}"
    if which == "c" and not prefix.startswith(C_PAPER):
        return f"c digits {prefix[:40]!r} differ from PAPER.md's {C_PAPER!r}"
    lo, hi = (c_interval if which == "c" else k3_interval)(terms)
    own = common_digits(lo, hi, terms)
    got = whole + tail
    short, long_ = sorted((own, got), key=len)
    if not long_.startswith(short):
        return f"{which} digits disagree with the oracle's near place {len(os.path.commonprefix([own, got]))}"
    if which == "c" and len(got) < len(own):
        return f"c certified {places} places, fewer than the single-constraint {len(own) - 1}"
    return None


def check_constant(out: str, which: str, terms: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != 3 or not lines[1].startswith("certified places: "):
        return f"constants output {out[:120]!r}"
    if lines[2] != f"terms: {terms}":
        return f"constants terms line {lines[2]!r}"
    return _check_digits(lines[0], int(lines[1].removeprefix("certified places: ")), which, terms)


def check_relation(out: str, terms: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != 3 or lines[0] != "overlap: yes" or lines[2] != "verdict: PASS":
        return f"relation output {out[:160]!r}"
    head, _, tail = lines[1].removeprefix("agreeing places: ").partition(" ")
    places = int(head)
    if tail != "(required 24)" or not C_PAPER_PLACES <= places <= terms:
        return f"relation line {lines[1]!r}"
    return None


def check_josephus(out: str, n: int, q: int, algo: str) -> str | None:
    s = survivor(n, q)
    names = ("recurrence", "simulation", "ow_formula") if algo == "all" else ("ow_formula",)
    lines = [f"n={n} q={q} survivor={s} [{name}]" for name in names]
    if algo == "all":
        lines.append("agreement: yes")
    return _expect(out, "\n".join(lines) + "\n", f"survivor of n={n} q={q}")


def check_delta(out: str, m: int, above: int | None, json_mode: bool) -> str | None:
    small, large = min_gap_pair(m, above)
    if json_mode:
        want = {"m": str(m), "above": None if above is None else str(above),
                "difference": str(large - small), "small": str(small), "large": str(large)}
        return _expect(_envelope(out, "delta", "ok"), want, "delta result")
    return _expect(out, f"{large - small} (pair {small} {large})\n", f"delta {m}")


def check_divisors(out: str, m: int, count_only: bool, json_mode: bool) -> str | None:
    divs = divisors_of(m)
    if json_mode:
        want = {"m": str(m), "count": str(len(divs))}
        if not count_only:
            want["divisors"] = [str(d) for d in divs]
        return _expect(_envelope(out, "divisors", "ok"), want, "divisors result")
    want = str(len(divs)) if count_only else " ".join(map(str, divs))
    return _expect(out, want + "\n", f"divisors {m}")


def check_lemma(out: str, which: str) -> str | None:
    ks = range(1, 31)
    if which == "1":
        holds = all(len(divisors_of(3 << k)) == 2 * k + 2 for k in ks)
        summary = "divisor count of 3*2^k equals 2k+2 for k=1..30"
    else:
        pairs = (min_gap_pair(3 << k, None) for k in ks)
        holds = all(large - small == 1 << ((k + 1) // 2 - 1)
                    for k, (small, large) in zip(ks, pairs))
        summary = ("minimal gap of 3*2^k equals the middle-pair gap 2^(ceil(k/2)-1) "
                   "for k=1..30")
    if not holds:
        return f"the oracle finds lemma {which} false"
    lines = out.splitlines()
    if not lines or lines[0] != summary or not all(x.startswith("note: ") for x in lines[1:]):
        return f"lemma {which} output {out[:160]!r}"
    return None


def check_refusal(out: str, err: str, error: str, command: str, json_mode: bool) -> str | None:
    if not err.startswith("error: "):
        return f"refusal stderr {err[:120]!r}"
    if not json_mode:
        return _expect(out, "", "refusal stdout")
    result = _envelope(out, command, "error")
    return _expect(result.get("error"), error, "refusal error name")


EXIT_OK, EXIT_RESOURCE = 0, 3


def check(job, code: int, out: str, err: str) -> str | None:
    """None when the job's exit code and output are right, else why not."""
    p = job.params
    want_code = EXIT_RESOURCE if job.kind == "refusal" else EXIT_OK
    if code != want_code:
        return f"exit code {code}, want {want_code}: {err.strip()[:160]}"
    try:
        if job.kind == "refusal":
            command = " ".join(job.argv[:2]) if job.argv[0] == "seq" else job.argv[0]
            return check_refusal(out, err, p["error"], command, p["json"])
        if err:
            return f"unexpected stderr {err[:160]!r}"
        if job.kind == "theorem":
            return check_theorem(out, p["n_max"], p["json"])
        if job.kind == "seq_a":
            return check_seq_a(out, p["n_max"])
        if job.kind == "seq_small":
            return check_seq_small(out, p["which"])
        if job.kind == "constant":
            return check_constant(out, p["which"], p["terms"])
        if job.kind == "relation":
            return check_relation(out, p["terms"])
        if job.kind == "josephus":
            return check_josephus(out, p["n"], p["q"], p["algo"])
        if job.kind == "delta":
            return check_delta(out, p["m"], p["above"], p["json"])
        if job.kind == "divisors":
            return check_divisors(out, p["m"], p["count_only"], p["json"])
        if job.kind == "lemma":
            return check_lemma(out, p["which"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"no oracle for job kind {job.kind!r}")
