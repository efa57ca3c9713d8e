"""In-memory span recorder that traces divgap from outside the package.

install() rebinds the public functions each divgap module looks up in its
own namespace (divgap.cli.verify_theorem, divgap.sequences.delta_above,
divgap.constants.b_seq, ...) and Factorization.multiply to wrappers that
record a span per call: name, start, end, parent span and job id. Nothing
under src/ changes; the returned undo function restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "sequences", "divisors", "constants", "intervals", "josephus")

# Per-layer metrics the traced run reports, per pass. Names follow the span
# names, "<layer>.<function>"; the metrics without a span are counters.
SPAN_METRICS = (
    "sequences.verify_theorem", "sequences.a_seq", "sequences.b_seq",
    "divisors.delta_above", "divisors.delta_pair", "divisors.factorize",
    "divisors.divisor_list_factored", "divisors.check_middle_pair_law",
    "divisors.check_divisor_count_law",
    "constants.c_enclosure", "constants.k3_enclosure", "constants.relation_check",
    "intervals.render_digits",
    "josephus.survivor_recurrence", "josephus.survivor_simulation",
    "josephus.survivor_via_ow", "josephus.ow_sequence",
)
COUNTERS = ("divisors.factorize.max_input_bits", "constants.enclosure_den_bits",
            "josephus.n_sum", "cli.stdout_bytes")


class SpanRecorder:
    """Spans as [name, start, end, parent index or None, job id] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._open: list[int] = []

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._open[-1] if self._open else None,
                self.job]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    def note_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters[key], value)

    def wrap(self, fn, name: str, note=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                note(self, args, result)
            return result

        return functools.wraps(fn)(traced)


def _note_factorize(rec, args, result):
    rec.note_max("divisors.factorize.max_input_bits", args[0].bit_length())


def _note_enclosure(rec, args, result):
    rec.note_max("constants.enclosure_den_bits",
                 max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length()))


def _note_n(rec, args, result):
    rec.counters["josephus.n_sum"] += args[0]


NOTES = {
    "divisors.factorize": _note_factorize,
    "constants.c_enclosure": _note_enclosure,
    "constants.k3_enclosure": _note_enclosure,
    "josephus.survivor_recurrence": _note_n,
    "josephus.survivor_simulation": _note_n,
}


def install(rec: SpanRecorder):
    """Route every divgap-internal call of a public function through rec.

    Returns a function that undoes the rebinding.
    """
    modules = [importlib.import_module(f"divgap.{layer}") for layer in LAYERS]
    wrappers: dict[object, object] = {}
    undo: list[tuple[object, str, object]] = []
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or not fn.__module__.startswith("divgap.")):
                continue
            if fn not in wrappers:
                name = f"{fn.__module__.removeprefix('divgap.')}.{fn.__name__}"
                wrappers[fn] = rec.wrap(fn, name, NOTES.get(name))
            undo.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])
    factorization = importlib.import_module("divgap.divisors").Factorization
    undo.append((factorization, "multiply", factorization.multiply))
    factorization.multiply = rec.wrap(factorization.multiply, "divisors.Factorization.multiply")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer self time and call counts of one pass, plus its counters."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        self_s[name] += own
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += own
    out: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in SPAN_METRICS:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out["divisors.Factorization.multiply.self_s"] = self_s["divisors.Factorization.multiply"]
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    return out


def self_time_by_job(spans: list[list], jobs: list[tuple[str, ...]]) -> list[dict]:
    """Self time per span name for each job argv: the per-scale sweep."""
    per_job: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        per_job[span[4]][span[0]] += own
    return [{"argv": list(jobs[j]), "self_s": dict(per_job[j])} for j in sorted(per_job)]
