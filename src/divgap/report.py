"""Per-index verification records returned by the checking suites."""

from __future__ import annotations

from collections import namedtuple


class CheckRecord(namedtuple("CheckRecord", "index passed expected actual", defaults=(None, None))):
    """Outcome of one indexed check; expected/actual carry the counterexample."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "name records notes", defaults=((),))):
    """A named batch of indexed checks plus free-form notes (flagged findings)."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)
