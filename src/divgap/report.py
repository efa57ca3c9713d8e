"""Per-index verification records returned by the checking suites, and the
base of every record whose constructor checks its fields."""

from __future__ import annotations

from collections import namedtuple


class CheckedRecord:
    """Base of a named-tuple record whose __new__ checks its fields.

    namedtuple's _make, and _replace through it, build with tuple.__new__ and
    would skip that check; here they go through the constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


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
