"""Exception types shared across the library, with the CLI status each maps to."""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_FINDING = 4

# integers longer than this are named by their size in messages, not echoed
ECHO_BITS = 256


def brief(x: int) -> str:
    """x in decimal for a message, or its bit length when it is too long to echo."""
    return str(x) if x.bit_length() <= ECHO_BITS else f"<{x.bit_length()}-bit integer>"


class DivgapError(Exception):
    """Base class for every library-specific error.

    status and exit_code are what the CLI reports for it: by default a
    resource or precision limit; a mathematically meaningful negative result
    overrides them.
    """

    status = "error"
    exit_code = EXIT_RESOURCE


class OracleBoundExceeded(DivgapError):
    """The trial-division path was asked about an integer above its configured bound."""


class ResourceLimit(DivgapError):
    """A computation would exceed a configured resource cap (divisor count, term size)."""


class NoQualifyingPair(DivgapError):
    """No complementary-divisor pair has a difference above the requested threshold."""

    status = "finding"
    exit_code = EXIT_FINDING


class SimulationCapExceeded(DivgapError):
    """The requested circle size exceeds the configured simulation cap."""


class InsufficientPrecision(DivgapError):
    """An interval is too wide to pin down the requested value unambiguously."""


class EmptyIntersection(DivgapError):
    """Constraint intervals have an empty intersection.

    Carries the 1-based index of the first constraint that emptied the
    running intersection; this situation would falsify the ceiling closed
    form, so callers must surface it rather than clamp.
    """

    status = "finding"
    exit_code = EXIT_FINDING

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
