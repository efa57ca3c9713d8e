"""Exception types shared across the library, with the CLI status each maps to,
and the caps and defaults the command line shows.

This module imports nothing, so the command line can build its parser
without loading the modules whose caps it shows; those modules import the
values back from here.
"""

# Trial division stays interactive up to here. Its worst case is a prime m:
# the oracle's downward scan from isqrt(m) then makes all 10^7 probes and
# factorize its 5 * 10^6 odd ones, about 0.75 s each near 10^14 (2-core
# Xeon, CPython 3.11).
ORACLE_BOUND = 10**14
# Refusal point for materializing a full divisor list from a factorization.
DIVISOR_CAP = 10**7
# Largest circle the explicit simulation accepts.
SIMULATION_CAP = 10**6
# Ceiling-recurrence terms behind the certified constants by default.
DEFAULT_TERMS = 200
# Largest k either 3*2^k law checks. Both keep one record per k; at this
# limit a process takes 1.2-1.5 s for the middle-pair law and 0.3-0.5 s for
# the divisor-count law, whose records peak at 18 MiB (2-core Xeon, CPython
# 3.11). 10^8 would need about 18 GB.
MAX_K_LIMIT = 10**5
# The two routes to the gap sequence: trial division and the exponent-space walk.
A_PATHS = ("oracle", "factored")

# Most digits an integer argument may have: CPython's default int-string
# limit, up to which int() takes microseconds. A longer one is refused by its
# digit count before int() reads it.
ARGUMENT_DIGITS = 4300

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_FINDING = 4

# integers longer than this are named by their size in messages, not echoed
ECHO_BITS = 256


def brief(x) -> str:
    """An int or Fraction x as str() shows it in a message, with each integer
    too long to echo named by its sign and bit length instead."""
    if x.denominator != 1:
        return f"{brief(x.numerator)}/{brief(x.denominator)}"
    x = x.numerator
    if x.bit_length() <= ECHO_BITS:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


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


def outcome(exc: Exception) -> tuple[str, int]:
    """The CLI's (status, exit code) for a failed run: a library error's own
    row; a ValueError, an argument outside a function's domain, is a usage error."""
    if isinstance(exc, DivgapError):
        return exc.status, exc.exit_code
    return "error", EXIT_USAGE
