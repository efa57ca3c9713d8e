"""Exact arithmetic for divisor-gap sequences, circle-elimination survivors,
and certified rational enclosures of their limit constants.

Everything is integer or Fraction arithmetic; no floating point enters any
certified path. Each headline result is computable by at least two
independent routes, and the test suite holds the routes to agreement.

`import divgap` loads no submodule: each public name, and each submodule
such as `divgap.divisors`, is imported on first use (PEP 562), so a command
that needs one module does not pay for the others.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "DEFAULT_TERMS": "errors",
    "DIVISOR_CAP": "errors",
    "ORACLE_BOUND": "errors",
    "SIMULATION_CAP": "errors",
    "DivgapError": "errors",
    "EmptyIntersection": "errors",
    "InsufficientPrecision": "errors",
    "NoQualifyingPair": "errors",
    "OracleBoundExceeded": "errors",
    "ResourceLimit": "errors",
    "SimulationCapExceeded": "errors",
    "RelationReport": "constants",
    "c_enclosure": "constants",
    "k3_enclosure": "constants",
    "relation_check": "constants",
    "DivisorPair": "divisors",
    "Factorization": "divisors",
    "check_divisor_count_law": "divisors",
    "check_middle_pair_law": "divisors",
    "delta": "divisors",
    "delta_above": "divisors",
    "delta_pair": "divisors",
    "divisor_count": "divisors",
    "divisor_list": "divisors",
    "divisor_list_factored": "divisors",
    "factorize": "divisors",
    "gap_factorization": "divisors",
    "DigitCertificate": "intervals",
    "RationalInterval": "intervals",
    "render_digits": "intervals",
    "SurvivorResult": "josephus",
    "ow_sequence": "josephus",
    "survivor_recurrence": "josephus",
    "survivor_simulation": "josephus",
    "survivor_via_ow": "josephus",
    "CheckRecord": "report",
    "VerificationReport": "report",
    "SequenceReport": "sequences",
    "a_seq": "sequences",
    "b_closed_form": "sequences",
    "b_seq": "sequences",
    "verify_theorem": "sequences",
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
