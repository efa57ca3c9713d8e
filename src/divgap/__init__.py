"""Exact arithmetic for divisor-gap sequences, circle-elimination survivors,
and certified rational enclosures of their limit constants.

Everything is integer or Fraction arithmetic; no floating point enters any
certified path. Each headline result is computable by at least two
independent routes, and the test suite holds the routes to agreement.
"""

from .constants import (
    DEFAULT_TERMS,
    RelationReport,
    c_enclosure,
    k3_enclosure,
    relation_check,
)
from .divisors import (
    DIVISOR_CAP,
    ORACLE_BOUND,
    DivisorPair,
    Factorization,
    check_divisor_count_law,
    check_middle_pair_law,
    delta,
    delta_above,
    delta_pair,
    divisor_count,
    divisor_list,
    divisor_list_factored,
    factorize,
    gap_factorization,
)
from .errors import (
    DivgapError,
    EmptyIntersection,
    InsufficientPrecision,
    NoQualifyingPair,
    OracleBoundExceeded,
    ResourceLimit,
    SimulationCapExceeded,
)
from .intervals import DigitCertificate, RationalInterval, render_digits
from .josephus import (
    SIMULATION_CAP,
    SurvivorResult,
    ow_sequence,
    survivor_recurrence,
    survivor_simulation,
    survivor_via_ow,
)
from .report import CheckRecord, VerificationReport
from .sequences import (
    SequenceReport,
    a_seq,
    b_closed_form,
    b_seq,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "DEFAULT_TERMS",
    "DIVISOR_CAP",
    "DigitCertificate",
    "DivgapError",
    "DivisorPair",
    "EmptyIntersection",
    "Factorization",
    "InsufficientPrecision",
    "NoQualifyingPair",
    "ORACLE_BOUND",
    "OracleBoundExceeded",
    "RationalInterval",
    "RelationReport",
    "ResourceLimit",
    "SIMULATION_CAP",
    "SequenceReport",
    "SimulationCapExceeded",
    "SurvivorResult",
    "VerificationReport",
    "a_seq",
    "b_closed_form",
    "b_seq",
    "c_enclosure",
    "check_divisor_count_law",
    "check_middle_pair_law",
    "delta",
    "delta_above",
    "delta_pair",
    "divisor_count",
    "divisor_list",
    "divisor_list_factored",
    "factorize",
    "gap_factorization",
    "k3_enclosure",
    "ow_sequence",
    "relation_check",
    "render_digits",
    "survivor_recurrence",
    "survivor_simulation",
    "survivor_via_ow",
    "verify_theorem",
]
