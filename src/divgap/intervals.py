"""Exact rational intervals and certified decimal rendering.

Everything here is closed-endpoint Fraction arithmetic. No floats enter any
computation; a digit is reported only when truncation of both endpoints
agrees on it, so every printed digit is a proof, not an estimate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def encloses(self, other: RationalInterval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def scale(self, factor) -> RationalInterval:
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return RationalInterval(self.lo * factor, self.hi * factor)

    def intersect(self, other: RationalInterval) -> RationalInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RationalInterval(lo, hi) if lo <= hi else None

    def hull(self, other: RationalInterval) -> RationalInterval:
        return RationalInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def overlaps(self, other: RationalInterval) -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)


@dataclass(frozen=True)
class DigitCertificate:
    """A decimal prefix every member of an interval shares.

    decimal_prefix is empty when even the integer parts disagree; otherwise
    it carries the integer part and exactly certified_places decimals.
    """

    decimal_prefix: str
    certified_places: int


def render_digits(iv: RationalInterval, max_places: int) -> DigitCertificate:
    """Longest common truncated-decimal prefix of the interval, capped.

    Pure integer arithmetic: place d is certified when floor(lo * 10^d) and
    floor(hi * 10^d) coincide. That forces hi - lo < 10^-d, so the width
    bounds the certified depth: both endpoints are truncated once at a depth
    no certified place lies beyond (at most max_places), and the certificate
    is the common prefix of the two zero-filled digit strings, since
    truncating deeper and cutting digits off is the same as truncating
    shallower. Zero certified places is a valid result for wide intervals.
    """
    if max_places < 1:
        raise ValueError(f"max_places must be at least 1, got {max_places}")
    lo, hi = iv.lo, iv.hi
    if lo < 0:
        raise ValueError("render_digits requires a nonnegative interval")
    gap = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    depth = max_places
    if gap:
        # hi - lo = gap / scale, so d places agree only if gap * 10^d < scale;
        # scale / gap < 2^(bits + 1) and 0.30103 > log10(2), so no place
        # beyond this depth agrees
        scale = lo.denominator * hi.denominator
        bits = scale.bit_length() - gap.bit_length()
        depth = min(max_places, max(0, (bits + 1) * 30103 // 100000))
    unit = 10**depth
    whole, frac_lo = divmod(lo.numerator * unit // lo.denominator, unit)
    whole_hi, frac_hi = divmod(hi.numerator * unit // hi.denominator, unit)
    if whole != whole_hi:
        return DigitCertificate("", 0)
    # a zero-width format field would still print one digit
    digits = (os.path.commonprefix([f"{frac_lo:0{depth}d}", f"{frac_hi:0{depth}d}"])
              if depth else "")
    if not digits:
        return DigitCertificate(str(whole), 0)
    return DigitCertificate(f"{whole}.{digits}", len(digits))
