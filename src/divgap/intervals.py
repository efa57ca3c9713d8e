"""Exact rational intervals, certified decimal rendering, and decimal_str,
which renders an integer of any size.

Everything here is closed-endpoint Fraction arithmetic. No floats enter any
computation; a digit is reported only when truncation of both endpoints
agrees on it, so every printed digit is a proof, not an estimate.
"""

from __future__ import annotations

import decimal
from collections import namedtuple
from fractions import Fraction
from math import floor

from .errors import brief
from .report import CheckedRecord

# Integers up to this many bits render through int.__str__, which is
# quadratic in CPython; larger ones are split in halves and rebuilt in
# libmpdec, whose multiplication is subquadratic. The split size stays far
# below the interpreter's default 4300-digit conversion guard.
SPLIT_BITS = 4096
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
# 0.30103 > log10(2): an integer of b bits has at most floor(b * LOG10_2_UPPER)
# + 1 decimal digits, and a budget of d digits admits floor(d / LOG10_2_UPPER)
# bits
LOG10_2_UPPER = Fraction(30103, 100000)


def decimal_str(n: int) -> str:
    """str(n) in subquadratic time, by divide and conquer on the bits."""
    if n.bit_length() <= SPLIT_BITS:
        return str(n)
    if n < 0:
        return "-" + decimal_str(-n)
    if n & (n - 1) == 0:
        # the gap terms: one exact power in libmpdec, no splitting
        return str(_EXACT.power(2, n.bit_length() - 1))
    powers: dict[int, decimal.Decimal] = {}

    def build(x: int, bits: int) -> decimal.Decimal:
        if bits <= SPLIT_BITS:
            return decimal.Decimal(x)
        low_bits = bits // 2
        high = x >> low_bits
        if low_bits not in powers:
            powers[low_bits] = _EXACT.power(2, low_bits)
        scaled = _EXACT.multiply(build(high, bits - low_bits), powers[low_bits])
        return _EXACT.add(scaled, build(x - (high << low_bits), low_bits))

    return str(build(n, n.bit_length()))


class RationalInterval(CheckedRecord, namedtuple("RationalInterval", "lo hi")):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={brief(lo)} > hi={brief(hi)}")
        return tuple.__new__(cls, (lo, hi))

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
            raise ValueError(f"scale factor must be positive, got {brief(factor)}")
        return RationalInterval(self.lo * factor, self.hi * factor)

    def intersect(self, other: RationalInterval) -> RationalInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RationalInterval(lo, hi) if lo <= hi else None

    def hull(self, other: RationalInterval) -> RationalInterval:
        return RationalInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def overlaps(self, other: RationalInterval) -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)


class DigitCertificate(namedtuple("DigitCertificate", "decimal_prefix certified_places")):
    """A decimal prefix every member of an interval shares.

    decimal_prefix is empty when even the integer parts disagree; otherwise
    it carries the integer part and exactly certified_places decimals.
    """

    __slots__ = ()


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
        raise ValueError(f"max_places must be at least 1, got {brief(max_places)}")
    lo, hi = iv.lo, iv.hi
    if lo < 0:
        raise ValueError("render_digits requires a nonnegative interval")
    gap = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    depth = max_places
    if gap:
        # hi - lo = gap / scale, so d places agree only if gap * 10^d < scale;
        # scale / gap < 2^(bits + 1), so no place beyond this depth agrees
        scale = lo.denominator * hi.denominator
        bits = scale.bit_length() - gap.bit_length()
        depth = min(max_places, max(0, floor((bits + 1) * LOG10_2_UPPER)))
    unit = 10**depth
    whole, frac_lo = divmod(lo.numerator * unit // lo.denominator, unit)
    whole_hi, frac_hi = divmod(hi.numerator * unit // hi.denominator, unit)
    if whole != whole_hi:
        return DigitCertificate("", 0)
    digits = ""
    # zfill(0) would keep the "0" of a zero-depth fraction, which is no digit
    if depth:
        lo_digits = decimal_str(frac_lo).zfill(depth)
        # read as big-endian integers, the two digit strings XOR to a value
        # whose top set bit lies in the first byte they differ in: the common
        # prefix found in C, not character by character
        diff = (int.from_bytes(lo_digits.encode(), "big")
                ^ int.from_bytes(decimal_str(frac_hi).zfill(depth).encode(), "big"))
        digits = lo_digits[: depth - (diff.bit_length() + 7) // 8]
    if not digits:
        return DigitCertificate(decimal_str(whole), 0)
    return DigitCertificate(f"{decimal_str(whole)}.{digits}", len(digits))
