"""Exact rational substrate: dyadic weights and intervals.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded and no float survives past an argument check.  The serialized
form of a rational is always "p/q" (or just "p" when q = 1), with an optional
leading minus sign.  Decimal notation is rejected on input and never produced
on output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Union

__all__ = [
    "RatInterval",
    "as_fraction",
    "parse_pair",
    "parse_rational",
    "format_rational",
    "format_pair",
    "dyadic_weight",
    "dyadic_tail_weight",
    "MAX_EXACT_EXPONENT",
    "ExponentBoundError",
]

RationalLike = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce int to Fraction; reject floats and anything else inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{what} must be an exact rational (Fraction or int), got {value!r}")


def parse_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" (optional leading '-') to (p, q), reduced, q > 0.

    No decimals, no whitespace, no zero q, and no number past the int digit limit.
    """
    if not isinstance(text, str):
        raise TypeError(f"rational text must be a string, got {text!r}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact rational (expected 'p/q' or 'p'): {text!r}")
    num, den = match.groups()
    q = int(den) if den else 1
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    p = int(num)
    g = math.gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """``parse_pair``'s value as a Fraction."""
    return Fraction(*parse_pair(text))


def format_rational(value: RationalLike) -> str:
    """Canonical "p/q" form, or "p" for integers, at any size."""
    value = as_fraction(value)
    return format_pair(value.numerator, value.denominator)


def format_pair(p: int, q: int) -> str:
    """``format_rational`` of p/q, given reduced with q > 0."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # past the interpreter's int digit limit, which Decimal does not apply
        text = str(Decimal(p))
        return text if q == 1 else f"{text}/{Decimal(q)}"


def dyadic_weight(index: int) -> Fraction:
    """The weight 2^-index attached to enumeration index ``index`` >= 0."""
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise ValueError(f"weight index must be a natural number, got {index!r}")
    return Fraction(1, 2**index)


# Largest exponent k for which a tail weight is built as a Fraction over 2^k
# (a 128 KiB denominator); past it the weight is refused with ``ExponentBoundError``.
MAX_EXACT_EXPONENT = 1 << 20


class ExponentBoundError(ValueError):
    """A dyadic exponent past a bound: 2^n would be too large to build."""


def dyadic_tail_weight(start: int) -> Fraction:
    """Total weight of all indices >= start: sum 2^-n = 2^(1-start).

    For start = 0 this is the whole series, 2.  A start past
    ``MAX_EXACT_EXPONENT`` raises ``ExponentBoundError`` before 2^start is built.
    """
    if isinstance(start, bool) or not isinstance(start, int) or start < 0:
        raise ValueError(f"tail start must be a natural number, got {start!r}")
    if start > MAX_EXACT_EXPONENT:
        raise ExponentBoundError(
            f"a tail weight from index {format_rational(start)} is past the bound {MAX_EXACT_EXPONENT}"
            " on dyadic exponents"
        )
    return Fraction(2, 1 << start)


@dataclass(frozen=True, init=False, repr=False)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi.

    ``pairs`` = (lo_p, lo_q, hi_p, hi_q) is the only stored form: both
    endpoints reduced, with positive denominators, so ``==`` and ``hash``
    compare them.  ``width``, ``in`` and ``encloses`` decide on the pairs by
    cross-multiplication; ``lo`` and ``hi`` are Fractions built on first read.
    """

    pairs: tuple[int, int, int, int]

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        lo, hi = as_fraction(lo, "lo"), as_fraction(hi, "hi")
        _refuse_empty(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        object.__setattr__(self, "pairs", (lo.numerator, lo.denominator, hi.numerator, hi.denominator))
        self.__dict__.update(lo=lo, hi=hi)  # already built: the first read finds them

    @classmethod
    def of_pairs(cls, lo_p: int, lo_q: int, hi_p: int, hi_q: int) -> "RatInterval":
        """[lo_p/lo_q, hi_p/hi_q] from integer pairs, denominators positive, reduced here."""
        if lo_q <= 0 or hi_q <= 0:
            raise ValueError(f"denominators must be positive, got {lo_q} and {hi_q}")
        _refuse_empty(lo_p, lo_q, hi_p, hi_q)
        box = object.__new__(cls)
        g, h = math.gcd(lo_p, lo_q), math.gcd(hi_p, hi_q)
        object.__setattr__(box, "pairs", (lo_p // g, lo_q // g, hi_p // h, hi_q // h))
        return box

    @cached_property
    def lo(self) -> Fraction:
        return Fraction(self.pairs[0], self.pairs[1])

    @cached_property
    def hi(self) -> Fraction:
        return Fraction(self.pairs[2], self.pairs[3])

    def __repr__(self) -> str:
        return f"RatInterval(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def width(self) -> Fraction:
        lo_p, lo_q, hi_p, hi_q = self.pairs
        return Fraction(hi_p * lo_q - lo_p * hi_q, hi_q * lo_q)

    def __contains__(self, value: RationalLike) -> bool:
        value = as_fraction(value)
        p, q = value.numerator, value.denominator
        lo_p, lo_q, hi_p, hi_q = self.pairs
        return lo_p * q <= p * lo_q and p * hi_q <= hi_p * q

    def encloses(self, other: "RatInterval") -> bool:
        lo_p, lo_q, hi_p, hi_q = self.pairs
        in_lo_p, in_lo_q, in_hi_p, in_hi_q = other.pairs
        return lo_p * in_lo_q <= in_lo_p * lo_q and in_hi_p * hi_q <= hi_p * in_hi_q


def _refuse_empty(lo_p: int, lo_q: int, hi_p: int, hi_q: int) -> None:
    """Raise ``ValueError`` if lo_p/lo_q > hi_p/hi_q, both denominators positive."""
    if lo_p * hi_q > hi_p * lo_q:
        lo, hi = format_rational(Fraction(lo_p, lo_q)), format_rational(Fraction(hi_p, hi_q))
        raise ValueError(f"empty interval: lo {lo} > hi {hi}")
