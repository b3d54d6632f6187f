"""Exact rational substrate: dyadic weights, three-valued comparison, intervals.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded and no float survives past an argument check.  The serialized
form of a rational is always "p/q" (or just "p" when q = 1), with an optional
leading minus sign.  Decimal notation is rejected on input and never produced
on output.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "Rational",
    "Tribool",
    "RatInterval",
    "make_rational",
    "parse_rational",
    "format_rational",
    "dyadic_weight",
    "dyadic_tail_weight",
    "weight_sum",
    "interval_strictly_below",
]

# Arbitrary-precision exact rational, canonical form (reduced, den > 0)
# guaranteed by Fraction itself.
Rational = Fraction

RationalLike = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce int to Fraction; reject floats and anything else inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{what} must be an exact rational (Fraction or int), got {value!r}")


def make_rational(num: int, den: int = 1) -> Fraction:
    """Exact num/den in canonical form.  den = 0 raises ZeroDivisionError."""
    if not isinstance(num, int) or not isinstance(den, int):
        raise TypeError(f"make_rational needs integers, got {num!r}/{den!r}")
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading '-').  No decimals, no whitespace."""
    if not isinstance(text, str):
        raise TypeError(f"rational text must be a string, got {text!r}")
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an exact rational (expected 'p/q' or 'p'): {text!r}")
    num, _, den = text.partition("/")
    if den:
        return make_rational(int(num), int(den))
    return Fraction(int(num))


def format_rational(value: RationalLike) -> str:
    """Canonical "p/q" form, or "p" for integers."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dyadic_weight(index: int) -> Fraction:
    """The weight 2^-index attached to enumeration index ``index`` >= 0."""
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"weight index must be a natural number, got {index!r}")
    return Fraction(1, 2**index)


def dyadic_tail_weight(start: int) -> Fraction:
    """Total weight of all indices >= start: sum 2^-n = 2^(1-start).

    For start = 0 this is the whole series, 2.
    """
    if not isinstance(start, int) or start < 0:
        raise ValueError(f"tail start must be a natural number, got {start!r}")
    return Fraction(2, 2**start)


def weight_sum(indices: Iterable[int]) -> Fraction:
    """Exact sum of 2^-n over a finite set of naturals (duplicates ignored).

    The sum is one integer over 2^top, top the largest index: one Fraction.
    """
    distinct = set(indices)
    for n in distinct:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"weight index must be a natural number, got {n!r}")
    top = max(distinct, default=0)
    return Fraction(sum(1 << (top - n) for n in distinct), 1 << top)


class Tribool(enum.Enum):
    """Semi-decidable comparison outcome.  Never coerces to bool silently."""

    CERTAIN_TRUE = "certain-true"
    CERTAIN_FALSE = "certain-false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError(
            "Tribool has three states; match on CERTAIN_TRUE/CERTAIN_FALSE/UNKNOWN explicitly"
        )

    @property
    def is_certain(self) -> bool:
        return self is not Tribool.UNKNOWN


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_fraction(self.lo, "lo"))
        object.__setattr__(self, "hi", as_fraction(self.hi, "hi"))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value: RationalLike) -> bool:
        value = as_fraction(value)
        return self.lo <= value <= self.hi

    def encloses(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def interval_strictly_below(interval: RatInterval, x: RationalLike) -> Tribool:
    """Is every point of ``interval`` strictly below x?  Three-valued.

    Certain-True iff interval.hi < x; Certain-False iff interval.lo >= x
    (no point can be strictly below); Unknown otherwise.
    """
    x = as_fraction(x, "x")
    if interval.hi < x:
        return Tribool.CERTAIN_TRUE
    if interval.lo >= x:
        return Tribool.CERTAIN_FALSE
    return Tribool.UNKNOWN
