"""Exact rational substrate: dyadic weights and intervals.

Every quantity in this package is an exact ``fractions.Fraction``; nothing is
ever rounded and no float survives past an argument check.  The serialized
form of a rational is always "p/q" (or just "p" when q = 1), with an optional
leading minus sign.  Decimal notation is rejected on input and never produced
on output.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

__all__ = [
    "RatInterval",
    "as_fraction",
    "parse_rational",
    "format_rational",
    "dyadic_weight",
    "dyadic_tail_weight",
    "DyadicTail",
    "MAX_EXACT_EXPONENT",
    "ExponentBoundError",
    "weight_sum",
]

RationalLike = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce int to Fraction; reject floats and anything else inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{what} must be an exact rational (Fraction or int), got {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading '-').  No decimals, no whitespace, no zero q."""
    if not isinstance(text, str):
        raise TypeError(f"rational text must be a string, got {text!r}")
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an exact rational (expected 'p/q' or 'p'): {text!r}")
    num, _, den = text.partition("/")
    q = int(den) if den else 1
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), q)


def format_rational(value: RationalLike) -> str:
    """Canonical "p/q" form, or "p" for integers."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dyadic_weight(index: int) -> Fraction:
    """The weight 2^-index attached to enumeration index ``index`` >= 0."""
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise ValueError(f"weight index must be a natural number, got {index!r}")
    return Fraction(1, 2**index)


# Largest exponent k for which a tail weight is built as a Fraction over 2^k
# (a 128 KiB denominator); past it the weight stays a lazy ``DyadicTail``.
MAX_EXACT_EXPONENT = 1 << 20


class ExponentBoundError(ValueError):
    """A dyadic exponent past a bound: 2^n would be too large to build."""


def dyadic_tail_weight(start: int) -> Fraction:
    """Total weight of all indices >= start: sum 2^-n = 2^(1-start).

    For start = 0 this is the whole series, 2.  Past ``MAX_EXACT_EXPONENT``
    the weight is a ``DyadicTail``, which never builds 2^(start-1).
    """
    if isinstance(start, bool) or not isinstance(start, int) or start < 0:
        raise ValueError(f"tail start must be a natural number, got {start!r}")
    if start > MAX_EXACT_EXPONENT:
        return DyadicTail(Fraction(0), 1, start - 1)
    return Fraction(2, 1 << start)


class DyadicTail(Fraction):
    """The exact rational base + sign * 2^-exponent, with 2^exponent never built.

    It adds and subtracts ints and Fractions (the result is again a
    ``DyadicTail``), negates, and compares with them exactly: the sign of
    (base - other) decides unless 2^-exponent is not smaller than that
    difference, which needs an operand with an exponent-sized denominator.
    Anything that needs its numerator or denominator raises
    ``ExponentBoundError``, as does combining two of them.  A Fraction
    operand on the left still reaches these methods first, because Python
    tries a subclass's reflected method before the base class's own.
    """

    __slots__ = ("_base", "_sign", "_exponent")

    def __new__(cls, base: Fraction, sign: int, exponent: int) -> "DyadicTail":
        self = object.__new__(cls)
        self._base, self._sign, self._exponent = base, sign, exponent
        return self

    @property
    def _numerator(self) -> int:
        raise ExponentBoundError(
            f"{self!r} needs 2^{self._exponent}, past the bound 2^{MAX_EXACT_EXPONENT}"
        )

    _denominator = _numerator

    def __repr__(self) -> str:
        sign = "+" if self._sign > 0 else "-"
        return f"DyadicTail({format_rational(self._base)} {sign} 2^-{self._exponent})"

    def _rational(self, other: object) -> Fraction | None:
        """``other`` as a plain Fraction, or None for a non-rational operand."""
        if isinstance(other, DyadicTail):
            raise ExponentBoundError(f"cannot combine {self!r} with {other!r}")
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __add__(self, other: object) -> "DyadicTail":
        other = self._rational(other)
        if other is None:
            return NotImplemented
        return DyadicTail(self._base + other, self._sign, self._exponent)

    __radd__ = __add__

    def __neg__(self) -> "DyadicTail":
        return DyadicTail(-self._base, -self._sign, self._exponent)

    def __sub__(self, other: object) -> "DyadicTail":
        other = self._rational(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other: object) -> "DyadicTail":
        other = self._rational(other)
        return NotImplemented if other is None else -self + other

    def _sign_minus(self, other: Fraction) -> int:
        """The sign of self - other = d + sign * 2^-exponent, d = base - other."""
        d = self._base - other
        if not d:
            return self._sign
        p, q = d.numerator, d.denominator
        # |d| > 2^(bits(p) - 1 - bits(q)) >= 2^-exponent once the exponent is past this
        if self._exponent > q.bit_length() - p.bit_length():
            return 1 if p > 0 else -1
        # here 2^exponent is no larger than q, which the caller already holds
        scaled = (p << self._exponent) + self._sign * q
        return (scaled > 0) - (scaled < 0)

    def _compare(self, other: object, op: Callable[[int, int], bool]) -> bool:
        other = self._rational(other)
        return NotImplemented if other is None else op(self._sign_minus(other), 0)

    def __eq__(self, other: object) -> bool:
        return self._compare(other, operator.eq)

    def __lt__(self, other: object) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other: object) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other: object) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other: object) -> bool:
        return self._compare(other, operator.ge)

    def __bool__(self) -> bool:
        return self._sign_minus(Fraction(0)) != 0

    # the hash needs the numerator, so it raises ExponentBoundError
    __hash__ = Fraction.__hash__


def weight_sum(indices: Iterable[int]) -> Fraction:
    """Exact sum of 2^-n over a finite set of naturals (duplicates ignored).

    The sum is one integer over 2^top, top the largest index: one Fraction.
    """
    indices = list(indices)  # checked before duplicates go: {1, True} is {1}
    for n in indices:
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"weight index must be a natural number, got {n!r}")
    distinct = set(indices)
    top = max(distinct, default=0)
    return Fraction(sum(1 << (top - n) for n in distinct), 1 << top)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_fraction(self.lo, "lo"))
        object.__setattr__(self, "hi", as_fraction(self.hi, "hi"))
        if self.lo.numerator * self.hi.denominator > self.hi.numerator * self.lo.denominator:
            raise ValueError(f"empty interval: lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value: RationalLike) -> bool:
        value = as_fraction(value)
        return self.lo <= value <= self.hi

    def encloses(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

