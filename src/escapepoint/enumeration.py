"""Finitely described total enumerations f : N -> Q.

An enumeration is a finite rational prefix plus a total tail rule:

* ``Constant(c)``   f(n) = c for every n past the prefix;
* ``Cycle()``       f(n) = prefix[n mod L], the prefix repeated forever
  (needs a nonempty prefix);
* ``Affine(a, b)``  f(n) = a*n + b with a != 0 (a = 0 is normalized to
  ``Constant(b)`` at construction).

Past the prefix a tail is a periodic block (``EnumerationSpec.block_pairs``,
for a constant or a cycle) or a line (``Affine.line``).  The closed forms
below make the total weight of eligible tail indices exact, which is what
lets the fixpoint engine run without ever truncating a series; one that
needs 2^k past ``MAX_EXACT_EXPONENT`` raises ``ExponentBoundError`` instead.
The same descriptions can be blurred into interval oracles (``intervalize``)
for the semi-decidable mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Callable, Collection, Optional, Union

from .numerics import (
    MAX_EXACT_EXPONENT,
    ExponentBoundError,
    RatInterval,
    RationalLike,
    as_fraction,
    format_rational,
    parse_rational,
)

__all__ = [
    "SpecError",
    "Constant",
    "Cycle",
    "Affine",
    "TailRule",
    "EnumerationSpec",
    "MAX_TAIL_CUT",
    "value_at",
    "eligible_prefix_indices",
    "check_exponent_bound",
    "tail_weight_sum",
    "tail_hits",
    "intervalize",
    "tail_to_jsonable",
    "tail_from_jsonable",
    "spec_to_jsonable",
    "spec_from_jsonable",
]


# Deepest affine tail cut at 0 or at 2 that the map's closed forms accept.
# They build 2^n for n up to the cuts, and a flat slope has about 2/|a|
# plateaus.  Affine(1/8192, 0) (cut 16384) is inside; near the bound,
# Affine(-1/8191, 2) takes 25-31 ms in compute_escape (42-54 ms on a busy host;
# best of 5 on one CPU of a shared 2-core x86_64 Xeon VM, Python 3.11.7), as its
# sweep decides all 16383 plateaus, and peaks at 0.019 MB traced.
MAX_TAIL_CUT = 1 << 14


class SpecError(ValueError):
    """A malformed enumeration description."""


@dataclass(frozen=True)
class Constant:
    """Tail rule f(n) = value for all n past the prefix."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_fraction(self.value, "constant tail value"))


@dataclass(frozen=True)
class Cycle:
    """Tail rule f(n) = prefix[n mod L]; the prefix repeated forever."""


@dataclass(frozen=True)
class Affine:
    """Tail rule f(n) = a*n + b, slope a != 0 after normalization.

    ``line`` = (A, B, D) is the rule over D = lcm of the denominators: f(n) = (A*n + B) / D.
    """

    a: Fraction
    b: Fraction
    line: tuple[int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a, b = as_fraction(self.a, "affine slope"), as_fraction(self.b, "affine intercept")
        scale = math.lcm(a.denominator, b.denominator)
        line = (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator), scale)
        for name, value in (("a", a), ("b", b), ("line", line)):
            object.__setattr__(self, name, value)


TailRule = Union[Constant, Cycle, Affine]


@dataclass(frozen=True)
class EnumerationSpec:
    """A total map f : N -> Q: finite prefix f(0..L-1) plus a tail rule.

    ``prefix_pairs`` holds each prefix value as its reduced (numerator,
    denominator) pair, read once here, so that order questions about the
    prefix are answered by integer cross-multiplication.  ``block_pairs`` is
    the periodic tail's block in the same form: f(n) = block[(n - L) mod P]
    for n >= L.  It is (c,) for ``Constant(c)``, ``prefix_pairs`` for
    ``Cycle()``, and empty for an affine tail, whose rule is its line.
    ``window`` is an affine tail's cuts at 0 and at 2, the smaller first,
    taken here once and nowhere else; None for a periodic tail.
    """

    prefix: tuple[Fraction, ...]
    tail: TailRule
    prefix_pairs: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    block_pairs: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    window: Optional[tuple[int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = tuple(v if isinstance(v, Fraction) else as_fraction(v, f"prefix[{i}]")
                       for i, v in enumerate(self.prefix))  # a Fraction is kept, with no path built
        pairs = tuple((v.numerator, v.denominator) for v in values)
        tail = self.tail
        if isinstance(tail, Affine) and tail.a == 0:
            tail = Constant(tail.b)  # degenerate slope: same map, simpler rule
        if isinstance(tail, Constant):
            block = ((tail.value.numerator, tail.value.denominator),)
        elif isinstance(tail, Cycle):
            if not values:
                raise SpecError("cycle tail needs a nonempty prefix")
            block = pairs
        elif isinstance(tail, Affine):
            block = ()
        else:
            raise SpecError(f"unknown tail rule {tail!r}")
        for name, value in (("prefix", values), ("tail", tail), ("prefix_pairs", pairs), ("block_pairs", block)):
            object.__setattr__(self, name, value)
        window = None if block else tuple(sorted((_cut(self, 0, 1), _cut(self, 2, 1))))
        object.__setattr__(self, "window", window)

    @cached_property
    def _block_places(self) -> dict[tuple[int, int], tuple[str, int]]:
        """A periodic tail's places for ``_tail_places``, sorted once, on first read."""
        start, block = len(self.prefix), self.block_pairs
        index = dict(zip(block, range(start, start + len(block))))
        return {pair: ("tail", index[pair]) for pair in _ascending(index)}


def value_at(spec: EnumerationSpec, n: int) -> Fraction:
    """f(n): prefix entry for n < L, tail rule otherwise.  Total for n >= 0."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"enumeration index must be a natural number, got {n!r}")
    return Fraction(*_pair_at(spec, n))


def _pair_at(spec: EnumerationSpec, n: int) -> tuple[int, int]:
    """f(n) as a (numerator, denominator) pair, denominator positive.

    Reduced, except an affine tail's (A*n + B, D) from ``Affine.line``.
    """
    length = len(spec.prefix)
    if n < length:
        return spec.prefix_pairs[n]
    block = spec.block_pairs
    if block:
        return block[(n - length) % len(block)]
    slope, intercept, scale = spec.tail.line
    return slope * n + intercept, scale


def eligible_prefix_indices(spec: EnumerationSpec, x: RationalLike) -> set[int]:
    """Prefix indices n with f(n) strictly below x."""
    x = as_fraction(x, "x")
    num, den = x.numerator, x.denominator
    return {n for n, (p, q) in enumerate(spec.prefix_pairs) if p * den < num * q}


def _cut(spec: EnumerationSpec, p: int, q: int) -> int:
    """Index where the affine tail crosses x = p/q, q > 0, never below the prefix length L.

    The tail indices n >= L with a*n + b < x are [L, cut) when a > 0 and
    [cut, infinity) when a < 0.  The boundary (x - b) / a is strict and
    computed as one integer quotient: for the tail's line (A, B, D) it is
    (p*D - B*q) / (q*A), whose denominator has the sign of a.  p/q need
    not be reduced.
    """
    slope, intercept, scale = spec.tail.line
    num = p * scale - intercept * q
    den = q * slope
    # the ceiling when a > 0; the floor plus one when a < 0
    cut = -(-num // den) if den > 0 else num // den + 1
    return max(len(spec.prefix), cut)


def _line_index(spec: EnumerationSpec, p: int, q: int) -> tuple[int, bool]:
    """The index n where an affine tail may take the value p/q, q > 0, and whether a*n + b = p/q.

    n is the cut at p/q (a > 0) or the index before it (a < 0), so it can be L - 1.
    """
    slope, intercept, scale = spec.tail.line
    n = _cut(spec, p, q) - (slope < 0)
    return n, p * scale == q * (slope * n + intercept)


def _tail_places(spec: EnumerationSpec, p: int, q: int) -> dict[tuple[int, int], tuple[Union[int, str], int]]:
    """The tail values that could equal p/q, q > 0: each reduced pair, mapped to (where, index n >= L).

    A periodic tail gives each distinct block value, in ascending order, as
    ``"tail"``.  An affine tail gives its closest approach to p/q over
    n >= L, which is its crossing index when a tail value equals p/q: the
    tail crosses p/q between the cut and the index before it.  Both values
    are over D, so |(A*n + B)*q - p*D| decides, and a tie goes to the value below.
    The caller must not change the mapping: a periodic tail's is kept on the spec.
    """
    if spec.block_pairs:
        return spec._block_places
    start = len(spec.prefix)
    slope, intercept, scale = spec.tail.line
    cut = _cut(spec, p, q)
    diffs = {n: (slope * n + intercept) * q - p * scale for n in (max(start, cut - 1), cut)}
    n = min(diffs, key=lambda n: (abs(diffs[n]), diffs[n] > 0))
    value = slope * n + intercept
    g = math.gcd(value, scale)
    return {(value // g, scale // g): (n, n)}


def check_exponent_bound(spec: EnumerationSpec) -> None:
    """Raise ``ExponentBoundError`` if an affine tail's cut at 0 or 2 lies past ``MAX_TAIL_CUT``."""
    if spec.window and spec.window[1] > MAX_TAIL_CUT:
        raise ExponentBoundError(
            f"the affine tail crosses [0, 2] at index {format_rational(spec.window[1])}, past the bound "
            f"{MAX_TAIL_CUT} on dyadic exponents"
        )


def _ascending(pairs: Collection[tuple[int, int]]) -> list[tuple[int, int]]:
    """Distinct (numerator, denominator) pairs, denominators positive, by ascending value.

    Each comparison is one integer cross-multiplication: p/q sorts before
    r/s when p*s < r*q.
    """
    return sorted(pairs, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))


def tail_weight_sum(spec: EnumerationSpec, x: RationalLike) -> Fraction:
    """Exact total weight of tail indices n >= L with f(n) < x: see ``_plus_tail``."""
    x = as_fraction(x, "x")
    return Fraction(*_plus_tail(spec, x.numerator, x.denominator, 0))


def _below(pairs: tuple[tuple[int, int], ...], p: int, q: int) -> int:
    """The sum of 2^(len(pairs) - i) over the positions i whose pair a/b lies below p/q, q > 0."""
    length = len(pairs)
    num = 0
    for i, (a, b) in enumerate(pairs):
        if a * q < p * b:
            num += 1 << (length - i)
    return num


def _plus_tail(spec: EnumerationSpec, p: int, q: int, num: int) -> tuple[int, int]:
    """num / 2^L plus the weight of the tail's indices with f(n) < x = p/q.

    An unreduced pair, for any q > 0.  Index L + j + kP of a periodic tail
    weighs 2^-(L+j+kP), so over all laps block position j adds
    2^(P-j) / ((2^P - 1) * 2^L).  An affine tail's eligible indices lie on
    one side of the cut: it adds 2^(1-L) - 2^(1-cut) (a > 0) or 2^(1-cut)
    (a < 0), over 2^cut, or raises ``ExponentBoundError`` past
    ``MAX_EXACT_EXPONENT``, before 2^cut is built.
    """
    start = len(spec.prefix)
    block = spec.block_pairs
    if block:
        lap = (1 << len(block)) - 1
        return num * lap + _below(block, p, q), lap << start
    cut = _cut(spec, p, q)
    if cut > MAX_EXACT_EXPONENT:
        raise ExponentBoundError(
            f"the affine tail crosses {format_rational(p)}/{format_rational(q)} at index "
            f"{format_rational(cut)}, past the bound {MAX_EXACT_EXPONENT} on dyadic exponents"
        )
    num, sign = (num + 2, -1) if spec.tail.line[0] > 0 else (num, 1)
    return (num << (cut - start)) + 2 * sign, 1 << cut


def tail_hits(spec: EnumerationSpec, v: RationalLike) -> bool:
    """Does any tail index n >= L satisfy f(n) = v?  Exactly when v is one of the ``_tail_places``."""
    v = as_fraction(v, "v")
    pair = (v.numerator, v.denominator)
    return pair in _tail_places(spec, *pair)


def intervalize(spec: EnumerationSpec) -> Callable[[int, Fraction], RatInterval]:
    """Blur an exact enumeration into an interval oracle of centred boxes.

    A query (n, eps) returns the width-eps interval centred on f(n): for
    f(n) = p/q and eps = e/d its endpoints are (2dp -/+ eq) / (2dq), each
    reduced once.  The true value is always inside, and the boxes for one n
    are nested as eps shrinks.  An affine tail's pair (A*n + B, D) need not
    be reduced; the endpoints are.

    A box depends only on (p, q) and eps, and past the prefix a periodic
    tail's index n repeats its value with period P.  So the prefix and the
    tail answer from L + P slots, slot n for n < L and L + (n - L) mod P
    after that.  A slot is filled on its first query, and the slots are
    kept for the last eps asked only.  An affine tail's boxes are built on
    each query from its line, read once here, and never kept.  An index
    that ``value_at`` refuses raises its ``ValueError``, and a new eps that
    is not exact ``TypeError``.
    """
    start, period = len(spec.prefix), len(spec.block_pairs)
    slope, intercept, scale = spec.tail.line if not period else (0, 0, 1)  # unused for a periodic tail
    at_eps = e = f = None  # the eps last asked, and its e and 2d
    slots: list = []

    def oracle(n: int, eps: Fraction) -> RatInterval:
        nonlocal at_eps, e, f, slots
        if eps is not at_eps:
            eps = as_fraction(eps, "eps")
            if eps != at_eps:
                e, f = eps.numerator, 2 * eps.denominator
                slots = [None] * (start + period)
            at_eps = eps
        if n.__class__ is not int or n < 0:  # value_at refuses a bool, a non-int or a negative index
            value_at(spec, n)
        slot = n
        if n >= start:
            if not period:
                return _box(slope * n + intercept, scale, e, f)
            slot = start + (n - start) % period
        box = slots[slot]
        if box is None:
            p, q = _pair_at(spec, n)
            box = slots[slot] = _box(p, q, e, f)
        return box

    return oracle


def _box(p: int, q: int, e: int, f: int) -> RatInterval:
    """The box centred on p/q of half width e/f: see ``intervalize``."""
    center, half, den = p * f, e * q, q * f
    return RatInterval.of_pairs(center - half, den, center + half, den)


# -- text format ------------------------------------------------------------
#
# {"prefix": ["p/q", ...],
#  "tail": {"kind": "constant", "value": "p/q"}
#        | {"kind": "cycle"}
#        | {"kind": "affine", "a": "p/q", "b": "p/q"}}
#
# Rationals are strings; bare JSON numbers are rejected to keep exactness
# explicit.  Errors carry the offending position.


def _rational_at(obj: object, where: str, index: Optional[int] = None) -> Fraction:
    try:
        return parse_rational(obj)
    except (TypeError, ValueError) as exc:  # a refusal names where, or where[index], built only now
        problem = exc if isinstance(obj, str) else f"expected a rational string 'p/q', got {obj!r}"
    raise SpecError(f"{where}: {problem}" if index is None else f"{where}[{index}]: {problem}")


def tail_to_jsonable(tail: TailRule) -> dict:
    if isinstance(tail, Constant):
        return {"kind": "constant", "value": format_rational(tail.value)}
    if isinstance(tail, Cycle):
        return {"kind": "cycle"}
    return {"kind": "affine", "a": format_rational(tail.a), "b": format_rational(tail.b)}


def tail_from_jsonable(obj: object) -> TailRule:
    if not isinstance(obj, dict):
        raise SpecError(f"tail: expected an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "constant":
        _expect_keys(obj, {"kind", "value"}, "tail")
        return Constant(_rational_at(obj.get("value"), "tail.value"))
    if kind == "cycle":
        _expect_keys(obj, {"kind"}, "tail")
        return Cycle()
    if kind == "affine":
        _expect_keys(obj, {"kind", "a", "b"}, "tail")
        return Affine(_rational_at(obj.get("a"), "tail.a"), _rational_at(obj.get("b"), "tail.b"))
    raise SpecError(f"tail.kind: unknown tail kind {kind!r}")


def _expect_keys(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SpecError(f"{where}: unexpected keys {sorted(extra)}")
    missing = allowed - set(obj)
    if missing:
        raise SpecError(f"{where}: missing keys {sorted(missing)}")


def spec_to_jsonable(spec: EnumerationSpec) -> dict:
    return {
        "prefix": [format_rational(v) for v in spec.prefix],
        "tail": tail_to_jsonable(spec.tail),
    }


def spec_from_jsonable(obj: object) -> EnumerationSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"spec: expected an object, got {obj!r}")
    _expect_keys(obj, {"prefix", "tail"}, "spec")
    raw_prefix = obj["prefix"]
    if not isinstance(raw_prefix, list):
        raise SpecError(f"prefix: expected a list, got {raw_prefix!r}")
    prefix = tuple(_rational_at(v, "prefix", i) for i, v in enumerate(raw_prefix))
    tail = tail_from_jsonable(obj["tail"])
    try:
        return EnumerationSpec(prefix, tail)
    except SpecError as exc:
        raise SpecError(f"tail: {exc}") from None
