"""Finitely described total enumerations f : N -> Q.

An enumeration is a finite rational prefix plus a total tail rule:

* ``Constant(c)``   f(n) = c for every n past the prefix;
* ``Cycle()``       f(n) = prefix[n mod L], the prefix repeated forever
  (needs a nonempty prefix);
* ``Affine(a, b)``  f(n) = a*n + b with a != 0 (a = 0 is normalized to
  ``Constant(b)`` at construction).

The closed forms below make the total weight of eligible tail indices exact,
which is what lets the fixpoint engine run without ever truncating a series.
The same descriptions can be blurred into interval oracles (``intervalize``)
for the semi-decidable mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Collection, Union

from .numerics import (
    MAX_EXACT_EXPONENT,
    DyadicTail,
    ExponentBoundError,
    RatInterval,
    RationalLike,
    as_fraction,
    format_rational,
    parse_rational,
    weight_sum,
)

__all__ = [
    "SpecError",
    "Constant",
    "Cycle",
    "Affine",
    "TailRule",
    "EnumerationSpec",
    "IntervalEnumeration",
    "MAX_TAIL_CUT",
    "value_at",
    "eligible_prefix_indices",
    "affine_cut",
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
# Affine(-1/8191, 2) takes 0.13-0.22 s and 34 MB peak in compute_escape on a
# 2-core x86_64 VM, since its sweep tests all 16383 plateaus.
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
    prefix are answered by integer cross-multiplication.
    """

    prefix: tuple[Fraction, ...]
    tail: TailRule
    prefix_pairs: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = tuple(as_fraction(v, f"prefix[{i}]") for i, v in enumerate(self.prefix))
        object.__setattr__(self, "prefix", values)
        object.__setattr__(self, "prefix_pairs", tuple((v.numerator, v.denominator) for v in values))
        tail = self.tail
        if isinstance(tail, Affine) and tail.a == 0:
            tail = Constant(tail.b)  # degenerate slope: same map, simpler rule
            object.__setattr__(self, "tail", tail)
        if not isinstance(tail, (Constant, Cycle, Affine)):
            raise SpecError(f"unknown tail rule {tail!r}")
        if isinstance(tail, Cycle) and not values:
            raise SpecError("cycle tail needs a nonempty prefix")


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
    tail = spec.tail
    if isinstance(tail, Constant):
        return tail.value.numerator, tail.value.denominator
    if isinstance(tail, Cycle):
        return spec.prefix_pairs[n % length]
    slope, intercept, scale = tail.line
    return slope * n + intercept, scale


def eligible_prefix_indices(spec: EnumerationSpec, x: RationalLike) -> set[int]:
    """Prefix indices n with f(n) strictly below x."""
    x = as_fraction(x, "x")
    num, den = x.numerator, x.denominator
    return {n for n, (p, q) in enumerate(spec.prefix_pairs) if p * den < num * q}


def affine_cut(spec: EnumerationSpec, x: RationalLike) -> int:
    """Index where the affine tail crosses x, never below the prefix length L.

    The tail indices n >= L with a*n + b < x are [L, cut) when a > 0 and
    [cut, infinity) when a < 0.  The boundary (x - b) / a is strict and
    computed as one integer quotient: for x = p/q and the tail's line
    (A, B, D) it is (p*D - B*q) / (q*A), whose denominator has the sign of a.
    """
    x = as_fraction(x, "x")
    return _cut(spec, x.numerator, x.denominator)


def _cut(spec: EnumerationSpec, p: int, q: int) -> int:
    """``affine_cut`` at x = p/q, q > 0; p/q need not be reduced."""
    slope, intercept, scale = spec.tail.line
    num = p * scale - intercept * q
    den = q * slope
    # the ceiling when a > 0; the floor plus one when a < 0
    cut = -(-num // den) if den > 0 else num // den + 1
    return max(len(spec.prefix), cut)


def _affine_window(spec: EnumerationSpec) -> tuple[int, int]:
    """The affine tail's cuts at 0 and at 2, the smaller first."""
    lo, hi = sorted((affine_cut(spec, 0), affine_cut(spec, 2)))
    return lo, hi


def _line_index(spec: EnumerationSpec, v: Fraction) -> tuple[int, bool]:
    """The index n where an affine tail may take the value v, and whether a*n + b = v.

    n is the cut at v (a > 0) or the index before it (a < 0), so it can be L - 1.
    """
    slope, intercept, scale = spec.tail.line
    n = affine_cut(spec, v) - (slope < 0)
    return n, v.numerator * scale == v.denominator * (slope * n + intercept)


def check_exponent_bound(spec: EnumerationSpec) -> None:
    """Raise ``ExponentBoundError`` if an affine tail's cut at 0 or 2 lies past ``MAX_TAIL_CUT``."""
    if isinstance(spec.tail, Affine):
        cut = _affine_window(spec)[1]
        if cut > MAX_TAIL_CUT:
            raise ExponentBoundError(
                f"the affine tail crosses [0, 2] at index {cut}, past the bound "
                f"{MAX_TAIL_CUT} on dyadic exponents"
            )


def _ascending(pairs: Collection[tuple[int, int]]) -> list[tuple[int, int]]:
    """Distinct (numerator, denominator) pairs, denominators positive, by ascending value.

    Each comparison is one integer cross-multiplication: p/q sorts before
    r/s when p*s < r*q.
    """
    return sorted(pairs, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))


def tail_weight_sum(spec: EnumerationSpec, x: RationalLike) -> Fraction:
    """Exact total weight of tail indices n >= L with f(n) < x.

    Constant: the whole tail 2^(1-L) or nothing.  Cycle: every later lap
    repeats the eligible prefix indices shifted by a multiple of L, so the
    tail adds W(x) / (2^L - 1), where W(x) is the eligible prefix weight.
    Affine: the indices on the eligible side of ``affine_cut``, an initial
    segment (a > 0) or a final segment (a < 0) of the tail, summed in closed
    form by ``_plus_tail``.
    """
    x = as_fraction(x, "x")
    if isinstance(spec.tail, Cycle):
        return weight_sum(eligible_prefix_indices(spec, x)) / ((1 << len(spec.prefix)) - 1)
    weight = _plus_tail(spec, x.numerator, x.denominator, 0)
    return weight if isinstance(weight, DyadicTail) else Fraction(*weight)


def _plus_tail(spec: EnumerationSpec, p: int, q: int, num: int) -> Union[tuple[int, int], DyadicTail]:
    """num / 2^L plus the weight of a constant or affine tail's indices with f(n) < x = p/q.

    An unreduced pair, for any q > 0.  A constant tail below x adds 2 / 2^L.
    An affine tail adds 2^(1-L) - 2^(1-cut) (a > 0) or 2^(1-cut) (a < 0),
    put over 2^cut, or kept as a lazy ``DyadicTail`` past ``MAX_EXACT_EXPONENT``.
    """
    start = len(spec.prefix)
    tail = spec.tail
    if isinstance(tail, Constant):
        c = tail.value
        return num + 2 * (c.numerator * q < p * c.denominator), 1 << start
    cut = _cut(spec, p, q)
    num, sign = (num + 2, -1) if tail.line[0] > 0 else (num, 1)
    if cut > MAX_EXACT_EXPONENT:
        return DyadicTail(Fraction(num, 1 << start), sign, cut - 1)
    return (num << (cut - start)) + 2 * sign, 1 << cut


def tail_hits(spec: EnumerationSpec, v: RationalLike) -> bool:
    """Does any tail index n >= L satisfy f(n) = v?  Solved exactly."""
    v = as_fraction(v, "v")
    start = len(spec.prefix)
    tail = spec.tail
    if isinstance(tail, Constant):
        return tail.value == v
    if isinstance(tail, Cycle):
        return (v.numerator, v.denominator) in spec.prefix_pairs
    n, on_line = _line_index(spec, v)
    return on_line and n >= start


@dataclass(frozen=True)
class IntervalEnumeration:
    """Semi-decidable access to an enumeration: per-index interval oracle.

    ``oracle(n, eps)`` must return a RatInterval of width <= eps containing
    the true value f(n), nested as eps shrinks, deterministic per (n, eps).
    ``at`` enforces the width contract at the call boundary.
    """

    oracle: Callable[[int, Fraction], RatInterval]

    def at(self, n: int, eps: RationalLike) -> RatInterval:
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"enumeration index must be a natural number, got {n!r}")
        eps = as_fraction(eps, "eps")
        if eps.numerator <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        box = self.oracle(n, eps)
        lo_p, lo_q, hi_p, hi_q = box.pairs
        # hi - lo > eps, cross-multiplied over the three positive denominators
        if (hi_p * lo_q - lo_p * hi_q) * eps.denominator > eps.numerator * hi_q * lo_q:
            raise ValueError(f"interval oracle broke its width contract at n={n}: {box}")
        return box


def intervalize(spec: EnumerationSpec, jitter: RationalLike = 0) -> IntervalEnumeration:
    """Blur an exact enumeration into an interval oracle.

    Returns width-eps intervals centered within ``jitter`` of the true value
    (skewed alternately up and down so jitter is actually exercised).  The
    true value is always inside, and intervals for the same n are nested as
    eps shrinks.  jitter = 0 gives exactly centered intervals.

    Each endpoint value + skew -/+ half is built as one Fraction over
    q*g*f, for value p/q, jitter j/g and half = eps/2 = e/f: the skew
    min(jitter, half) is k/(g*f), k = min(j*f, e*g), and half is e*g/(g*f).
    An affine tail's pair (A*n + B, D) need not be reduced; the endpoints are.

    A box depends only on (p, q, k) at one eps.  The prefix and a constant
    or cycle tail take at most L + 1 values, so their boxes are built once
    and the same immutable box is returned again; they are kept for the
    last eps asked only, at most 2(L + 1) of them.  An affine tail's boxes
    are built on each query and never kept.
    """
    jitter = as_fraction(jitter, "jitter")
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    j, g = jitter.numerator, jitter.denominator
    start, affine = len(spec.prefix), isinstance(spec.tail, Affine)
    kept: dict[tuple[int, int, int], RatInterval] = {}
    kept_at = (0, 0)  # (e, f) of the eps whose boxes ``kept`` holds

    def oracle(n: int, eps: Fraction) -> RatInterval:
        nonlocal kept_at
        p, q = _pair_at(spec, n)
        e, f = eps.numerator, 2 * eps.denominator
        k = j * f if j * f < e * g else e * g
        if n % 2:
            k = -k
        if affine and n >= start:
            return _box(p, q, k, e, f, g)
        if (e, f) != kept_at:
            kept.clear()
            kept_at = (e, f)
        box = kept.get((p, q, k))
        if box is None:
            box = kept[p, q, k] = _box(p, q, k, e, f, g)
        return box

    return IntervalEnumeration(oracle)


def _box(p: int, q: int, k: int, e: int, f: int, g: int) -> RatInterval:
    """The box of value p/q skewed by k/(g*f), of half width e/f: see ``intervalize``."""
    center, half, den = p * g * f + k * q, e * g * q, q * g * f
    return RatInterval(Fraction(center - half, den), Fraction(center + half, den))


# -- text format ------------------------------------------------------------
#
# {"prefix": ["p/q", ...],
#  "tail": {"kind": "constant", "value": "p/q"}
#        | {"kind": "cycle"}
#        | {"kind": "affine", "a": "p/q", "b": "p/q"}}
#
# Rationals are strings; bare JSON numbers are rejected to keep exactness
# explicit.  Errors carry the offending position.


def _rational_at(obj: object, where: str) -> Fraction:
    if not isinstance(obj, str):
        raise SpecError(f"{where}: expected a rational string 'p/q', got {obj!r}")
    try:
        return parse_rational(obj)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def tail_to_jsonable(tail: TailRule) -> dict:
    if isinstance(tail, Constant):
        return {"kind": "constant", "value": format_rational(tail.value)}
    if isinstance(tail, Cycle):
        return {"kind": "cycle"}
    return {"kind": "affine", "a": format_rational(tail.a), "b": format_rational(tail.b)}


def tail_from_jsonable(obj: object, where: str = "tail") -> TailRule:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "constant":
        _expect_keys(obj, {"kind", "value"}, where)
        return Constant(_rational_at(obj.get("value"), f"{where}.value"))
    if kind == "cycle":
        _expect_keys(obj, {"kind"}, where)
        return Cycle()
    if kind == "affine":
        _expect_keys(obj, {"kind", "a", "b"}, where)
        return Affine(_rational_at(obj.get("a"), f"{where}.a"),
                      _rational_at(obj.get("b"), f"{where}.b"))
    raise SpecError(f"{where}.kind: unknown tail kind {kind!r}")


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
    prefix = tuple(_rational_at(v, f"prefix[{i}]") for i, v in enumerate(raw_prefix))
    tail = tail_from_jsonable(obj["tail"])
    try:
        return EnumerationSpec(prefix, tail)
    except SpecError as exc:
        raise SpecError(f"tail: {exc}") from None
