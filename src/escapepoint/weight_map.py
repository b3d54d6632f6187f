"""The dyadic weight map carrying both exact and interval modes.

For an enumeration f the map sends x to the total weight of indices whose
value lies strictly below x:

    weight_below(spec, x)  =  sum of 2^-n over { n : f(n) < x }.

It is monotone, bounded by [0, 2], and (restricted to [0, 2]) a finite step
function: ``plateau_profile`` materializes that step structure, which the
fixpoint oracles consume.  ``weight_below_bounds`` is the semi-decidable
variant: with only n_known interval queries at precision eps it brackets the
true value from both sides, charging every unseen index to a tail allowance.
It is ``query_boxes`` followed by ``bounds_from_boxes``; an enclosure calls
the first once and the second at every step of both descents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .enumeration import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    IntervalEnumeration,
    affine_cut,
    eligible_prefix_indices,
    tail_weight_sum,
)
from .numerics import (
    RatInterval,
    RationalLike,
    Tribool,
    as_fraction,
    dyadic_tail_weight,
    interval_strictly_below,
    weight_sum,
)

__all__ = [
    "WeightBounds",
    "weight_below",
    "weight_below_bounds",
    "query_boxes",
    "bounds_from_boxes",
    "plateau_profile",
]

_ZERO = Fraction(0)
_TWO = Fraction(2)


def weight_below(spec: EnumerationSpec, x: RationalLike) -> Fraction:
    """Exact value of the weight map at x."""
    x = as_fraction(x, "x")
    return weight_sum(eligible_prefix_indices(spec, x)) + tail_weight_sum(spec, x)


@dataclass(frozen=True)
class WeightBounds:
    """Two-sided enclosure of the weight map value at some x.

    ``lower`` counts indices certainly below x; ``upper`` adds the undecided
    indices and a tail allowance 2^-(n_known-1) for everything unexamined.
    Invariant: upper - lower = sum of undecided weights + tail_allowance.
    """

    lower: Fraction
    upper: Fraction
    certain: frozenset[int]
    undecided: frozenset[int]
    tail_allowance: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"bounds out of order: {self.lower} > {self.upper}")


def query_boxes(
    ienum: IntervalEnumeration,
    n_known: int,
    eps: RationalLike,
) -> Iterator[RatInterval]:
    """The boxes of indices 0, ..., n_known-1 at width eps, in index order.

    n_known and eps are checked at the call; each index is queried once, as
    the returned iterator reaches it.
    """
    if isinstance(n_known, bool) or not isinstance(n_known, int) or n_known < 1:
        raise ValueError(f"n_known must be a positive integer, got {n_known!r}")
    eps = as_fraction(eps, "eps")
    return (ienum.at(n, eps) for n in range(n_known))


def bounds_from_boxes(boxes: Sequence[RatInterval], x: RationalLike) -> WeightBounds:
    """Bracket the weight map at x from the boxes of indices 0, ..., len(boxes)-1."""
    x = as_fraction(x, "x")
    certain: set[int] = set()
    undecided: set[int] = set()
    for n, box in enumerate(boxes):
        verdict = interval_strictly_below(box, x)
        if verdict is Tribool.CERTAIN_TRUE:
            certain.add(n)
        elif verdict is Tribool.UNKNOWN:
            undecided.add(n)
    allowance = dyadic_tail_weight(len(boxes))
    lower = weight_sum(certain)
    upper = lower + weight_sum(undecided) + allowance
    return WeightBounds(lower, upper, frozenset(certain), frozenset(undecided), allowance)


def weight_below_bounds(
    ienum: IntervalEnumeration,
    n_known: int,
    eps: RationalLike,
    x: RationalLike,
) -> WeightBounds:
    """Bracket the weight map at x from n_known interval queries at width eps.

    Sound for any oracle meeting the IntervalEnumeration contract: the exact
    map value always lies in [lower, upper].  Each index is queried once;
    an enclosure queries the boxes once and both of its descents share them
    through ``bounds_from_boxes``, the classifier this function ends in.
    """
    boxes = query_boxes(ienum, n_known, eps)
    x = as_fraction(x, "x")  # checked before the first query
    return bounds_from_boxes(tuple(boxes), x)


def plateau_profile(
    spec: EnumerationSpec,
) -> tuple[Fraction, tuple[tuple[Fraction, Fraction], ...]]:
    """Step structure of the weight map on [0, 2].

    Returns ``(base, breaks)`` where ``base`` is the map value at 0 (weight of
    everything already below zero) and ``breaks`` lists, in ascending order,
    each distinct enumeration value t in [0, 2] with the total weight that
    becomes eligible once x passes t.  So for x in [0, 2]:

        weight_below(spec, x) = base + sum of jumps at breaks strictly below x.

    A cycle tail repeats every prefix jump in each later lap, which scales
    it by 2^L / (2^L - 1).  Affine tails contribute one break per index whose
    value lands in [0, 2], found between the cuts at 0 and 2; that is at most
    2/|a| + 1 indices, so cost grows as the slope flattens.  Jumps add up as
    integers over one denominator, 2^top for the deepest index top (times
    2^L - 1 for a cycle); each break makes one Fraction at the end.
    """
    start = len(spec.prefix)
    tail = spec.tail
    run = range(0)  # the affine tail indices that can land in [0, 2]
    if isinstance(tail, Affine):
        # a value exactly at the upper bound 2 sits just before the lower cut
        # when a < 0; the one or two indices outside [0, 2] are dropped below
        lo, hi = sorted((affine_cut(spec, _ZERO), affine_cut(spec, _TWO)))
        run = range(max(start, lo - 1), hi + 1)
    top = max(start, run.stop)
    lap = start if isinstance(tail, Cycle) else 0
    den = max(1, (1 << lap) - 1) << top
    # (value, shift): the enumerated value carries weight 2^shift / den
    weighted = [(v, top - i + lap) for i, v in enumerate(spec.prefix)]
    if isinstance(tail, Constant):
        weighted.append((tail.value, top - start + 1))
    weighted += [(tail.a * n + tail.b, top - n) for n in run]
    jumps: dict[Fraction, int] = {}
    for value, shift in weighted:
        if _ZERO <= value <= _TWO:
            jumps[value] = jumps.get(value, 0) + (1 << shift)
    breaks = []
    for at, jump in sorted(jumps.items()):
        # cancel the shared twos first, so that Fraction's gcd stays cheap
        twos = min((jump & -jump).bit_length() - 1, top)
        breaks.append((at, Fraction(jump >> twos, den >> twos)))
    return weight_below(spec, _ZERO), tuple(breaks)
