"""The dyadic weight map carrying both exact and interval modes.

For an enumeration f the map sends x to the total weight of indices whose
value lies strictly below x:

    weight_below(spec, x)  =  sum of 2^-n over { n : f(n) < x }.

It is monotone, bounded by [0, 2], and (restricted to [0, 2]) a finite step
function: ``step_structure`` builds that structure once, as integers over
one denominator, and ``StepStructure.plateaus`` walks its plateaus from the
top down for both fixpoint oracles.  The semi-decidable variant is
``query_boxes`` followed by ``box_classifier``: with only n_known interval
queries at precision eps it brackets the true value from both sides in a
``RatInterval``, charging every unseen index to a tail allowance.  The
classifier tests each distinct box once per x, and its time and memory are
linear in n_known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Sequence, Union

from .enumeration import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    IntervalEnumeration,
    _affine_window,
    _ascending,
    _line_index,
    _plus_tail,
    check_exponent_bound,
)
from .numerics import DyadicTail, RatInterval, RationalLike, as_fraction

__all__ = [
    "MAX_N_KNOWN",
    "StepStructure",
    "weight_below",
    "query_boxes",
    "box_classifier",
    "step_structure",
]

# Most indices one bound map or enclosure may query; its tail allowance is 2^(1 - n_known).
# An enclosure holds the boxes, a classifier row per distinct box and a row number per index:
# 2 MB traced at this bound for a cycle tail, 30 MB for an affine tail, whose boxes all differ.
# More is refused.
MAX_N_KNOWN = 1 << 16

_TWO = Fraction(2)


def weight_below(spec: EnumerationSpec, x: RationalLike) -> Fraction:
    """Exact value of the weight map at x, as one Fraction: ``_weight_pair`` reduced once."""
    x = as_fraction(x, "x")
    weight = _weight_pair(spec, x.numerator, x.denominator)
    return weight if isinstance(weight, DyadicTail) else Fraction(*weight)


def _weight_pair(spec: EnumerationSpec, p: int, q: int) -> Union[tuple[int, int], DyadicTail]:
    """The weight map at x = p/q (q > 0, p/q need not be reduced) as an unreduced pair.

    The eligible prefix weight W = num / 2^L is summed by cross-multiplication.
    A cycle tail makes it W + W / (2^L - 1) = num / (2^L - 1); ``_plus_tail``
    adds a constant or affine tail, lazily past ``MAX_EXACT_EXPONENT``.
    """
    length = len(spec.prefix)
    num = 0
    for n, (a, b) in enumerate(spec.prefix_pairs):
        if a * q < p * b:
            num += 1 << (length - n)
    if isinstance(spec.tail, Cycle):
        return num, (1 << length) - 1
    return _plus_tail(spec, p, q, num)


def query_boxes(
    ienum: IntervalEnumeration,
    n_known: int,
    eps: RationalLike,
) -> Iterator[RatInterval]:
    """The boxes of indices 0, ..., n_known-1 at width eps, in index order.

    n_known (at most ``MAX_N_KNOWN``) is checked at the call; each index is
    queried once, through ``IntervalEnumeration.at``, as the returned
    iterator reaches it.
    """
    if isinstance(n_known, bool) or not isinstance(n_known, int) or n_known < 1:
        raise ValueError(f"n_known must be a positive integer, got {n_known!r}")
    if n_known > MAX_N_KNOWN:
        raise ValueError(f"n_known {n_known} exceeds the bound {MAX_N_KNOWN} on interval queries")
    eps = as_fraction(eps, "eps")
    return (ienum.at(n, eps) for n in range(n_known))


# A row's side of x is one ASCII digit: 0 for x <= lo, 1 for lo < x <= hi, 2 for hi < x.
_LOWER = bytes.maketrans(b"012", b"001")  # the digits as 1 where the box lies below x, else 0
_UPPER = bytes.maketrans(b"012", b"011")  # and as 1 where it may


def box_classifier(boxes: Sequence[RatInterval]) -> Callable[[RationalLike], RatInterval]:
    """The bound map x -> RatInterval of the boxes of indices 0, ..., len(boxes)-1.

    Equal boxes share one row, numbered in order of first index.  At each x
    every row is placed against x once, by cross-multiplication on its
    ``pairs``, as one digit; picking each index's row digit, then a closing
    0, spells a string whose base-2 value sums 2^(top - n), top =
    len(boxes), over the indices n marked.  The lower end marks the boxes
    with hi < x, the upper end those with lo < x, plus 2^(1 - top) for every
    index not queried.  Time and memory are linear in top, and no weight is
    kept per row.  When every box holds its index's value, as the
    IntervalEnumeration contract guarantees, the exact map value lies in the
    returned interval.
    """
    top = len(boxes)
    rows: dict[tuple[int, int, int, int], int] = {}  # box.pairs -> its row
    owner = [rows.setdefault(box.pairs, len(rows)) for box in boxes]
    ends = list(rows)
    spell = itemgetter(*owner, len(ends))  # each index's row, then one past the last row

    def bounds(x: RationalLike) -> RatInterval:
        x = as_fraction(x, "x")
        p, q = x.numerator, x.denominator
        # each row's digit as its ASCII code, 48 + side; hi is tested only where lo < x
        sides = [
            (50 if hi_p * q < p * hi_q else 49) if lo_p * q < p * lo_q else 48
            for lo_p, lo_q, hi_p, hi_q in ends
        ]
        sides.append(48)  # the closing 0
        digits = bytes(spell(sides))
        lower = int(digits.translate(_LOWER), 2)
        upper = int(digits.translate(_UPPER), 2)
        return RatInterval(Fraction(lower, 1 << top), Fraction(upper + 2, 1 << top))

    return bounds


@dataclass(frozen=True)
class StepStructure:
    """The weight map on [0, 2] as integers over one denominator.

    For x in [0, 2]:

        weight_below(spec, x) = (base + sum of jumps[k] over breaks k below x) / den

    ``jumps[k]`` belongs to the k-th break in ascending order.  Every jump is
    positive, so the plateau values base, base + jumps[0], ... ascend.  A
    break is a prefix or constant tail value (a Fraction), or an affine tail
    index n (an int) that stands for its value (A*n + B) / D, where
    ``line`` = (A, B, D); ``at`` turns either into a Fraction.  ``den`` is
    2^top for the deepest index top, times 2^L - 1 for a cycle.
    """

    den: int
    base: int
    jumps: list[int]
    breaks: list[Union[Fraction, int]]
    line: tuple[int, int, int]

    def at(self, k: int) -> Fraction:
        """The enumerated value at the k-th break."""
        point = self.breaks[k]
        if isinstance(point, int):
            slope, intercept, scale = self.line
            return Fraction(slope * point + intercept, scale)
        return point

    def plateaus(self) -> Iterator[tuple[int, int]]:
        """Each plateau on [0, 2] from the top down, as (value numerator over den, k).

        Plateau k is the piece (break k-1, break k] on which the map is
        (base + jumps[0] + ... + jumps[k-1]) / den: plateau 0 starts at 0 and
        is closed there, and the top plateau ends at 2.  The values descend,
        since every jump is positive.
        """
        jumps = self.jumps
        count = len(jumps)
        if count and self.at(count - 1) == _TWO:
            count -= 1  # a break at 2 opens no plateau inside [0, 2]
        total = self.base + sum(jumps[:count])
        yield total, count
        for k in range(count - 1, -1, -1):
            total -= jumps[k]
            yield total, k

    def pair(self, num: int) -> tuple[int, int]:
        """num / den as a pair with the twos they share stripped by a shift, with no gcd."""
        both = num | self.den
        twos = (both & -both).bit_length() - 1
        return num >> twos, self.den >> twos

    def fraction(self, num: int) -> Fraction:
        """num / den; stripping the shared twos first keeps Fraction's gcd cheap."""
        return Fraction(*self.pair(num))


def step_structure(spec: EnumerationSpec) -> StepStructure:
    """Build the step structure of the weight map on [0, 2].

    An affine tail past ``check_exponent_bound`` is refused before any step.
    A cycle tail repeats every prefix jump in each later lap, which scales
    it by 2^L / (2^L - 1).  An affine tail contributes one break per index
    whose value lands in [0, 2], found between the cuts at 0 and 2: at most
    2/|a| + 1 indices.  Their values (A*n + B) / D, from the tail's
    ``Affine.line``, are distinct and monotone in n, so the run is
    walked as an integer progression, with no Fraction, hash or sort per
    index.  The at most L prefix values (and a constant tail value) in
    [0, 2] are keyed by their (numerator, denominator) pairs, ordered by one
    integer key each, and merged in by position; one that lands on the line
    adds its jump to that index's jump.
    """
    check_exponent_bound(spec)
    start = len(spec.prefix)
    tail = spec.tail
    line = (0, 0, 1)
    run = range(0)  # the affine tail indices with values in [0, 2], by ascending value
    top = start
    if isinstance(tail, Affine):
        line = slope, intercept, scale = tail.line
        lo, hi = _affine_window(spec)
        top = max(start, hi + 1)
        # the cuts are strict, so each end may hold one index just outside [0, 2]
        first, last = max(start, lo - 1), hi
        if not 0 <= slope * first + intercept <= 2 * scale:
            first += 1
        if not 0 <= slope * last + intercept <= 2 * scale:
            last -= 1
        run = range(first, last + 1) if slope > 0 else range(last, first - 1, -1)
    lap = start if isinstance(tail, Cycle) else 0
    den = max(1, (1 << lap) - 1) << top
    # (value, pair, shift): each prefix value and a constant tail value weighs 2^shift / den
    entries = zip(spec.prefix, spec.prefix_pairs, range(top + lap, top + lap - start, -1))
    if isinstance(tail, Constant):
        c = tail.value
        entries = chain(entries, [(c, (c.numerator, c.denominator), top - start + 1)])
    points: dict[tuple[int, int], list] = {}  # pair in [0, 2] -> [value, jump]
    for v, (p, q), shift in entries:
        if 0 <= p <= 2 * q:
            points.setdefault((p, q), [v, 0])[1] += 1 << shift
    jumps = [1 << (top - n) for n in run]
    breaks: list[Union[Fraction, int]] = list(run)
    # from the top value down, so that each insertion leaves lower slots in place
    for pair in reversed(_ascending(points)):
        v, jump = points[pair]
        pos = 0  # where v sits among the line's values, counted from the lowest
        if run:
            n, on_line = _line_index(spec, v)
            pos = (n - run.start) * run.step
            if 0 <= pos < len(run) and on_line:
                jumps[pos] += jump
                continue
            pos = min(max(pos, 0), len(run))
        jumps.insert(pos, jump)
        breaks.insert(pos, v)
    # g(0) is a sum of weights over 2^L - 1, 2^L or 2^cut(0), each of which divides den
    g0, d0 = _weight_pair(spec, 0, 1)
    return StepStructure(den, g0 * (den // d0), jumps, breaks, line)
