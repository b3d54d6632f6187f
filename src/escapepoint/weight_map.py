"""The dyadic weight map carrying both exact and interval modes.

For an enumeration f the map sends x to the total weight of indices whose
value lies strictly below x:

    weight_below(spec, x)  =  sum of 2^-n over { n : f(n) < x }.

It is monotone, bounded by [0, 2], and (restricted to [0, 2]) a finite step
function: ``step_structure`` describes it once, as integers over one
denominator: an affine tail's breaks as one ``range`` of indices between
the cuts in ``EnumerationSpec.window``, and the few prefix and block values
as points placed on it.  ``StepStructure.plateaus`` merges the two lazily,
from the top down, for both fixpoint oracles, so a plateau is built only
when the walk reaches it.  The semi-decidable variant is
``query_boxes`` followed by ``box_classifier``: with only n_known interval
queries at precision eps it brackets the true value by two maps, a lower
and an upper bound, charging every unseen index to the upper one's tail
allowance.  Each map tests each distinct box once per x, on the one end
its side reads, and its time and memory are linear in n_known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .enumeration import (
    EnumerationSpec,
    _ascending,
    _below,
    _line_index,
    _plus_tail,
    check_exponent_bound,
)
from .numerics import RatInterval, RationalLike, as_fraction, format_pair, format_rational

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
# 2 MB traced at this bound for a cycle tail, 24 MB for an affine tail, whose boxes all differ.
# More is refused.
MAX_N_KNOWN = 1 << 16


def weight_below(spec: EnumerationSpec, x: RationalLike) -> Fraction:
    """Exact value of the weight map at x, as one Fraction.

    The eligible prefix weight num / 2^L is summed by cross-multiplication,
    and ``_plus_tail`` adds the tail's, refusing an affine cut past
    ``MAX_EXACT_EXPONENT`` with ``ExponentBoundError``.  A cycle's block is
    its prefix, so its block sum is num again, and the map is
    (num * (2^L - 1) + num) / ((2^L - 1) * 2^L) = num / (2^L - 1).
    """
    x = as_fraction(x, "x")
    p, q = x.numerator, x.denominator
    num = _below(spec.prefix_pairs, p, q)
    if spec.prefix and spec.block_pairs is spec.prefix_pairs:  # a cycle; with no prefix, () is () too
        return Fraction(num, (1 << len(spec.prefix)) - 1)
    return Fraction(*_plus_tail(spec, p, q, num))


def query_boxes(
    oracle: Callable[[int, Fraction], RatInterval],
    n_known: int,
    eps: RationalLike,
) -> Iterator[RatInterval]:
    """The boxes of indices 0, ..., n_known-1 at width eps, in index order.

    ``oracle(n, eps)`` must return a RatInterval of width <= eps containing
    the true value f(n), nested as eps shrinks, deterministic per (n, eps).
    n_known (at most ``MAX_N_KNOWN``) and eps are checked once, at the call.
    Each index is asked of the oracle once, as the returned iterator
    reaches it, and its box is refused if hi - lo > eps, cross-multiplied.
    """
    if isinstance(n_known, bool) or not isinstance(n_known, int) or n_known < 1:
        raise ValueError(f"n_known must be a positive integer, got {n_known!r}")
    if n_known > MAX_N_KNOWN:
        raise ValueError(f"n_known {n_known} exceeds the bound {MAX_N_KNOWN} on interval queries")
    eps = as_fraction(eps, "eps")
    e, d = eps.numerator, eps.denominator
    if e <= 0:
        raise ValueError(f"eps must be positive, got {format_rational(eps)}")

    def boxes() -> Iterator[RatInterval]:
        for n in range(n_known):
            box = oracle(n, eps)
            lo_p, lo_q, hi_p, hi_q = box.pairs
            if (hi_p * lo_q - lo_p * hi_q) * d > e * hi_q * lo_q:
                ends = f"[{format_pair(lo_p, lo_q)}, {format_pair(hi_p, hi_q)}]"
                raise ValueError(f"interval oracle broke its width contract at n={n}: {ends}")
            yield box

    return boxes()


def box_classifier(
    boxes: Sequence[RatInterval],
) -> tuple[Callable[[RationalLike], Fraction], Callable[[RationalLike], Fraction]]:
    """The bound maps (lower, upper), x -> Fraction, of the boxes of indices 0, ..., len(boxes)-1.

    Equal boxes share one row, numbered in order of first index.  At each x
    a map places every row against x once, by one cross-multiplication of
    its own end from the row's ``pairs``, as one ASCII digit: 1 where the
    lower map's hi < x or the upper map's lo < x, else 0.  Picking each
    index's row digit, then a closing 0, spells a string whose base-2 value
    sums 2^(top - n), top = len(boxes), over the indices n marked; the upper
    map adds 2^(1 - top) for every index not queried.  Time and memory are
    linear in top, and no weight is kept per row.  When every box holds its
    index's value, as ``query_boxes``'s oracle contract guarantees, the
    exact map value lies between the two.
    """
    top = len(boxes)
    rows: dict[tuple[int, int, int, int], int] = {}  # box.pairs -> its row
    owner = [rows.setdefault(box.pairs, len(rows)) for box in boxes]
    ends = list(rows)
    # each index's row, then one past the last row; with no index, the closing 0 alone,
    # since an itemgetter of one item returns it bare
    spell = itemgetter(*owner, len(ends)) if owner else list

    def weight(digits: list[int], allowance: int) -> Fraction:
        digits.append(48)  # the closing 0
        return Fraction(int(bytes(spell(digits)), 2) + allowance, 1 << top)

    def lower(x: RationalLike) -> Fraction:
        x = as_fraction(x, "x")
        p, q = x.numerator, x.denominator
        return weight([49 if hi_p * q < p * hi_q else 48 for _, _, hi_p, hi_q in ends], 0)

    def upper(x: RationalLike) -> Fraction:
        x = as_fraction(x, "x")
        p, q = x.numerator, x.denominator
        return weight([49 if lo_p * q < p * lo_q else 48 for lo_p, lo_q, _, _ in ends], 2)

    return lower, upper


@dataclass(frozen=True)
class StepStructure:
    """The weight map on [0, 2] as integers over one denominator.

    For x in [0, 2]:

        weight_below(spec, x) = (peak - sum of the jumps of the breaks at or above x) / den

    The breaks are the enumerated values in [0, 2), the only ones the map
    moves past on [0, 2], and every jump is positive.  ``run`` holds the
    affine tail's indices whose values (A*n + B) / D, with ``line`` =
    (A, B, D), lie in [0, 2), by ascending value; index n jumps by
    den >> n.  ``points`` holds the at most L + P prefix and block values
    in [0, 2) by ascending value, each as (pos, on_line, pair, jump): pos
    run values lie below it, or, when on_line, it equals run value pos and
    adds its jump to that index's.  ``den`` is (2^P - 1) * 2^top for a
    periodic tail's block of P values, with top = L, and 2^top for an
    affine tail, with top the deepest index in [0, 2].
    """

    den: int
    peak: int
    line: tuple[int, int, int]
    run: range
    points: tuple[tuple[int, bool, tuple[int, int], int], ...]

    def plateaus(self) -> Iterator[tuple[int, Optional[tuple[int, int]]]]:
        """Each plateau on [0, 2] from the top down, as (value numerator over den, break below it).

        The break below is an integer pair (p, q), q > 0, unreduced on the
        line, or None for the bottom plateau, which starts at 0 and is closed
        there; the top plateau ends at 2.  The run and the points are merged
        as the walk goes, so a plateau costs nothing until it is reached.
        The values descend, since every jump is positive.
        """
        slope, intercept, scale = self.line
        run, den = self.run, self.den
        total = self.peak
        i = len(run)  # the run values from position i up are walked
        # a last point at the bottom, with no pair, walks the rest of the run
        for pos, on_line, pair, jump in chain(reversed(self.points), [(0, False, None, 0)]):
            for n in reversed(run[pos + on_line:i]):
                yield total, (slope * n + intercept, scale)
                total -= den >> n
            i = pos
            if on_line:
                jump += den >> run[pos]
            yield total, pair
            total -= jump

    def fraction(self, num: int) -> Fraction:
        """num / den; stripping the twos they share by a shift first keeps Fraction's gcd cheap."""
        both = num | self.den
        twos = (both & -both).bit_length() - 1
        return Fraction(num >> twos, self.den >> twos)


def step_structure(spec: EnumerationSpec) -> StepStructure:
    """Build the step structure of the weight map on [0, 2], leaving its plateaus to the walk.

    An affine tail past ``check_exponent_bound`` is refused before any step.
    Over den = (2^P - 1) * 2^top, prefix index n weighs (2^P - 1) * 2^(top-n)
    and a periodic tail's block position j, summed over its laps, weighs
    2^(P-j+top-L); an affine tail has P = 0 and den = 2^top.  ``peak`` is
    den times the map's value at 2, from ``weight_below``.  An affine tail
    contributes one break per index whose value lands in [0, 2): exactly
    the indices lo, ..., hi - 1 between the cuts at 0 and 2, ``spec.window``
    = (lo, hi), since both cuts are strict.  They are at most 2/|a| + 1,
    kept as one ``range``, with no jump built.  Their values are distinct
    and monotone in n.  The at most L + P prefix and block values
    in [0, 2) are keyed by their (numerator, denominator) pairs, ordered by
    one integer key each, and placed on the run by their cut.
    """
    check_exponent_bound(spec)
    start = len(spec.prefix)
    block = spec.block_pairs
    line, run, top = (0, 0, 1), range(0), start  # a periodic tail has no run
    if not block:
        line = spec.tail.line
        lo, hi = spec.window
        top = max(start, hi + 1)
        run = range(lo, hi) if line[0] > 0 else range(lo, hi)[::-1]
    period = len(block)
    lap = max(1, (1 << period) - 1)
    den = lap << top
    # (pair, shift, unit): each weighs unit << shift over den
    entries = chain(
        zip(spec.prefix_pairs, range(top, top - start, -1), repeat(lap)),
        zip(block, range(period + top - start, top - start, -1), repeat(1)),
    )
    jumps: dict[tuple[int, int], int] = {}  # pair in [0, 2) -> its jump
    for (p, q), shift, unit in entries:
        if 0 <= p < 2 * q:
            jumps[p, q] = jumps.get((p, q), 0) + (unit << shift)
    points = []
    for pair in _ascending(jumps):
        pos, on_line = 0, False  # where the value sits among the run's, counted from the lowest
        if run:
            n, on_line = _line_index(spec, *pair)
            pos = (n - run.start) * run.step
            on_line = on_line and 0 <= pos < len(run)
            pos = min(max(pos, 0), len(run))
        points.append((pos, on_line, pair, jumps[pair]))
    # g(2) is a sum of weights over (2^P - 1) * 2^L or 2^cut(2), each of which divides den
    g2 = weight_below(spec, 2)
    return StepStructure(den, g2.numerator * (den // g2.denominator), line, run, tuple(points))
