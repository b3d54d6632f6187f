"""Greatest-fixpoint machinery for the weight map, three independent ways.

``gfp_descend`` iterates the map downward from the top element 2; because the
map restricted to [0, 2] takes only finitely many values, the descent settles
exactly, and the settled value is the greatest postfixpoint (any x <= map(x)
stays below every iterate by induction).  The application that settles it
returns it unchanged, so the trace is its own fixpoint witness.

Two oracles recompute the same value through different routes and exist only
to cross-check the descent.  Both walk ``StepStructure.plateaus``, which the
descent never reads; of the closed-form map it takes only the value at 2,
the descent's first step, so a fault in the walk shows as a disagreement.
The walk merges the affine run and the prefix and block points from the
top down as it is iterated, so neither oracle holds a list of breaks:

* ``sup_postfix_oracle`` sweeps the map's plateau values on [0, 2] from the
  top down, by one comparison with a break each, and stops at the first
  postfixpoint, the largest (the supremum construction);
* ``subset_fixpoint_oracle`` walks the same plateaus for the first one
  holding its own value, the greatest fixpoint (Tarski: the supremum of the
  postfixpoints is the greatest fixpoint), and checks that value exactly
  as the map's literal reading: the weight of the finite prefix subset
  below it plus the tail's weight below it.

``escapepoint.selftest`` runs the descent's settle loop (``_settle``) on
random finite lattices, so the engine itself is fuzzed against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .enumeration import EnumerationSpec, eligible_prefix_indices, tail_weight_sum
from .numerics import dyadic_weight, format_rational
from .weight_map import step_structure, weight_below

__all__ = [
    "BudgetExceededError",
    "OracleScopeError",
    "FixpointTrace",
    "descend_from_top",
    "gfp_descend",
    "sup_postfix_oracle",
    "subset_fixpoint_oracle",
]

_TWO = Fraction(2)


class BudgetExceededError(RuntimeError):
    """A descent did not settle within its step bound: the map took more values than its caller counted."""

    def __init__(self, message: str, trace: "FixpointTrace"):
        super().__init__(message)
        self.trace = trace


class OracleScopeError(ValueError):
    """Input is outside the deliberately bounded scope of a checking oracle."""


@dataclass(frozen=True)
class FixpointTrace:
    """Record of one descent: its iterates, from which the rest follows.

    Iterates start at 2 and decrease strictly, compared as integer pairs; a terminated
    trace ends with the settled value repeated once (the confirming application).
    """

    iterates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        its = tuple(self.iterates)
        object.__setattr__(self, "iterates", its)
        pairs = [(v.numerator, v.denominator) for v in its]
        if not pairs or pairs[0] != (2, 1):
            raise ValueError("a descent trace must start at the top element 2")
        if len(pairs) >= 2 and pairs[-1] == pairs[-2]:  # terminated: the repeat is no step down
            pairs.pop()
        for (a, b), (c, d), x, y in zip(pairs, pairs[1:], its, its[1:]):
            if a * d <= c * b:
                raise ValueError("iterates must decrease strictly before settling: "
                                 f"{format_rational(x)} -> {format_rational(y)}")

    @property
    def terminated(self) -> bool:
        """Whether the descent settled: its last two iterates are equal."""
        its = self.iterates
        return len(its) >= 2 and its[-1] == its[-2]

    @property
    def steps(self) -> int:
        """The number of map applications recorded."""
        return len(self.iterates) - 1


def _settle(start, step: Callable, bound: int) -> list:
    """Apply ``step`` from ``start`` until an iterate repeats, or ``bound`` applications run out.

    Returns every iterate, start included; the walk settled exactly when the
    last two are equal.  Their order is the caller's to check.
    """
    z = start
    iterates = [z]
    for _ in range(bound):
        nz = step(z)
        iterates.append(nz)
        if nz == z:
            break
        z = nz
    return iterates


def descend_from_top(
    step: Callable[[Fraction], Fraction],
    bound: int,
) -> tuple[Fraction, FixpointTrace]:
    """Iterate a monotone step map downward from 2 until it settles.

    Sound for any monotone map bounded by [0, 2] that takes finitely many
    values there; the result is its greatest postfixpoint, and the last
    application, which returns it unchanged, shows it is a fixpoint.
    ``bound`` is the most map applications the caller allows: one more than
    the number of values the map takes on [0, 2] always suffices.  Running
    out of it raises ``BudgetExceededError`` carrying the partial trace; a
    move up, which ``FixpointTrace`` refuses, raises ``RuntimeError``.
    """
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError(f"step bound must be a positive integer, got {bound!r}")
    its = _settle(_TWO, step, bound)
    try:
        trace = FixpointTrace(tuple(its))
    except ValueError as exc:
        raise RuntimeError(f"step map is not monotone: {exc}") from None
    if not trace.terminated:
        raise BudgetExceededError(f"descent did not settle within {bound} steps", trace)
    return its[-1], trace


def _step_bound(spec: EnumerationSpec) -> int:
    """Most applications of the weight map a descent from 2 can take.

    On [0, 2] the map moves only past the enumerated values in [0, 2): at
    most L prefix values, the block values there, and the affine tail's
    values at indices lo, ..., hi - 1 between the cuts at 0 and 2,
    ``spec.window`` = (lo, hi).  With B such breaks the map takes at most
    B + 1 values there, so the descent settles within B + 2 applications.
    """
    breaks = len(spec.prefix_pairs) + sum(0 <= p < 2 * q for p, q in spec.block_pairs)
    if spec.window:
        breaks += spec.window[1] - spec.window[0]
    return breaks + 2


def gfp_descend(spec: EnumerationSpec) -> tuple[Fraction, FixpointTrace]:
    """Greatest postfixpoint of the weight map, by descent from 2 within ``_step_bound(spec)`` steps."""
    return descend_from_top(lambda z: weight_below(spec, z), _step_bound(spec))


def sup_postfix_oracle(spec: EnumerationSpec) -> Fraction:
    """The escape value as a supremum: largest plateau value v with v <= map(v).

    The plateau values on [0, 2] descend from the top, so the first
    postfixpoint met is the largest; the greatest postfixpoint is a
    fixpoint, hence a plateau value, so the sweep is exact.  Plateau k has
    value v = T_k / den and map(v) = T_j / den, where j counts the breaks
    below v; the T ascend strictly, so v <= map(v) exactly when k = 0, the
    bottom plateau, or the break below the plateau lies below v: one integer
    cross-multiplication per plateau, with no evaluation of the map.  The
    walk builds each plateau as it is reached, so the sweep pays only for
    the plateaus it decides.  Independent of the descent.
    """
    steps = step_structure(spec)
    den = steps.den
    for t, below in steps.plateaus():
        if below is None or below[0] * den < t * below[1]:
            break
    return steps.fraction(t)


def subset_fixpoint_oracle(spec: EnumerationSpec) -> Fraction:
    """The escape value as the greatest fixpoint, checked as a finite-subset weight.

    Walks the plateaus from the top down, keeping the break above each (2
    for the top one).  A plateau (break below, break above] holds its own
    value v = t / den when one integer cross-multiplication per side says
    so; the bottom plateau is closed at 0.  The first such v is the greatest
    fixpoint, so it must equal the sum of 2^-n over the prefix indices n
    with f(n) < v plus ``tail_weight_sum(spec, v)``.  That is checked once,
    exactly; a v that fails it, or a walk that finds none, raises
    ``RuntimeError``.  ``step_structure`` refuses an affine tail past
    ``check_exponent_bound`` before any plateau.
    """
    steps = step_structure(spec)
    den = steps.den
    above = (2, 1)
    for t, below in steps.plateaus():
        if (below is None or below[0] * den < t * below[1]) and t * above[1] <= above[0] * den:
            value = steps.fraction(t)
            subset = sum(map(dyadic_weight, eligible_prefix_indices(spec, value)))
            if subset + tail_weight_sum(spec, value) != value:
                raise RuntimeError(f"fixpoint {format_rational(value)} is not the weight of its "
                                   "prefix subset plus its tail weight")
            return value
        above = below
    raise RuntimeError("the plateau walk found no fixpoint; the step structure is inconsistent")
