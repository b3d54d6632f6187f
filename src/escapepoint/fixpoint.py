"""Greatest-fixpoint machinery for the weight map, three independent ways.

``gfp_descend`` iterates the map downward from the top element 2; because the
map restricted to [0, 2] takes only finitely many values, the descent settles
exactly, and the settled value is the greatest postfixpoint (any x <= map(x)
stays below every iterate by induction).

Two oracles recompute the same value through different routes and exist only
to cross-check the descent.  Both walk ``StepStructure.plateaus``, which the
descent and the closed-form map never read, so a fault in the walk shows as
a disagreement:

* ``sup_postfix_oracle`` sweeps the map's plateau values on [0, 2] from the
  top down, as integer pairs, and stops at the first postfixpoint, the
  largest (the supremum construction);
* ``subset_fixpoint_oracle`` reads the map literally as a supremum over
  finite index sets: every candidate is weight_sum(S) + tail-state for a
  prefix subset S, and the largest candidate fixed by the map wins.  The map
  is constant on each plateau, so its tail part is too, and one tail state
  per plateau covers them all.

``escapepoint.selftest`` runs the descent's settle loop (``_settle``) on
random finite lattices, so the engine itself is fuzzed against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable

from .enumeration import Affine, Constant, EnumerationSpec, _affine_window, tail_weight_sum
from .numerics import dyadic_weight
from .weight_map import _weight_pair, step_structure, weight_below

__all__ = [
    "SUBSET_MAX_PREFIX",
    "BudgetExceededError",
    "OracleScopeError",
    "FixpointTrace",
    "descend_from_top",
    "gfp_descend",
    "sup_postfix_oracle",
    "subset_fixpoint_oracle",
]

# Longest prefix the subset oracle accepts; its candidates are the 2^L subset sums.
SUBSET_MAX_PREFIX = 12

_ZERO = Fraction(0)
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

    Iterates start at 2 and decrease strictly; a terminated trace ends with
    the settled value repeated once (the confirming application).
    """

    iterates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        its = tuple(self.iterates)
        object.__setattr__(self, "iterates", its)
        if not its or its[0] != _TWO:
            raise ValueError("a descent trace must start at the top element 2")
        strict_part = its[:-1] if self.terminated else its
        for a, b in zip(strict_part, strict_part[1:]):
            if not a > b:
                raise ValueError(f"iterates must decrease strictly before settling: {a} -> {b}")

    @property
    def terminated(self) -> bool:
        """Whether the descent settled: its last two iterates are equal."""
        its = self.iterates
        return len(its) >= 2 and its[-1] == its[-2]

    @property
    def steps(self) -> int:
        """The number of map applications recorded."""
        return len(self.iterates) - 1


def _settle(start, step: Callable, below: Callable[[object, object], bool], bound: int) -> list:
    """Apply ``step`` from ``start`` until an iterate repeats, or ``bound`` applications run out.

    Returns every iterate, start included; the walk settled exactly when the
    last two are equal.  Each move must go down in the order ``below``
    (a <= b); a move that does not proves the step map is not monotone.
    """
    z = start
    iterates = [z]
    for _ in range(bound):
        nz = step(z)
        iterates.append(nz)
        if nz == z:
            break
        if not below(nz, z):
            raise RuntimeError(
                f"iteration moved from {z} to {nz} against the order; step map is not monotone"
            )
        z = nz
    return iterates


def descend_from_top(
    step: Callable[[Fraction], Fraction],
    bound: int,
) -> tuple[Fraction, FixpointTrace]:
    """Iterate a monotone step map downward from 2 until it settles.

    Sound for any monotone map bounded by [0, 2] that takes finitely many
    values there; the result is its greatest postfixpoint.  ``bound`` is the
    most map applications the caller allows: one more than the number of
    values the map takes on [0, 2] always suffices.  Running out of it
    raises ``BudgetExceededError`` carrying the partial trace.
    """
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError(f"step bound must be a positive integer, got {bound!r}")
    iterates = _settle(_TWO, step, lambda a, b: a <= b, bound)
    trace = FixpointTrace(tuple(iterates))
    if not trace.terminated:
        raise BudgetExceededError(f"descent did not settle within {bound} steps", trace)
    return iterates[-1], trace


def _step_bound(spec: EnumerationSpec) -> int:
    """Most applications of the weight map a descent from 2 can take.

    On [0, 2] the map moves only past the enumerated values in [0, 2): at
    most L prefix values, a constant tail's value if it lies there, and the
    affine tail values, which lie at indices between the cuts at 0 and 2
    (at most hi - lo + 2 of them).  With B such breaks the map takes at most
    B + 1 values there, so the descent settles within B + 2 applications.
    """
    tail = spec.tail
    breaks = len(spec.prefix)
    if isinstance(tail, Constant):
        breaks += 0 <= tail.value < _TWO
    elif isinstance(tail, Affine):
        lo, hi = _affine_window(spec)
        breaks += hi - lo + 2
    return breaks + 2


def gfp_descend(spec: EnumerationSpec) -> tuple[Fraction, FixpointTrace]:
    """Greatest postfixpoint of the weight map, by descent from 2 within ``_step_bound(spec)`` steps."""
    return descend_from_top(lambda z: weight_below(spec, z), _step_bound(spec))


def sup_postfix_oracle(spec: EnumerationSpec) -> Fraction:
    """The escape value as a supremum: largest plateau value v with v <= map(v).

    Candidates are the map's value at 2, then its plateau values on [0, 2]
    from the top down; every jump is positive, so they descend and the first
    postfixpoint met is the largest.  The true greatest postfixpoint is a
    fixpoint, hence a candidate, so the sweep is exact and stops after one
    test per distinct value above it (a repeat is not tested twice).  Each
    candidate is an integer pair, tested against the map's unreduced pair
    by one cross-multiplication, with no Fraction or gcd per test; only the
    returned one becomes a Fraction.  Independent of the descent.
    """
    steps = step_structure(spec)
    # each candidate lies in [0, 2], so an affine tail's cut there is at most the
    # top index steps already built 2^top for: the map's value is a pair, never a DyadicTail
    candidates = chain((_weight_pair(spec, 2, 1),), (steps.pair(t) for t, _ in steps.plateaus()))
    failed_p, failed_q = -1, 1  # below every candidate
    for p, q in candidates:
        if p * failed_q != failed_p * q:
            g_p, g_q = _weight_pair(spec, p, q)
            if p * g_q <= g_p * q:
                return Fraction(p, q)
        failed_p, failed_q = p, q
    raise RuntimeError("no candidate is a postfixpoint; map evaluation is inconsistent")


def subset_fixpoint_oracle(spec: EnumerationSpec) -> Fraction:
    """The escape value by literal enumeration of finite-subset candidates.

    Every candidate has the form weight_sum(S) + t for a prefix subset S and
    a realizable tail state t.  Since prefix weights are the full dyadic
    ladder, subset sums are exactly {k * 2^-(L-1) : 0 <= k < 2^L}, so each
    (tail state, map plateau) pair admits a single divisibility test instead
    of a 2^L loop; the candidate set and the returned maximum fixpoint are
    identical to the naive enumeration.  The realizable tail states are the
    tail weights at the plateaus, one per plateau.  Only plateaus holding
    their own value are tried, from the top down, so the first hit is the
    largest.  Scope guard: prefix length <= ``SUBSET_MAX_PREFIX``, checked
    before any plateau is built; ``step_structure`` refuses an affine tail
    past ``check_exponent_bound``, which bounds its tail states too.
    """
    length = len(spec.prefix)
    if length > SUBSET_MAX_PREFIX:
        raise OracleScopeError(
            f"prefix length {length} exceeds the oracle bound SUBSET_MAX_PREFIX={SUBSET_MAX_PREFIX}"
        )
    steps = step_structure(spec)
    plateaus = list(steps.plateaus())
    # plateau k ends at break k, the top plateau at 2
    edges = [steps.at(k) for k in range(plateaus[0][1])] + [_TWO]
    states = {tail_weight_sum(spec, hi) for hi in edges}
    # with no prefix the only subset sum is 0, which any unit divides
    unit = dyadic_weight(length - 1) if length else Fraction(1)
    for t, k in plateaus:
        value = steps.fraction(t)
        lo = edges[k - 1] if k else _ZERO
        if lo < value <= edges[k] or (k == 0 and value == lo):
            for state in states:
                multiple = (value - state) / unit
                if multiple.denominator == 1 and 0 <= multiple < 1 << length:
                    return value
    raise RuntimeError("subset enumeration found no fixpoint; map evaluation is inconsistent")
