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
  top down and stops at the first postfixpoint, the largest (the supremum
  construction);
* ``subset_fixpoint_oracle`` reads the map literally as a supremum over
  finite index sets: every candidate is weight_sum(S) + tail-state for a
  prefix subset S, and the largest candidate fixed by the map wins.  The map
  is constant on each plateau, so its tail part is too, and one tail state
  per plateau covers them all.

``kt_finite`` plus ``FiniteLattice``/``MonotoneTable`` run the same settle
loop as the descent (``_settle``) on arbitrary exhaustively validated finite
lattices, so the engine itself can be fuzzed against brute force on
thousands of unrelated orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Hashable, Iterable, Mapping

from .enumeration import MAX_TAIL_CUT, Affine, EnumerationSpec, affine_cut, tail_weight_sum
from .numerics import dyadic_weight
from .weight_map import step_structure, weight_below

__all__ = [
    "DEFAULT_ITERATION_BUDGET",
    "BudgetExceededError",
    "OracleScopeError",
    "LatticeError",
    "FixpointTrace",
    "descend_from_top",
    "gfp_descend",
    "sup_postfix_oracle",
    "subset_fixpoint_oracle",
    "FiniteLattice",
    "MonotoneTable",
    "kt_finite",
    "brute_extreme_fixpoints",
    "random_lattice",
    "random_monotone_table",
    "run_kt_battery",
]

DEFAULT_ITERATION_BUDGET = 10**6

_ZERO = Fraction(0)
_TWO = Fraction(2)


class BudgetExceededError(RuntimeError):
    """Descent did not settle within the iteration budget."""

    def __init__(self, message: str, trace: "FixpointTrace"):
        super().__init__(message)
        self.trace = trace


class OracleScopeError(ValueError):
    """Input is outside the deliberately bounded scope of a checking oracle."""


class LatticeError(ValueError):
    """A claimed finite lattice or monotone table failed validation."""


@dataclass(frozen=True)
class FixpointTrace:
    """Record of one descent: iterates, termination flag, step count.

    Iterates start at 2 and decrease strictly; a terminated trace ends with
    the settled value repeated once (the confirming application).
    """

    iterates: tuple[Fraction, ...]
    terminated: bool
    steps: int

    def __post_init__(self) -> None:
        its = tuple(self.iterates)
        object.__setattr__(self, "iterates", its)
        if not its or its[0] != _TWO:
            raise ValueError("a descent trace must start at the top element 2")
        if self.steps != len(its) - 1:
            raise ValueError("steps must count the map applications recorded in the trace")
        strict_part = its[:-1] if self.terminated else its
        for a, b in zip(strict_part, strict_part[1:]):
            if not a > b:
                raise ValueError(f"iterates must decrease strictly before settling: {a} -> {b}")
        if self.terminated and (len(its) < 2 or its[-1] != its[-2]):
            raise ValueError("a terminated trace must end with the settled value repeated")


def _settle(start, step: Callable, below: Callable[[object, object], bool], budget: int) -> list:
    """Apply ``step`` from ``start`` until an iterate repeats, or ``budget`` runs out.

    Returns every iterate, start included; the walk settled exactly when the
    last two are equal.  Each move must go down in the order ``below``
    (a <= b); a move that does not proves the step map is not monotone.
    """
    z = start
    iterates = [z]
    for _ in range(budget):
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
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> tuple[Fraction, FixpointTrace]:
    """Iterate a monotone step map downward from 2 until it settles.

    Sound for any monotone map bounded by [0, 2] that takes finitely many
    values there; the result is its greatest postfixpoint.  ``budget`` caps
    the number of map applications.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"iteration budget must be a positive integer, got {budget!r}")
    iterates = _settle(_TWO, step, lambda a, b: a <= b, budget)
    settled = iterates[-1] == iterates[-2]
    trace = FixpointTrace(tuple(iterates), settled, len(iterates) - 1)
    if not settled:
        raise BudgetExceededError(f"descent did not settle within {budget} steps", trace)
    return iterates[-1], trace


def gfp_descend(
    spec: EnumerationSpec,
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> tuple[Fraction, FixpointTrace]:
    """Greatest postfixpoint of the weight map, by descent from 2."""
    return descend_from_top(lambda z: weight_below(spec, z), budget)


def sup_postfix_oracle(spec: EnumerationSpec) -> Fraction:
    """The escape value as a supremum: largest plateau value v with v <= map(v).

    Candidates are the map's value at 2, then its plateau values on [0, 2]
    from the top down; every jump is positive, so they descend and the first
    postfixpoint met is the largest.  The true greatest postfixpoint is a
    fixpoint, hence a candidate, so the sweep is exact and stops after one
    test per distinct value above it (a repeat is not tested twice).  The
    running plateau value is an integer over the step structure's
    denominator; only a candidate the sweep reaches becomes a Fraction.
    Independent of the descent.
    """
    steps = step_structure(spec)
    plateau_values = (steps.fraction(t) for t, _ in steps.plateaus())
    candidates = chain((weight_below(spec, _TWO),), plateau_values)
    failed = None
    for v in candidates:
        if v != failed and v <= weight_below(spec, v):
            return v
        failed = v
    raise RuntimeError("no candidate is a postfixpoint; map evaluation is inconsistent")


def subset_fixpoint_oracle(spec: EnumerationSpec, k_max: int = 12) -> Fraction:
    """The escape value by literal enumeration of finite-subset candidates.

    Every candidate has the form weight_sum(S) + t for a prefix subset S and
    a realizable tail state t.  Since prefix weights are the full dyadic
    ladder, subset sums are exactly {k * 2^-(L-1) : 0 <= k < 2^L}, so each
    (tail state, map plateau) pair admits a single divisibility test instead
    of a 2^L loop; the candidate set and the returned maximum fixpoint are
    identical to the naive enumeration.  The realizable tail states are the
    tail weights at the plateaus, one per plateau.  Only plateaus holding
    their own value are tried, from the top down, so the first hit is the
    largest.  Scope guards: prefix length <= k_max (<= 16) and at most
    ``MAX_TAIL_CUT`` affine tail states, checked before any plateau is built.
    """
    length = len(spec.prefix)
    if isinstance(k_max, bool) or not isinstance(k_max, int) or not 0 <= k_max <= 16:
        raise OracleScopeError(f"k_max must be between 0 and 16, got {k_max!r}")
    if length > k_max:
        raise OracleScopeError(f"prefix length {length} exceeds the oracle bound k_max={k_max}")
    if isinstance(spec.tail, Affine):
        # the tail's cut moves through every index between its cuts at 0 and 2
        lo, hi = sorted((affine_cut(spec, _ZERO), affine_cut(spec, _TWO)))
        if hi - lo > MAX_TAIL_CUT:
            raise OracleScopeError(f"{hi - lo + 1} affine tail states exceed the oracle bound {MAX_TAIL_CUT}")
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


# -- generic finite-lattice engine -------------------------------------------


class FiniteLattice:
    """A finite lattice built from elements and an order predicate.

    Construction is exhaustive validation: reflexivity, antisymmetry,
    transitivity, a global top and bottom, and existence of every pairwise
    meet and join.  Elements are re-indexed topologically (by down-set size),
    which makes least upper bounds findable as the lowest set bit of an
    upper-set intersection.
    """

    def __init__(self, elements: Iterable[Hashable], leq: Callable[[object, object], bool]):
        elems = list(elements)
        n = len(elems)
        if n == 0:
            raise LatticeError("a lattice needs at least one element")
        try:
            distinct = len(set(elems)) == n
        except TypeError as exc:
            raise LatticeError(f"elements must be hashable: {exc}") from None
        if not distinct:
            raise LatticeError("duplicate elements")

        raw_up = []
        for a in elems:
            mask = 0
            for j, b in enumerate(elems):
                if leq(a, b):
                    mask |= 1 << j
            raw_up.append(mask)
        for i in range(n):
            if not raw_up[i] >> i & 1:
                raise LatticeError(f"order is not reflexive at {elems[i]!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if raw_up[i] >> j & 1 and raw_up[j] >> i & 1:
                    raise LatticeError(
                        f"order is not antisymmetric on {elems[i]!r} and {elems[j]!r}"
                    )

        downsize = [sum(raw_up[j] >> i & 1 for j in range(n)) for i in range(n)]
        order = sorted(range(n), key=downsize.__getitem__)
        self._elements: tuple = tuple(elems[o] for o in order)
        self._index = {e: p for p, e in enumerate(self._elements)}
        up = []
        for p in range(n):
            src = raw_up[order[p]]
            mask = 0
            for q in range(n):
                if src >> order[q] & 1:
                    mask |= 1 << q
            up.append(mask)
        down = [0] * n
        for p in range(n):
            m = up[p]
            while m:
                low = m & -m
                down[low.bit_length() - 1] |= 1 << p
                m ^= low
        self._up = up
        self._down = down
        self._n = n

        for i in range(n):
            m = up[i] & ~(1 << i)
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if up[j] & ~up[i]:
                    raise LatticeError(
                        f"order is not transitive through {self._elements[i]!r} <= {self._elements[j]!r}"
                    )
                m ^= low

        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if not bottoms:
            raise LatticeError("no least element")
        if not tops:
            raise LatticeError("no greatest element")
        self._bottom_idx = bottoms[0]
        self._top_idx = tops[0]

        for i in range(n):
            for j in range(i + 1, n):
                self._join_idx(i, j)
                self._meet_idx(i, j)

    def _join_idx(self, i: int, j: int) -> int:
        uppers = self._up[i] & self._up[j]
        if not uppers:
            raise LatticeError(
                f"{self._elements[i]!r} and {self._elements[j]!r} have no upper bound"
            )
        k = (uppers & -uppers).bit_length() - 1
        if uppers & ~self._up[k]:
            raise LatticeError(
                f"{self._elements[i]!r} and {self._elements[j]!r} have no least upper bound"
            )
        return k

    def _meet_idx(self, i: int, j: int) -> int:
        lowers = self._down[i] & self._down[j]
        if not lowers:
            raise LatticeError(
                f"{self._elements[i]!r} and {self._elements[j]!r} have no lower bound"
            )
        k = lowers.bit_length() - 1
        if lowers & ~self._down[k]:
            raise LatticeError(
                f"{self._elements[i]!r} and {self._elements[j]!r} have no greatest lower bound"
            )
        return k

    def _idx(self, e: object) -> int:
        try:
            return self._index[e]
        except (KeyError, TypeError):
            raise LatticeError(f"{e!r} is not an element of this lattice") from None

    @property
    def elements(self) -> tuple:
        """All elements, in a topological (order-respecting) listing."""
        return self._elements

    @property
    def top(self):
        return self._elements[self._top_idx]

    @property
    def bottom(self):
        return self._elements[self._bottom_idx]

    def __len__(self) -> int:
        return self._n

    def __contains__(self, e: object) -> bool:
        return e in self._index

    def leq(self, a: object, b: object) -> bool:
        return bool(self._up[self._idx(a)] >> self._idx(b) & 1)

    def join(self, a: object, b: object):
        return self._elements[self._join_idx(self._idx(a), self._idx(b))]

    def meet(self, a: object, b: object):
        return self._elements[self._meet_idx(self._idx(a), self._idx(b))]


class MonotoneTable:
    """A monotone self-map of a finite lattice, validated exhaustively."""

    def __init__(self, lattice: FiniteLattice, mapping: Mapping):
        self._lattice = lattice
        table = dict(mapping)
        if set(table) != set(lattice.elements):
            raise LatticeError("mapping domain must be exactly the lattice elements")
        for value in table.values():
            if value not in lattice:
                raise LatticeError(f"mapping image {value!r} is outside the lattice")
        for a in lattice.elements:
            fa = table[a]
            for b in lattice.elements:
                if lattice.leq(a, b) and not lattice.leq(fa, table[b]):
                    raise LatticeError(
                        f"not monotone: {a!r} <= {b!r} but {fa!r} is not below {table[b]!r}"
                    )
        self._table = table

    @property
    def lattice(self) -> FiniteLattice:
        return self._lattice

    def __call__(self, e: object):
        return self._table[e]


def kt_finite(lattice: FiniteLattice, table: MonotoneTable) -> tuple:
    """(least, greatest) fixpoint of a monotone table by chain iteration.

    Ascends from bottom (a descent in the dual order) and descends from top,
    with the escape value's settle loop; on a finite lattice both chains
    settle within len(lattice) applications.
    """
    budget = len(lattice) + 1
    ascent = _settle(lattice.bottom, table, lambda a, b: lattice.leq(b, a), budget)
    descent = _settle(lattice.top, table, lattice.leq, budget)
    for chain in (ascent, descent):
        if chain[-1] != chain[-2]:
            raise RuntimeError("iteration failed to settle on a finite lattice")
    return ascent[-1], descent[-1]


def brute_extreme_fixpoints(lattice: FiniteLattice, table: MonotoneTable) -> tuple:
    """(least, greatest) fixpoint by scanning every element.  Oracle route."""
    fixed = [e for e in lattice.elements if table(e) == e]
    if not fixed:
        raise LatticeError("monotone table with no fixpoint; lattice validation is broken")
    least = [f for f in fixed if all(lattice.leq(f, g) for g in fixed)]
    greatest = [f for f in fixed if all(lattice.leq(g, f) for g in fixed)]
    if not least or not greatest:
        raise LatticeError("fixpoint set has no extremum; lattice validation is broken")
    return least[0], greatest[0]


def _divisor_lattice(n: int) -> FiniteLattice:
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return FiniteLattice(divisors, lambda a, b: b % a == 0)


def _powerset_lattice(k: int) -> FiniteLattice:
    return FiniteLattice(range(1 << k), lambda a, b: a & ~b == 0)


def _chain_lattice(m: int) -> FiniteLattice:
    return FiniteLattice(range(m), lambda a, b: a <= b)


def _product_lattice(one: FiniteLattice, two: FiniteLattice) -> FiniteLattice:
    elements = [(a, b) for a in one.elements for b in two.elements]
    return FiniteLattice(
        elements,
        lambda p, q: one.leq(p[0], q[0]) and two.leq(p[1], q[1]),
    )


def random_lattice(rng: random.Random, max_size: int = 256) -> FiniteLattice:
    """A random finite lattice: chain, divisor lattice, powerset, or product."""
    kind = rng.choice(("chain", "divisor", "powerset", "product"))
    if kind == "chain":
        return _chain_lattice(rng.randint(2, 24))
    if kind == "divisor":
        return _divisor_lattice(rng.randint(2, 5040))
    if kind == "powerset":
        return _powerset_lattice(rng.randint(2, 6))
    while True:
        factors = []
        for _ in range(2):
            fk = rng.choice(("chain", "divisor", "powerset"))
            if fk == "chain":
                factors.append(_chain_lattice(rng.randint(2, 8)))
            elif fk == "divisor":
                factors.append(_divisor_lattice(rng.randint(2, 120)))
            else:
                factors.append(_powerset_lattice(rng.randint(1, 3)))
        if len(factors[0]) * len(factors[1]) <= max_size:
            return _product_lattice(factors[0], factors[1])


def random_monotone_table(lattice: FiniteLattice, rng: random.Random) -> MonotoneTable:
    """A random monotone self-map, built along a topological sweep.

    Each image is drawn uniformly from the elements above the join of the
    images of everything strictly below, so monotonicity holds by
    construction (and is still revalidated by MonotoneTable).
    """
    n = len(lattice)
    image_idx = [0] * n
    for p in range(n):
        floor_idx = lattice._bottom_idx
        m = lattice._down[p] & ~(1 << p)
        while m:
            low = m & -m
            floor_idx = lattice._join_idx(floor_idx, image_idx[low.bit_length() - 1])
            m ^= low
        choices = []
        ups = lattice._up[floor_idx]
        while ups:
            low = ups & -ups
            choices.append(low.bit_length() - 1)
            ups ^= low
        image_idx[p] = rng.choice(choices)
    elements = lattice.elements
    return MonotoneTable(lattice, {elements[p]: elements[image_idx[p]] for p in range(n)})


def run_kt_battery(count: int = 200, seed: int = 0) -> tuple[int, list[str]]:
    """Fuzz kt_finite against brute force on ``count`` random lattices.

    Returns (count, failures).  The first three lattices are fixed shapes
    (the 2^8 powerset, the divisor lattice of 5040, the two-point chain) so
    the extremes are always exercised; maps mix identity, constants, and
    random monotone sweeps.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    for i in range(count):
        if i == 0:
            lattice = _powerset_lattice(8)
        elif i == 1:
            lattice = _divisor_lattice(5040)
        elif i == 2:
            lattice = _chain_lattice(2)
        else:
            lattice = random_lattice(rng)
        roll = rng.random()
        if roll < 0.1:
            table = MonotoneTable(lattice, {e: e for e in lattice.elements})
        elif roll < 0.2:
            constant = rng.choice(lattice.elements)
            table = MonotoneTable(lattice, {e: constant for e in lattice.elements})
        else:
            table = random_monotone_table(lattice, rng)
        iterated = kt_finite(lattice, table)
        expected = brute_extreme_fixpoints(lattice, table)
        if iterated != expected:
            failures.append(
                f"lattice #{i} ({len(lattice)} elements): iteration {iterated} vs brute force {expected}"
            )
    return count, failures
