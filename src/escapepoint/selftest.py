"""Self-tests: the invariant battery on one spec, and the fixpoint engine on finite lattices.

``run_invariant_battery`` (``escapepoint check``) checks a spec's structural
invariants, where it can by a route the library does not take.
``run_kt_battery`` (``escapepoint kt-selftest``) runs the descent's settle
loop (``fixpoint._settle``) on random, exhaustively validated finite
lattices and compares both extreme fixpoints with brute force.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional

from .enumeration import (
    EnumerationSpec,
    _tail_places,
    check_exponent_bound,
    eligible_prefix_indices,
    intervalize,
    tail_hits,
    tail_weight_sum,
    value_at,
)
from .escape import compute_escape, enclose_escape_traced
from .fixpoint import (
    _settle,
    gfp_descend,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
)
from .numerics import dyadic_tail_weight, dyadic_weight, format_rational
from .weight_map import weight_below

__all__ = [
    "run_invariant_battery",
    "LatticeError",
    "FiniteLattice",
    "MonotoneTable",
    "kt_finite",
    "brute_extreme_fixpoints",
    "random_lattice",
    "random_monotone_table",
    "run_kt_battery",
]

_ZERO = Fraction(0)
_TWO = Fraction(2)


class _CheckFailure(Exception):
    """An invariant check failed with a human-readable reason."""


def run_invariant_battery(spec: EnumerationSpec, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every structural invariant against one spec.

    Returns (name, passed, note) triples in execution order; the note carries
    the failure reason, or an informational remark on a pass.  The battery
    never aborts early -- a crash inside one check is that check's failure.
    An affine tail past the exponent bound is refused up front with
    ``ExponentBoundError``, as ``compute_escape`` refuses it.
    """
    check_exponent_bound(spec)
    rng = random.Random(seed)
    length = len(spec.prefix_pairs)
    points = _sample_points(spec, rng)
    window = range(length, length + 65)
    x0_box: list[Optional[Fraction]] = [None]
    fmt = format_rational  # a failure message quotes values past the int digit limit too

    def settled() -> Fraction:
        if x0_box[0] is None:
            raise _CheckFailure("descent did not settle, cannot check")
        return x0_box[0]

    def check_totality() -> None:
        for n in range(length + 17):
            v = value_at(spec, n)
            if not isinstance(v, Fraction):
                raise _CheckFailure(f"value at index {n} is {type(v).__name__}")

    def check_eligibility_monotone() -> None:
        for x, y in zip(points, points[1:]):
            if not eligible_prefix_indices(spec, x) <= eligible_prefix_indices(spec, y):
                raise _CheckFailure(f"eligible prefix set shrank between {fmt(x)} and {fmt(y)}")

    def check_tail_closed_form() -> None:
        for x in points:
            closed = tail_weight_sum(spec, x)
            brute = sum((dyadic_weight(n) for n in window if value_at(spec, n) < x), _ZERO)
            high = brute + dyadic_tail_weight(window.stop)
            if not brute <= closed <= high:
                span = f"[{fmt(brute)}, {fmt(high)}]"
                raise _CheckFailure(f"closed-form tail weight {fmt(closed)} at {fmt(x)} is outside {span}")

    def check_tail_hits() -> None:
        for x in points:
            hit = tail_hits(spec, x)
            brute = any(value_at(spec, n) == x for n in window)
            if brute:
                if not hit:
                    raise _CheckFailure(f"{fmt(x)} is enumerated in the tail window but tail_hits says no")
            elif hit:
                # a hit past the window: the index of the tail place holding x must witness it
                pair = (x.numerator, x.denominator)
                _, n = _tail_places(spec, *pair).get(pair, (None, -1))
                if n < length or value_at(spec, n) != x:
                    raise _CheckFailure(f"tail_hits claims {fmt(x)} without a witness")

    def check_map_monotone() -> None:
        for x, y in zip(points, points[1:]):
            if weight_below(spec, x) > weight_below(spec, y):
                raise _CheckFailure(f"weight map decreased between {fmt(x)} and {fmt(y)}")

    def check_map_range() -> None:
        for x in points:
            w = weight_below(spec, x)
            if not _ZERO <= w <= _TWO:
                raise _CheckFailure(f"weight {fmt(w)} at {fmt(x)} is outside [0, 2]")

    def check_jump_lemma() -> None:
        # x <= f(n) < y forces the map to rise by at least the index weight
        for n in range(min(length + 9, 40)):
            v = value_at(spec, n)
            if _ZERO <= v < _TWO:
                y, jump = min(_TWO, v + Fraction(1, 997)), dyadic_weight(n)
                if weight_below(spec, y) < weight_below(spec, v) + jump:
                    raise _CheckFailure(f"jump at index {n} (value {fmt(v)}) is smaller than {fmt(jump)}")

    def check_descent_fixpoint() -> None:
        x0, trace = gfp_descend(spec)
        if weight_below(spec, x0) != x0:
            raise _CheckFailure(f"descent settled at {fmt(x0)}, not a fixpoint")
        if not (trace.terminated and trace.iterates[-1] == x0):
            raise _CheckFailure("trace does not settle at the result")
        x0_box[0] = x0

    def check_no_postfix_above() -> str:
        x0 = settled()
        if x0 == _TWO:
            return "escape value is the top element; nothing above to probe"
        for _ in range(64):
            y = x0 + (_TWO - x0) * Fraction(rng.randint(1, 1000), 1000)
            if weight_below(spec, y) >= y:
                raise _CheckFailure(f"{fmt(y)} above the escape value is a postfixpoint")
        return ""

    def check_proof_equivalence() -> None:
        x0 = settled()
        other = sup_postfix_oracle(spec)
        if other != x0:
            raise _CheckFailure(f"supremum oracle found {fmt(other)}, descent found {fmt(x0)}")
        literal = subset_fixpoint_oracle(spec)
        if literal != x0:
            raise _CheckFailure(f"subset oracle found {fmt(literal)}, descent found {fmt(x0)}")

    def check_certificate() -> None:
        x0 = settled()
        cert = compute_escape(spec)
        if cert.x0 != x0:
            raise _CheckFailure(f"certificate value {fmt(cert.x0)} differs from descent value {fmt(x0)}")
        if len(cert.rows) < length:
            raise _CheckFailure("certificate is missing prefix verdicts")

    def check_enclosure() -> None:
        x0 = settled()
        oracle = intervalize(spec)
        eps_wide, eps_narrow = Fraction(1, 10), Fraction(1, 100)
        coarse = enclose_escape_traced(oracle, 2, eps_wide)[0]
        sharper_eps = enclose_escape_traced(oracle, 2, eps_narrow)[0]
        sharper_n = enclose_escape_traced(oracle, 4, eps_narrow)[0]
        sharpest = enclose_escape_traced(oracle, 8, eps_narrow)[0]
        for enclosure in (coarse, sharper_eps, sharper_n, sharpest):
            if x0 not in enclosure:
                lo, hi = fmt(enclosure.lo), fmt(enclosure.hi)
                raise _CheckFailure(f"escape value {fmt(x0)} is outside enclosure [{lo}, {hi}]")
        if not coarse.encloses(sharper_eps):
            raise _CheckFailure("shrinking eps must narrow the enclosure")
        if not (sharper_eps.encloses(sharper_n) and sharper_n.encloses(sharpest)):
            raise _CheckFailure("more known indices must narrow the enclosure")

    checks: list[tuple[str, Callable[[], Optional[str]]]] = [
        ("totality", check_totality),
        ("eligibility-monotone", check_eligibility_monotone),
        ("tail-closed-form", check_tail_closed_form),
        ("tail-hits", check_tail_hits),
        ("map-monotone", check_map_monotone),
        ("map-range", check_map_range),
        ("jump-lemma", check_jump_lemma),
        ("descent-fixpoint", check_descent_fixpoint),
        ("no-postfix-above", check_no_postfix_above),
        ("proof-equivalence", check_proof_equivalence),
        ("certificate", check_certificate),
        ("enclosure", check_enclosure),
    ]
    results = []
    for name, fn in checks:
        try:
            note = fn()
            results.append((name, True, note or ""))
        except _CheckFailure as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # a battery reports, it must not abort
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def _sample_points(spec: EnumerationSpec, rng: random.Random, count: int = 24) -> list[Fraction]:
    points = {_ZERO, _TWO, Fraction(1), Fraction(1, 2), Fraction(3, 2)}
    for v in spec.prefix:
        for delta in (_ZERO, Fraction(1, 7), Fraction(-1, 7)):
            w = v + delta
            if _ZERO <= w <= _TWO:
                points.add(w)
    while len(points) < count:
        points.add(Fraction(rng.randint(0, 2000), 1000))
    return sorted(points)


# -- generic finite-lattice engine -------------------------------------------


class LatticeError(ValueError):
    """A claimed finite lattice or monotone table failed validation."""


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A finite lattice built from elements and an order predicate.

    Construction is exhaustive validation: reflexivity, antisymmetry,
    transitivity, a global top and bottom, and existence of every pairwise
    join, which with the bottom gives every meet.  Elements are re-indexed
    topologically (by down-set size), which makes least upper bounds
    findable as the lowest set bit of an upper-set intersection.
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
        position = {o: p for p, o in enumerate(order)}
        up = [sum(1 << position[j] for j in _bits(raw_up[o])) for o in order]
        down = [0] * n
        for p in range(n):
            for q in _bits(up[p]):
                down[q] |= 1 << p
        self._up = up
        self._down = down
        self._n = n

        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] & ~up[i]:
                    raise LatticeError(
                        f"order is not transitive through {self._elements[i]!r} <= {self._elements[j]!r}"
                    )

        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if not bottoms:
            raise LatticeError("no least element")
        if not tops:
            raise LatticeError("no greatest element")
        self._bottom_idx = bottoms[0]
        self._top_idx = tops[0]

        # every pair has the top as an upper bound, so only a least one can be missing;
        # then every meet exists too, as the join of the common lower bounds (bottom included)
        for i in range(n):
            for j in range(i + 1, n):
                self._join_idx(i, j)

    def _join_idx(self, i: int, j: int) -> int:
        uppers = self._up[i] & self._up[j]
        k = (uppers & -uppers).bit_length() - 1
        if uppers & ~self._up[k]:
            raise LatticeError(
                f"{self._elements[i]!r} and {self._elements[j]!r} have no least upper bound"
            )
        return k

    def _meet_idx(self, i: int, j: int) -> int:
        lowers = self._down[i] & self._down[j]
        return lowers.bit_length() - 1

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

    def __call__(self, e: object):
        return self._table[e]


def kt_finite(lattice: FiniteLattice, table: MonotoneTable) -> tuple:
    """(least, greatest) fixpoint of a monotone table by chain iteration.

    Ascends from bottom and descends from top with the escape value's settle
    loop; the table is monotone, so on a finite lattice both chains settle
    within len(lattice) applications.
    """
    bound = len(lattice) + 1
    ascent = _settle(lattice.bottom, table, bound)
    descent = _settle(lattice.top, table, bound)
    for chain in (ascent, descent):
        if chain[-1] != chain[-2]:
            raise RuntimeError("iteration failed to settle on a finite lattice")
    return ascent[-1], descent[-1]


def brute_extreme_fixpoints(lattice: FiniteLattice, table: MonotoneTable) -> tuple:
    """(least, greatest) fixpoint by scanning every element.  Oracle route."""
    fixed = [e for e in lattice.elements if table(e) == e]
    least = [f for f in fixed if all(lattice.leq(f, g) for g in fixed)]
    greatest = [f for f in fixed if all(lattice.leq(g, f) for g in fixed)]
    if not least or not greatest:
        raise LatticeError("no least or greatest fixpoint; lattice validation is broken")
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


# Each lattice shape: (maker, size range alone, size range as a product factor).
_SHAPES = (
    (_chain_lattice, (2, 24), (2, 8)),
    (_divisor_lattice, (2, 5040), (2, 120)),
    (_powerset_lattice, (2, 6), (1, 3)),
)
_MAX_PRODUCT_SIZE = 256


def random_lattice(rng: random.Random) -> FiniteLattice:
    """A random finite lattice: chain, divisor lattice, powerset, or product of two."""
    shape = rng.choice(_SHAPES + (None,))  # None stands for a product
    if shape is not None:
        make, alone, _ = shape
        return make(rng.randint(*alone))
    while True:
        factors = []
        for _ in range(2):
            make, _, factor = rng.choice(_SHAPES)
            factors.append(make(rng.randint(*factor)))
        if len(factors[0]) * len(factors[1]) <= _MAX_PRODUCT_SIZE:
            return _product_lattice(*factors)


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
        for q in _bits(lattice._down[p] & ~(1 << p)):
            floor_idx = lattice._join_idx(floor_idx, image_idx[q])
        image_idx[p] = rng.choice(list(_bits(lattice._up[floor_idx])))
    elements = lattice.elements
    return MonotoneTable(lattice, {elements[p]: elements[image_idx[p]] for p in range(n)})


# The first lattices of every battery, so that the extremes are always exercised.
_FIXED_LATTICES = ((_powerset_lattice, 8), (_divisor_lattice, 5040), (_chain_lattice, 2))


def run_kt_battery(count: int = 200, seed: int = 0) -> list[str]:
    """Fuzz kt_finite against brute force on ``count`` lattices; returns the failures.

    The first three lattices are fixed shapes (the 2^8 powerset, the divisor
    lattice of 5040, the two-point chain), the rest random; maps mix
    identity, constants, and random monotone sweeps.  ``count`` must be a
    positive integer.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"lattice count must be a positive integer, got {count!r}")
    rng = random.Random(seed)
    failures: list[str] = []
    for i in range(count):
        if i < len(_FIXED_LATTICES):
            make, size = _FIXED_LATTICES[i]
            lattice = make(size)
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
    return failures
