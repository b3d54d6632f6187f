import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, random_spec
from escapepoint import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    DyadicTail,
    IntervalEnumeration,
    RatInterval,
    box_classifier,
    dyadic_tail_weight,
    dyadic_weight,
    eligible_prefix_indices,
    enclose_escape_traced,
    intervalize,
    query_boxes,
    tail_weight_sum,
    value_at,
    weight_below,
    weight_sum,
)
from escapepoint.enumeration import affine_cut
from escapepoint.numerics import MAX_EXACT_EXPONENT
from escapepoint.weight_map import _weight_pair, step_structure
from test_golden import affine_grid

spec_indices = st.integers(min_value=0, max_value=2999)
unit_range = st.fractions(min_value=0, max_value=2, max_denominator=1000)

SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))


@st.composite
def affine_specs(draw):
    a = F(draw(st.integers(min_value=-64, max_value=64).filter(bool)),
          draw(st.integers(min_value=1, max_value=64)))
    # intercepts that put a tail value exactly on 0 or on 2, or anywhere
    b = draw(st.one_of(
        st.integers(min_value=-8, max_value=8).map(lambda k: -a * k),
        st.integers(min_value=-8, max_value=8).map(lambda k: 2 - a * k),
        st.fractions(min_value=-4, max_value=4, max_denominator=64),
    ))
    # prefix values on the tail's line, at the ends of [0, 2], or anywhere
    value = st.one_of(
        st.integers(min_value=0, max_value=300).map(lambda n: a * n + b),
        st.sampled_from([F(0), F(2)]),
        st.fractions(min_value=-1, max_value=3, max_denominator=64),
    )
    return EnumerationSpec(tuple(draw(st.lists(value, max_size=8))), Affine(a, b))


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


def profile(spec: EnumerationSpec) -> tuple[F, tuple[tuple[F, F], ...]]:
    """The map's value at 0 and its ascending (break, jump) pairs, from step_structure."""
    steps = step_structure(spec)
    breaks = tuple((steps.at(k), steps.fraction(jump)) for k, jump in enumerate(steps.jumps))
    return steps.fraction(steps.base), breaks


def walk_plateaus(spec: EnumerationSpec) -> list[tuple[F, int]]:
    """StepStructure.plateaus() as (value, k), checked against weight_below at each upper edge."""
    steps = step_structure(spec)
    walk = [(steps.fraction(t), k) for t, k in steps.plateaus()]
    top = walk[0][1]
    assert [k for _, k in walk] == list(range(top, -1, -1))
    values = [value for value, _ in walk]
    assert all(a > b for a, b in zip(values, values[1:]))
    for value, k in walk:
        edge = F(2) if k == top else steps.at(k)
        assert value == weight_below(spec, edge), (spec, k)
    return walk


class TestWeightBelow:
    def test_hand_values(self):
        assert weight_below(SPEC2, F(0)) == 0
        assert weight_below(SPEC2, F(1, 8)) == 0
        assert weight_below(SPEC2, F(1, 4)) == F(1, 2)
        assert weight_below(SPEC2, F(3, 2)) == F(1, 2)
        assert weight_below(SPEC2, F(2)) == F(3, 2)
        assert weight_below(SPEC2, F(9, 4)) == 2  # tail becomes eligible past 2

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            weight_below(SPEC2, 0.5)

    @given(spec_indices, unit_range, unit_range)
    def test_monotone(self, index, x, y):
        spec = corpus_spec(index)
        if x > y:
            x, y = y, x
        assert weight_below(spec, x) <= weight_below(spec, y)

    @given(spec_indices, unit_range)
    def test_bounded_on_unit_interval(self, index, x):
        assert 0 <= weight_below(corpus_spec(index), x) <= 2

    @given(spec_indices, st.integers(min_value=0, max_value=40))
    def test_jump_lemma(self, index, n):
        # x <= f(n) < y implies the map rises by at least 2^-n
        spec = corpus_spec(index)
        v = value_at(spec, n)
        if 0 <= v < 2:
            y = min(F(2), v + F(1, 10**9))
            assert weight_below(spec, y) >= weight_below(spec, v) + dyadic_weight(n)


# x inside and outside [0, 2]; a tail offset, when drawn, moves x onto the tail value there
points = st.one_of(unit_range, st.fractions(min_value=-1000, max_value=1000, max_denominator=1000))
tail_offsets = st.one_of(st.none(), st.integers(min_value=0, max_value=80))


def check_against_references(spec: EnumerationSpec, x: F, offset) -> None:
    """weight_below against the set route and against a series truncated after L + 70 indices."""
    start = len(spec.prefix)
    if offset is not None:
        x = value_at(spec, start + offset)
    got = weight_below(spec, x)
    reference = weight_sum(eligible_prefix_indices(spec, x)) + tail_weight_sum(spec, x)
    # repr tells a Fraction's value and a lazy DyadicTail's base, sign and exponent
    assert repr(got) == repr(reference)
    window = range(start + 70)
    brute = sum((dyadic_weight(n) for n in window if value_at(spec, n) < x), F(0))
    assert brute <= got <= brute + dyadic_tail_weight(window.stop)


class TestWeightBelowReferences:
    @given(spec_indices, points, tail_offsets)
    @settings(deadline=None)
    # cuts near 10^10 and 10^11, past MAX_EXACT_EXPONENT: the DyadicTail route
    @example(566, F(5620175149), None)
    @example(2000, F(-11060971072), None)
    def test_corpus(self, index, x, offset):
        check_against_references(corpus_spec(index), x, offset)

    @given(affine_specs(), points, tail_offsets)
    @settings(deadline=None)
    @example(EnumerationSpec((F(1, 2), F(3)), Affine(F(-1, 64), F(1, 3))), F(-10**7), None)
    def test_affine_specs(self, spec, x, offset):
        check_against_references(spec, x, offset)

    @pytest.mark.parametrize("slope", [F(1, 3), F(-1, 3)])
    def test_lazy_past_the_exponent_bound(self, slope):
        spec = EnumerationSpec((F(1, 2), F(5)), Affine(slope, 0))
        x = F(10**7) if slope > 0 else F(-10**7)
        assert affine_cut(spec, x) > MAX_EXACT_EXPONENT
        got = weight_below(spec, x)
        assert isinstance(got, DyadicTail)
        # both prefix values and all but a 2^-cut sliver of the tail, or only that sliver
        assert (F(3, 2) < got < 2) if slope > 0 else (0 < got < dyadic_weight(MAX_EXACT_EXPONENT))
        check_against_references(spec, x, None)


class TestStepStructure:
    def test_base_is_value_at_zero(self):
        for spec in build_corpus(60):
            base, _ = profile(spec)
            assert base == weight_below(spec, F(0))

    def test_breaks_sorted_with_positive_jumps(self):
        for spec in build_corpus(60):
            _, breaks = profile(spec)
            ats = [at for at, _ in breaks]
            assert ats == sorted(set(ats))
            assert all(0 <= at <= 2 for at in ats)
            assert all(jump > 0 for _, jump in breaks)

    def test_reconstructs_the_map(self):
        # the step structure must reproduce weight_below across [0, 2],
        # including exactly at the breakpoints (strict eligibility)
        for spec in build_corpus(60, seed=4):
            base, breaks = profile(spec)
            probes = {F(0), F(2), F(1, 3)}
            for at, _ in breaks:
                probes.update({at, min(F(2), at + F(1, 10**6))})
            for x in probes:
                rebuilt = base + sum((j for at, j in breaks if at < x), F(0))
                assert rebuilt == weight_below(spec, x), (spec, x)

    def test_affine_break_count_tracks_slope(self):
        spec = EnumerationSpec(prefix=(), tail=Affine(F(1, 16), 0))
        _, breaks = profile(spec)
        assert len(breaks) == 33  # values k/16 in [0, 2]

    @given(affine_specs())
    @settings(deadline=None)
    def test_affine_matches_brute_force(self, spec):
        # past the larger cut every value lies outside [0, 2]
        hi = max(affine_cut(spec, F(0)), affine_cut(spec, F(2)))
        jumps = {}
        for n in range(hi + 1):
            v = value_at(spec, n)
            if 0 <= v <= 2:
                jumps[v] = jumps.get(v, F(0)) + dyadic_weight(n)
        assert profile(spec) == (weight_below(spec, F(0)), tuple(sorted(jumps.items())))

    def test_negative_slope_lands_on_both_ends(self):
        # f(n) = 2 - n/4 takes the value 2 at n = 0 and 0 at n = 8
        spec = EnumerationSpec(prefix=(), tail=Affine(F(-1, 4), 2))
        base, breaks = profile(spec)
        assert [at for at, _ in breaks] == [F(k, 4) for k in range(9)]
        for x in [F(k, 8) for k in range(17)]:
            rebuilt = base + sum((j for at, j in breaks if at < x), F(0))
            assert rebuilt == weight_below(spec, x), x


class TestPlateaus:
    def test_breaks_at_both_ends(self):
        # f(n) = 2 - n/4 has breaks k/4 for k = 0..8; the one at 2 opens no
        # plateau and the one at 0 closes plateau 0 at [0, 0]
        spec = EnumerationSpec(prefix=(), tail=Affine(F(-1, 4), 2))
        assert len(step_structure(spec).jumps) == 9
        walk = walk_plateaus(spec)
        assert [k for _, k in walk] == list(range(8, -1, -1))
        assert walk[0][0] == weight_below(spec, F(2)) == 1
        assert walk[-1][0] == weight_below(spec, F(0)) == F(1, 256)

    def test_corpus_sample(self):
        for spec in build_corpus(60, seed=5):
            walk_plateaus(spec)

    @given(affine_specs())
    @settings(deadline=None)
    def test_affine_specs(self, spec):
        walk_plateaus(spec)


small_values = st.fractions(min_value=-1, max_value=3, max_denominator=64)
# a spec of every tail kind, values near [0, 2] so that they land among the breaks
specs_of_every_kind = st.one_of(
    affine_specs(),
    st.builds(lambda p, c: EnumerationSpec(tuple(p), Constant(c)), st.lists(small_values, max_size=8), small_values),
    st.lists(small_values, min_size=1, max_size=8).map(lambda p: EnumerationSpec(tuple(p), Cycle())),
)
# scale factors for an unreduced x = k*p / k*q, powers of two among them
scales = st.one_of(st.integers(min_value=1, max_value=10**12), st.integers(0, 80).map(lambda e: 1 << e))


def core_points(spec: EnumerationSpec) -> set[F]:
    """0, 2, the breaks, the plateau values the sweep tests, and enumerated values in and out of [0, 2]."""
    steps = step_structure(spec)
    breaks = {steps.at(k) for k in range(len(steps.jumps))}
    plateaus = {steps.fraction(t) for t, _ in steps.plateaus()}
    enumerated = {value_at(spec, n) for n in range(len(spec.prefix) + 4)}
    return {F(0), F(2)} | breaks | plateaus | enumerated


def check_weight_pair(spec: EnumerationSpec, scale) -> None:
    """The integer core at every core point, scaled by ``scale(x)``, against weight_below."""
    steps = step_structure(spec)
    for t, _ in steps.plateaus():
        p, q = steps.pair(t)
        assert F(p, q) == steps.fraction(t) and (p | q) & 1  # no two left in common
    for x in core_points(spec):
        k = scale(x)
        assert F(*_weight_pair(spec, k * x.numerator, k * x.denominator)) == weight_below(spec, x), (spec, x, k)


class TestWeightPair:
    @given(spec_indices, scales)
    @settings(deadline=None)
    def test_corpus(self, index, k):
        check_weight_pair(corpus_spec(index), lambda x: k)

    def test_affine_grid(self):
        rng = random.Random(14)
        for spec in affine_grid():
            check_weight_pair(spec, lambda x: rng.choice([1, 3, 1 << rng.randint(1, 64), rng.randint(2, 10**9)]))

    @given(specs_of_every_kind, scales)
    @settings(deadline=None)
    def test_specs_of_every_kind(self, spec, k):
        check_weight_pair(spec, lambda x: k)


def queried_bounds(ienum, n_known, eps, x) -> RatInterval:
    """The bound map at x over freshly queried boxes of indices 0, ..., n_known-1."""
    return box_classifier(tuple(query_boxes(ienum, n_known, eps)))(x)


class TestQueriedBounds:
    def test_hand_case(self):
        # index 1 (value 1/8) is certainly below 1, index 0 (3/2) certainly
        # not, and the tail past index 1 is charged 2^-1
        bounds = queried_bounds(intervalize(SPEC2), 2, F(1, 100), F(1))
        assert bounds == RatInterval(F(1, 2), F(1))

    @pytest.mark.parametrize("n_known", [0, True])
    def test_rejects_zero_n_known(self, n_known):
        with pytest.raises(ValueError, match="n_known must be a positive integer"):
            query_boxes(intervalize(SPEC2), n_known, F(1, 100))
        with pytest.raises(ValueError, match="n_known must be a positive integer"):
            enclose_escape_traced(intervalize(SPEC2), n_known, F(1, 100))

    @given(
        spec_indices,
        st.integers(min_value=1, max_value=12),
        st.sampled_from([F(1, 10), F(1, 100), F(1, 10**4)]),
        unit_range,
        st.sampled_from([F(0), F(1, 1000), F(1, 7)]),
    )
    @settings(deadline=None, max_examples=60)
    def test_sound_and_accounted(self, index, n_known, eps, x, jitter):
        spec = corpus_spec(index)
        oracle = intervalize(spec, jitter)
        bounds = queried_bounds(oracle, n_known, eps, x)
        assert bounds.lo <= weight_below(spec, x) <= bounds.hi
        boxes = [oracle.at(n, eps) for n in range(n_known)]
        certain = sum((dyadic_weight(n) for n, box in enumerate(boxes) if box.hi < x), F(0))
        undecided = sum(
            (dyadic_weight(n) for n, box in enumerate(boxes) if box.lo < x <= box.hi), F(0)
        )
        assert bounds.lo == certain
        assert bounds.hi - bounds.lo == undecided + F(2, 2**n_known)

    @given(spec_indices, st.integers(min_value=1, max_value=10), unit_range)
    @settings(deadline=None, max_examples=60)
    def test_narrows_with_more_knowledge(self, index, n_known, x):
        oracle = intervalize(corpus_spec(index))
        wide = queried_bounds(oracle, n_known, F(1, 10), x)
        fine_eps = queried_bounds(oracle, n_known, F(1, 100), x)
        fine_n = queried_bounds(oracle, n_known + 1, F(1, 10), x)
        for tighter in (fine_eps, fine_n):
            assert wide.lo <= tighter.lo
            assert tighter.hi <= wide.hi


box_ends = st.fractions(min_value=-3, max_value=3, max_denominator=1000)


@st.composite
def boxes_and_x(draw):
    """Boxes of which many have an endpoint exactly at x, and x."""
    x = draw(box_ends)
    end = st.one_of(st.just(x), box_ends)
    pairs = draw(st.lists(st.tuples(end, end), min_size=1, max_size=12))
    return [RatInterval(min(a, b), max(a, b)) for a, b in pairs], x


@st.composite
def repeated_boxes_and_x(draw):
    """Boxes drawn from a few objects, each repeated at several indices, equal copies mixed in, and x."""
    x = draw(box_ends)
    end = st.one_of(st.just(x), box_ends)
    palette = [RatInterval(min(a, b), max(a, b)) for a, b in draw(st.lists(st.tuples(end, end), min_size=1, max_size=4))]
    picks = draw(st.lists(st.tuples(st.integers(0, len(palette) - 1), st.booleans()), min_size=1, max_size=40))
    # a copy is an equal but distinct object
    boxes = [RatInterval(palette[k].lo, palette[k].hi) if copy else palette[k] for k, copy in picks]
    return boxes * draw(st.integers(1, 20)), x


def three_way(box: RatInterval, x: F) -> str:
    """Is every point of the box strictly below x, none of them, or undecided?"""
    if box.hi < x:
        return "below"
    if box.lo >= x:
        return "not below"
    return "undecided"


def reference_bounds(boxes: list[RatInterval], x: F) -> RatInterval:
    """The bound map at x by Fraction comparisons and Fraction weights."""
    weights = {"below": F(0), "undecided": F(0), "not below": F(0)}
    for n, box in enumerate(boxes):
        weights[three_way(box, x)] += dyadic_weight(n)
    tail = F(2, 2 ** len(boxes))
    return RatInterval(weights["below"], weights["below"] + weights["undecided"] + tail)


class TestBoxClassifier:
    @pytest.mark.parametrize("x, expected", [
        (F(2), (F(1), F(2))),  # the box is certainly below
        (F(1, 2), (F(0), F(2))),  # undecided
        (F(1), (F(0), F(2))),  # hi == x: the endpoint is not below, the interior is
        (F(1, 4), (F(0), F(1))),  # lo == x: no point is strictly below
        (F(-1), (F(0), F(1))),
    ])
    def test_hand_cases(self, x, expected):
        assert box_classifier([RatInterval(F(1, 4), F(1))])(x) == RatInterval(*expected)

    @given(boxes_and_x())
    def test_matches_a_three_way_fraction_classification(self, case):
        boxes, x = case
        assert box_classifier(boxes)(x) == reference_bounds(boxes, x)

    @given(boxes_and_x(), st.lists(box_ends, max_size=6))
    def test_one_classifier_serves_every_x(self, case, more):
        boxes, x = case
        bounds = box_classifier(boxes)
        for z in [x, *more, x]:
            assert bounds(z) == reference_bounds(boxes, z)

    @given(repeated_boxes_and_x(), st.lists(box_ends, max_size=4))
    def test_repeated_boxes_match_the_per_index_reference(self, case, more):
        boxes, x = case
        bounds = box_classifier(boxes)
        for z in [x, *more]:
            assert bounds(z) == reference_bounds(boxes, z)

    def test_rejects_float_x(self):
        with pytest.raises(TypeError):
            box_classifier([RatInterval(0, 1)])(0.5)

    def test_rows_take_memory_linear_in_the_box_count(self):
        # a weight 2^(top - n) kept per row would hold about top^2 / 16 bytes: 16 MB here
        top = 1 << 14
        boxes = tuple(query_boxes(intervalize(EnumerationSpec((), Constant(F(1, 3)))), top, F(1, 128)))
        tracemalloc.start()
        try:
            assert box_classifier(boxes)(F(1)) == RatInterval(2 - F(2, 1 << top), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_distinct_boxes_take_memory_linear_in_their_count(self):
        # an affine tail's boxes are all distinct, one row each; a weight kept per row would take 16 MB here
        top = 1 << 14
        boxes = tuple(query_boxes(intervalize(EnumerationSpec((), Affine(F(-1, 3), F(1, 2)))), top, F(1, 128)))
        assert len({box.pairs for box in boxes}) == top
        tracemalloc.start()
        try:
            assert box_classifier(boxes)(F(1)) == RatInterval(2 - F(2, 1 << top), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_boxes_repeated_far_apart_take_memory_linear_in_their_count(self):
        # the second half repeats the first, so a bit pattern kept per shared box would span
        # top / 2 bits: 2^13 rows of 1 KB, 8 MB here
        half = 1 << 13
        boxes = [RatInterval(F(n, half), F(n + 1, half)) for n in range(half)] * 2
        expected = reference_bounds(boxes, F(1, 2))
        tracemalloc.start()
        try:
            assert box_classifier(boxes)(F(1, 2)) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestWidthContract:
    NARROW, WIDE = RatInterval(0, F(1, 100)), RatInterval(0, 1)

    def test_a_shared_box_too_wide_is_refused_at_its_first_index(self):
        oracle = IntervalEnumeration(lambda n, eps: self.NARROW if n < 3 else self.WIDE)
        boxes = query_boxes(oracle, 8, F(1, 10))
        assert [next(boxes) for _ in range(3)] == [self.NARROW] * 3
        with pytest.raises(ValueError, match="broke its width contract at n=3"):
            next(boxes)

    def test_a_fresh_box_too_wide_at_a_late_index_is_refused(self):
        oracle = IntervalEnumeration(lambda n, eps: RatInterval(0, 1 if n == 200 else F(1, 100)))
        with pytest.raises(ValueError, match="broke its width contract at n=200"):
            list(query_boxes(oracle, 256, F(1, 10)))
        with pytest.raises(ValueError, match="broke its width contract at n=200"):
            enclose_escape_traced(oracle, 256, F(1, 10))

    @pytest.mark.parametrize("eps", [0, F(-1, 10**30)])
    def test_nonpositive_eps_is_refused_before_any_query(self, eps):
        asked = []
        oracle = IntervalEnumeration(lambda n, at_eps: asked.append(n) or self.NARROW)
        with pytest.raises(ValueError, match="eps must be positive"):
            list(query_boxes(oracle, 4, eps))
        assert asked == []

    def test_every_index_is_asked_through_at(self, monkeypatch):
        asked, at = [], IntervalEnumeration.at
        monkeypatch.setattr(IntervalEnumeration, "at", lambda self, n, eps: asked.append(n) or at(self, n, eps))
        enclose_escape_traced(intervalize(EnumerationSpec((F(1, 2),), Cycle())), 16, F(1, 128))
        assert asked == list(range(16))
