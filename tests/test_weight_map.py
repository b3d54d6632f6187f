import random
import tracemalloc
from fractions import Fraction as F
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, formula_box, random_spec
from escapepoint import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    ExponentBoundError,
    RatInterval,
    box_classifier,
    compute_escape,
    dyadic_tail_weight,
    dyadic_weight,
    eligible_prefix_indices,
    enclose_escape_traced,
    format_rational,
    gfp_descend,
    intervalize,
    query_boxes,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
    tail_weight_sum,
    value_at,
    weight_below,
)
from escapepoint import enumeration, weight_map
from escapepoint.enumeration import MAX_TAIL_CUT
from escapepoint.numerics import MAX_EXACT_EXPONENT
from escapepoint.weight_map import step_structure
from test_fixpoint import memory_cap
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


def set_route(spec: EnumerationSpec, x: F) -> F:
    """The map at x by the set route: the weights of the eligible prefix indices, plus the tail's."""
    return sum(map(dyadic_weight, eligible_prefix_indices(spec, x)), F(0)) + tail_weight_sum(spec, x)


def cut(spec: EnumerationSpec, x: F) -> int:
    """The affine tail's cut at x."""
    return enumeration._cut(spec, x.numerator, x.denominator)


def profile(spec: EnumerationSpec) -> tuple[F, tuple[tuple[F, F], ...]]:
    """The map's value at 2 and its ascending (break, jump) pairs, from the plateau walk."""
    steps = step_structure(spec)
    walk = list(steps.plateaus())
    down = [(F(*below), steps.fraction(t - lower)) for (t, below), (lower, _) in zip(walk, walk[1:])]
    return steps.fraction(walk[0][0]), tuple(reversed(down))


def walk_plateaus(spec: EnumerationSpec) -> list[tuple[F, Optional[F]]]:
    """StepStructure.plateaus() as (value, break below), checked against weight_below at each edge.

    A plateau (lo, hi] takes its value at hi and between its ends, and the
    bottom one, below which lies no break, takes it at 0 as well.
    """
    steps = step_structure(spec)
    walk = [(steps.fraction(t), below and F(*below)) for t, below in steps.plateaus()]
    values = [value for value, _ in walk]
    lows = [lo for _, lo in walk]
    assert lows[-1] is None and None not in lows[:-1]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(a > b for a, b in zip(lows, lows[1:-1])) and all(0 <= lo < 2 for lo in lows[:-1])
    for (value, lo), hi in zip(walk, [F(2), *lows]):
        inside = F(0) if lo is None else (lo + hi) / 2
        assert weight_below(spec, hi) == weight_below(spec, inside) == value, (spec, lo, hi)
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

    @pytest.mark.parametrize("tail, walked", [
        (Cycle(), [9]),  # the block is the prefix: its sum is the prefix's
        (Constant(F(1, 3)), [9, 1]),
        (Affine(F(1, 3), 0), [9]),
    ], ids=["cycle", "constant", "affine"])
    def test_walks_a_cycle_once(self, tail, walked, monkeypatch):
        spec = EnumerationSpec(tuple(F(n, 7) for n in range(9)), tail)
        sizes = []
        walk = enumeration._below

        def counting(pairs, p, q):
            sizes.append(len(pairs))
            return walk(pairs, p, q)

        monkeypatch.setattr(enumeration, "_below", counting)
        monkeypatch.setattr(weight_map, "_below", counting)
        for x in (F(-1), F(0), F(4, 7), F(13, 14), F(2), F(3)):
            sizes.clear()
            got = weight_below(spec, x)
            assert sizes == walked
            sizes.clear()
            # the tail alone still walks a periodic block
            assert got == set_route(spec, x)
            assert sizes == ([len(spec.block_pairs)] if spec.block_pairs else [])


# x inside and outside [0, 2]; a tail offset, when drawn, moves x onto the tail value there
points = st.one_of(unit_range, st.fractions(min_value=-1000, max_value=1000, max_denominator=1000))
tail_offsets = st.one_of(st.none(), st.integers(min_value=0, max_value=80))


def check_against_references(spec: EnumerationSpec, x: F, offset) -> None:
    """weight_below against the set route and against a series truncated after L + 70 indices.

    An affine cut past ``MAX_EXACT_EXPONENT`` must be refused by both routes, and nothing else.
    """
    start = len(spec.prefix)
    if offset is not None:
        x = value_at(spec, start + offset)
    if isinstance(spec.tail, Affine) and cut(spec, x) > MAX_EXACT_EXPONENT:
        for route in (weight_below, tail_weight_sum):
            with memory_cap(), pytest.raises(ExponentBoundError, match="past the bound"):
                route(spec, x)
        return
    got = weight_below(spec, x)
    reference = set_route(spec, x)
    assert type(got) is F and got == reference
    window = range(start + 70)
    brute = sum((dyadic_weight(n) for n in window if value_at(spec, n) < x), F(0))
    assert brute <= got <= brute + dyadic_tail_weight(window.stop)


class TestWeightBelowReferences:
    @given(spec_indices, points, tail_offsets)
    @settings(deadline=None)
    # cuts near 10^10 and 10^11, past MAX_EXACT_EXPONENT: refused
    @example(566, F(5620175149), None)
    @example(2000, F(-11060971072), None)
    def test_corpus(self, index, x, offset):
        check_against_references(corpus_spec(index), x, offset)

    @given(affine_specs(), points, tail_offsets)
    @settings(deadline=None)
    @example(EnumerationSpec((F(1, 2), F(3)), Affine(F(-1, 64), F(1, 3))), F(-10**7), None)  # refused
    def test_affine_specs(self, spec, x, offset):
        check_against_references(spec, x, offset)

    @pytest.mark.parametrize("slope", [F(1, 3), F(-1, 3)])
    def test_refused_past_the_exponent_bound(self, slope):
        spec = EnumerationSpec((F(1, 2), F(5)), Affine(slope, 0))
        x = F(10**7) if slope > 0 else F(-10**7)
        assert cut(spec, x) > MAX_EXACT_EXPONENT
        check_against_references(spec, x, None)

    @pytest.mark.parametrize("slope, x", [(1, MAX_EXACT_EXPONENT), (-1, 1 - MAX_EXACT_EXPONENT)])
    def test_exact_up_to_the_exponent_bound(self, slope, x):
        # f(n) = n or -n from index 0, cut at x on the bound's index: exact there, refused one further
        spec = EnumerationSpec((), Affine(slope, 0))
        for step, index in ((-slope, MAX_EXACT_EXPONENT - 1), (0, MAX_EXACT_EXPONENT)):
            assert cut(spec, x + step) == index
            tail = F(2, 2**index)
            assert weight_below(spec, x + step) == (2 - tail if slope > 0 else tail)
        with memory_cap(), pytest.raises(ExponentBoundError, match=f"index {MAX_EXACT_EXPONENT + 1},"):
            weight_below(spec, x + slope)

    # a flat line is a constant tail: it has no cut, like any periodic block
    @pytest.mark.parametrize("tail", [Constant(F(1, 2)), Cycle(), Affine(0, F(1, 2))])
    @pytest.mark.parametrize("x", [F(10**10), F(-10**10)])
    def test_a_periodic_tail_is_exact_at_any_x(self, tail, x):
        spec = EnumerationSpec((F(1, 3), F(5, 3), F(1, 3)), tail)
        assert spec.block_pairs
        with memory_cap():
            assert weight_below(spec, x) == (2 if x > 0 else 0)
            check_against_references(spec, x, None)


class TestStepStructure:
    def test_peak_is_value_at_two(self):
        for spec in build_corpus(60):
            peak, breaks = profile(spec)
            assert peak == weight_below(spec, F(2))
            assert peak - sum(jump for _, jump in breaks) == weight_below(spec, F(0))

    def test_breaks_sorted_with_positive_jumps(self):
        for spec in build_corpus(60):
            _, breaks = profile(spec)
            ats = [at for at, _ in breaks]
            assert ats == sorted(set(ats))
            assert all(0 <= at < 2 for at in ats)
            assert all(jump > 0 for _, jump in breaks)

    def test_reconstructs_the_map(self):
        # the step structure must reproduce weight_below across [0, 2],
        # including exactly at the breakpoints (strict eligibility)
        for spec in build_corpus(60, seed=4):
            peak, breaks = profile(spec)
            probes = {F(0), F(2), F(1, 3)}
            for at, _ in breaks:
                probes.update({at, min(F(2), at + F(1, 10**6))})
            for x in probes:
                rebuilt = peak - sum((j for at, j in breaks if at >= x), F(0))
                assert rebuilt == weight_below(spec, x), (spec, x)

    def test_affine_break_count_tracks_slope(self):
        spec = EnumerationSpec(prefix=(), tail=Affine(F(1, 16), 0))
        _, breaks = profile(spec)
        assert len(breaks) == 32  # values k/16 in [0, 2)

    @given(affine_specs())
    @settings(deadline=None)
    def test_affine_matches_brute_force(self, spec):
        # past the larger cut every value lies outside [0, 2]
        hi = spec.window[1]
        jumps = {}
        for n in range(hi + 1):
            v = value_at(spec, n)
            if 0 <= v < 2:
                jumps[v] = jumps.get(v, F(0)) + dyadic_weight(n)
        assert profile(spec) == (weight_below(spec, F(2)), tuple(sorted(jumps.items())))

    def test_negative_slope_lands_on_both_ends(self):
        # f(n) = 2 - n/4 takes the value 2 at n = 0, which is no break, and 0 at n = 8
        spec = EnumerationSpec(prefix=(), tail=Affine(F(-1, 4), 2))
        peak, breaks = profile(spec)
        assert [at for at, _ in breaks] == [F(k, 4) for k in range(8)]
        for x in [F(k, 8) for k in range(17)]:
            rebuilt = peak - sum((j for at, j in breaks if at >= x), F(0))
            assert rebuilt == weight_below(spec, x), x


class TestPlateaus:
    def test_breaks_at_both_ends(self):
        # f(n) = 2 - n/4 takes k/4 for k = 0..8; the value 2 is no break, since
        # the map moves only past values below 2, and 0 closes plateau 0 at [0, 0]
        spec = EnumerationSpec(prefix=(), tail=Affine(F(-1, 4), 2))
        assert len(step_structure(spec).run) == 8
        walk = walk_plateaus(spec)
        assert [lo for _, lo in walk] == [F(k, 4) for k in range(7, -1, -1)] + [None]
        assert walk[0][0] == weight_below(spec, F(2)) == 1
        assert walk[-1][0] == weight_below(spec, F(0)) == F(1, 256)

    def test_corpus_sample(self):
        for spec in build_corpus(60, seed=5):
            walk_plateaus(spec)

    @given(affine_specs())
    @settings(deadline=None)
    def test_affine_specs(self, spec):
        walk_plateaus(spec)


def check_exact_window(spec: EnumerationSpec) -> None:
    """The run is exactly the indices lo, ..., hi - 1 of ``spec.window``, by ascending value."""
    lo, hi = spec.window
    ascending = range(lo, hi) if spec.tail.a > 0 else range(hi - 1, lo - 1, -1)
    assert step_structure(spec).run == ascending, spec
    assert all(0 <= value_at(spec, n) < 2 for n in ascending), spec
    # the strict cuts leave the index before lo, if a tail index, and hi outside [0, 2)
    for n in [lo - 1] * (lo - 1 >= len(spec.prefix)) + [hi]:
        assert not 0 <= value_at(spec, n) < 2, (spec, n)


class TestExactWindow:
    def test_affine_grid(self):
        for spec in affine_grid():
            check_exact_window(spec)

    @given(affine_specs())
    @settings(deadline=None)
    def test_affine_specs(self, spec):
        check_exact_window(spec)


# both slope signs, down to 1/8192; a flat line starts near one end of [0, 2], so its run holds about 1024 values
MERGE_LINES = {
    "up": Affine(F(1, 3), F(1, 7)),
    "down": Affine(F(-1, 3), F(13, 7)),
    "flat up": Affine(F(1, 8192), F(15, 8)),
    "flat down": Affine(F(-1, 8192), F(1, 8)),
}
MERGE_POSITIONS = ["first", "last", "interior", "between", "under the run", "over the run",
                   "zero", "two", "below zero", "above two"]


def run_values(line: Affine, start: int) -> list[F]:
    """The line's values in [0, 2) at tail indices from ``start``, ascending: the walk's run."""
    spec = EnumerationSpec((F(0),) * start, line)
    window = range(start, spec.window[1] + 1)  # past the larger cut every value lies outside [0, 2]
    return sorted(v for v in (value_at(spec, n) for n in window) if 0 <= v < 2)


def merge_spec(line: Affine, where: str, kind: str) -> tuple[EnumerationSpec, list[F]]:
    """A spec whose prefix, constant or cycle value sits at ``where`` among the line's run values.

    A prefix value meets the run itself.  A periodic tail has no run, so its
    prefix holds the run's first, middle and last values in its place.
    Returns the spec and the values of its tail that may be breaks.
    """
    values = run_values(line, 1)
    mid = len(values) // 2
    v = {
        "first": values[0],
        "last": values[-1],
        "interior": values[mid],  # its jump adds to that index's
        "between": (values[mid] + values[mid + 1]) / 2,
        "under the run": values[0] / 2,
        "over the run": (values[-1] + 2) / 2,
        "zero": F(0),
        "two": F(2),
        "below zero": F(-1, 5),
        "above two": F(7, 3),
    }[where]
    anchors = (values[0], values[mid], values[-1])
    if kind == "prefix":
        return EnumerationSpec((v,), line), values
    if kind == "constant":
        return EnumerationSpec(anchors, Constant(v)), [v]
    return EnumerationSpec((*anchors, v), Cycle()), []


class TestLazyWalk:
    @pytest.mark.parametrize("kind", ["prefix", "constant", "cycle"])
    @pytest.mark.parametrize("where", MERGE_POSITIONS)
    @pytest.mark.parametrize("line", MERGE_LINES.values(), ids=MERGE_LINES.keys())
    def test_merge_edges(self, line, where, kind):
        spec, tail_values = merge_spec(line, where, kind)
        walk = walk_plateaus(spec)
        # one break per distinct enumerated value in [0, 2), merged from the top down
        breaks = {v for v in (*spec.prefix, *tail_values) if 0 <= v < 2}
        assert [lo for _, lo in walk[:-1]] == sorted(breaks, reverse=True)
        x0, _ = gfp_descend(spec)
        assert sup_postfix_oracle(spec) == x0 == subset_fixpoint_oracle(spec)
        assert x0 in {value for value, _ in walk}

    @pytest.mark.parametrize("where", ["first", "last", "interior", "between", "under the run", "over the run", "zero"])
    @pytest.mark.parametrize("line", MERGE_LINES.values(), ids=MERGE_LINES.keys())
    def test_a_prefix_value_on_the_run_joins_its_index(self, line, where):
        spec, values = merge_spec(line, where, "prefix")
        (pos, on_line, pair, _), = step_structure(spec).points
        assert on_line == (spec.prefix[0] in values)
        assert pos == sum(v < F(*pair) for v in values)

    @pytest.mark.parametrize("tail", [Affine(F(1, 8192), 0), Affine(F(-1, 8191), 2)], ids=["up", "down"])
    def test_compute_escape_at_the_tail_cut_peaks_under_a_megabyte(self, tail):
        # the down line's sweep decides all 16383 plateaus; a list of their jumps would take 19 MB
        spec = EnumerationSpec((), tail)
        assert MAX_TAIL_CUT - 1 <= spec.window[1] <= MAX_TAIL_CUT
        tracemalloc.start()
        try:
            compute_escape(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


small_values = st.fractions(min_value=-1, max_value=3, max_denominator=64)
# a spec of every tail kind, values near [0, 2] so that they land among the breaks
specs_of_every_kind = st.one_of(
    affine_specs(),
    st.builds(lambda p, c: EnumerationSpec(tuple(p), Constant(c)), st.lists(small_values, max_size=8), small_values),
    st.lists(small_values, min_size=1, max_size=8).map(lambda p: EnumerationSpec(tuple(p), Cycle())),
)


def check_plateau_pairs(spec: EnumerationSpec) -> None:
    """Each plateau value as ``StepStructure.fraction`` gives it: its value, with no two left in common."""
    steps = step_structure(spec)
    for t, _ in steps.plateaus():
        value = steps.fraction(t)
        assert value * steps.den == t and (value.numerator | value.denominator) & 1, (spec, t)


class TestPlateauPairs:
    @given(spec_indices)
    @settings(deadline=None)
    def test_corpus(self, index):
        check_plateau_pairs(corpus_spec(index))

    def test_affine_grid(self):
        for spec in affine_grid():
            check_plateau_pairs(spec)

    @given(specs_of_every_kind)
    @settings(deadline=None)
    def test_specs_of_every_kind(self, spec):
        check_plateau_pairs(spec)


def both_bounds(bound_maps, x) -> RatInterval:
    """The lower and upper bound maps of ``box_classifier`` at x, as one interval."""
    lower, upper = bound_maps
    return RatInterval(lower(x), upper(x))


def queried_bounds(oracle, n_known, eps, x) -> RatInterval:
    """Both bound maps at x over freshly queried boxes of indices 0, ..., n_known-1."""
    return both_bounds(box_classifier(tuple(query_boxes(oracle, n_known, eps))), x)


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
        def oracle(n, at_eps):
            return formula_box(spec, n, at_eps, jitter)

        bounds = queried_bounds(oracle, n_known, eps, x)
        assert bounds.lo <= weight_below(spec, x) <= bounds.hi
        boxes = [oracle(n, eps) for n in range(n_known)]
        certain = sum((dyadic_weight(n) for n, box in enumerate(boxes) if box.hi < x), F(0))
        undecided = sum(
            (dyadic_weight(n) for n, box in enumerate(boxes) if box.lo < x <= box.hi), F(0)
        )
        assert bounds.lo == certain
        assert bounds.hi - bounds.lo == undecided + F(2, 2**n_known)

    @pytest.mark.parametrize("ratio", [F(1, 3), F(1), F(3)], ids=["below half", "half", "above half"])
    @given(
        spec_indices,
        st.integers(min_value=1, max_value=12),
        st.sampled_from([F(1, 10), F(1, 128), F(1, 10**4)]),
        # x anywhere, or on an index's value, where a box skewed by eps/2 has an end
        st.one_of(unit_range, st.integers(min_value=0, max_value=11)),
    )
    @settings(deadline=None, max_examples=30)
    def test_sound_off_centre(self, ratio, index, n_known, eps, x):
        # every box skewed by jitter = ratio * eps/2, so that the one at eps/2 ends on its value
        spec = corpus_spec(index)
        x = value_at(spec, x) if type(x) is int else x
        def oracle(n, at_eps):
            return formula_box(spec, n, at_eps, at_eps / 2 * ratio)

        bounds = queried_bounds(oracle, n_known, eps, x)
        assert bounds.lo <= weight_below(spec, x) <= bounds.hi
        assert gfp_descend(spec)[0] in enclose_escape_traced(oracle, n_known, eps)[0]

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
        assert both_bounds(box_classifier([RatInterval(F(1, 4), F(1))]), x) == RatInterval(*expected)

    @given(boxes_and_x())
    def test_matches_a_three_way_fraction_classification(self, case):
        boxes, x = case
        assert both_bounds(box_classifier(boxes), x) == reference_bounds(boxes, x)

    @given(boxes_and_x(), st.lists(box_ends, max_size=6))
    def test_one_classifier_serves_every_x(self, case, more):
        boxes, x = case
        bounds = box_classifier(boxes)
        for z in [x, *more, x]:
            assert both_bounds(bounds, z) == reference_bounds(boxes, z)

    @given(repeated_boxes_and_x(), st.lists(box_ends, max_size=4))
    def test_repeated_boxes_match_the_per_index_reference(self, case, more):
        boxes, x = case
        bounds = box_classifier(boxes)
        for z in [x, *more]:
            assert both_bounds(bounds, z) == reference_bounds(boxes, z)

    @pytest.mark.parametrize("x", [F(-1), F(0), F(1), F(3)])
    def test_no_boxes_bound_the_map_by_0_and_2(self, x):
        # with top = 0 every index is unqueried, 2^(1 - 0) in all
        assert both_bounds(box_classifier(()), x) == RatInterval(F(0), F(2))

    def test_rejects_float_x(self):
        for bound in box_classifier([RatInterval(0, 1)]):
            with pytest.raises(TypeError):
                bound(0.5)

    def test_rows_take_memory_linear_in_the_box_count(self):
        # a weight 2^(top - n) kept per row would hold about top^2 / 16 bytes: 16 MB here
        top = 1 << 14
        boxes = tuple(query_boxes(intervalize(EnumerationSpec((), Constant(F(1, 3)))), top, F(1, 128)))
        tracemalloc.start()
        try:
            assert both_bounds(box_classifier(boxes), F(1)) == RatInterval(2 - F(2, 1 << top), 2)
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
            assert both_bounds(box_classifier(boxes), F(1)) == RatInterval(2 - F(2, 1 << top), 2)
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
            assert both_bounds(box_classifier(boxes), F(1, 2)) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestWidthContract:
    NARROW, WIDE = RatInterval(0, F(1, 100)), RatInterval(0, 1)

    def test_a_shared_box_too_wide_is_refused_at_its_first_index(self):
        boxes = query_boxes(lambda n, eps: self.NARROW if n < 3 else self.WIDE, 8, F(1, 10))
        assert [next(boxes) for _ in range(3)] == [self.NARROW] * 3
        with pytest.raises(ValueError) as refused:
            next(boxes)
        assert str(refused.value) == "interval oracle broke its width contract at n=3: [0, 1]"

    def test_a_box_past_the_int_digit_limit_is_refused_for_its_width(self):
        # under the interpreter's default limit, str() of a 5000-digit end raises
        # before the refusal could quote it, so the ends go through format_rational
        huge = F(10**5000 + 1, 10**5000)
        boxes = query_boxes(lambda n, eps: RatInterval(0, huge), 1, F(1, 10))
        with pytest.raises(ValueError, match="broke its width contract at n=0") as refused:
            next(boxes)
        assert str(refused.value).endswith(f": [0, {format_rational(huge)}]")

    def test_a_fresh_box_too_wide_at_a_late_index_is_refused(self):
        def oracle(n, eps):
            return RatInterval(0, 1 if n == 200 else F(1, 100))

        with pytest.raises(ValueError, match="broke its width contract at n=200"):
            list(query_boxes(oracle, 256, F(1, 10)))
        with pytest.raises(ValueError, match="broke its width contract at n=200"):
            enclose_escape_traced(oracle, 256, F(1, 10))

    @pytest.mark.parametrize("excess, accepted", [(F(0), True), (F(1, 10**30), False)])
    def test_width_contract_at_its_edge(self, excess, accepted):
        eps, lo = F(1, 7), F(-1, 3)

        def oracle(n, at_eps):
            return RatInterval(lo, lo + at_eps + (excess if n == 4 else 0))

        if accepted:
            assert [box.width for box in query_boxes(oracle, 5, eps)] == [eps] * 5
        else:
            with pytest.raises(ValueError, match="broke its width contract at n=4"):
                list(query_boxes(oracle, 5, eps))

    @pytest.mark.parametrize("eps", [0, F(0), F(-1, 10**30), -1])
    def test_nonpositive_eps_is_refused_before_any_query(self, eps):
        asked = []
        with pytest.raises(ValueError, match="eps must be positive"):
            query_boxes(lambda n, at_eps: asked.append(n) or self.NARROW, 4, eps)
        assert asked == []

    def test_the_enclosure_asks_the_oracle_for_each_index_once_in_order(self):
        asked, blurred = [], intervalize(EnumerationSpec((F(1, 2),), Cycle()))
        enclose_escape_traced(lambda n, eps: asked.append(n) or blurred(n, eps), 16, F(1, 128))
        assert asked == list(range(16))
