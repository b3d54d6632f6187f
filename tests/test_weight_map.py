import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_corpus, random_spec
from escapepoint import (
    Affine,
    Constant,
    EnumerationSpec,
    WeightBounds,
    dyadic_weight,
    enclose_escape_traced,
    intervalize,
    plateau_profile,
    value_at,
    weight_below,
    weight_below_bounds,
)
from escapepoint.enumeration import affine_cut

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


class TestPlateauProfile:
    def test_base_is_value_at_zero(self):
        for spec in build_corpus(60):
            base, _ = plateau_profile(spec)
            assert base == weight_below(spec, F(0))

    def test_breaks_sorted_with_positive_jumps(self):
        for spec in build_corpus(60):
            _, breaks = plateau_profile(spec)
            ats = [at for at, _ in breaks]
            assert ats == sorted(set(ats))
            assert all(0 <= at <= 2 for at in ats)
            assert all(jump > 0 for _, jump in breaks)

    def test_reconstructs_the_map(self):
        # the step structure must reproduce weight_below across [0, 2],
        # including exactly at the breakpoints (strict eligibility)
        for spec in build_corpus(60, seed=4):
            base, breaks = plateau_profile(spec)
            probes = {F(0), F(2), F(1, 3)}
            for at, _ in breaks:
                probes.update({at, min(F(2), at + F(1, 10**6))})
            for x in probes:
                rebuilt = base + sum((j for at, j in breaks if at < x), F(0))
                assert rebuilt == weight_below(spec, x), (spec, x)

    def test_affine_break_count_tracks_slope(self):
        spec = EnumerationSpec(prefix=(), tail=Affine(F(1, 16), 0))
        _, breaks = plateau_profile(spec)
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
        assert plateau_profile(spec) == (weight_below(spec, F(0)), tuple(sorted(jumps.items())))

    def test_negative_slope_lands_on_both_ends(self):
        # f(n) = 2 - n/4 takes the value 2 at n = 0 and 0 at n = 8
        spec = EnumerationSpec(prefix=(), tail=Affine(F(-1, 4), 2))
        base, breaks = plateau_profile(spec)
        assert [at for at, _ in breaks] == [F(k, 4) for k in range(9)]
        for x in [F(k, 8) for k in range(17)]:
            rebuilt = base + sum((j for at, j in breaks if at < x), F(0))
            assert rebuilt == weight_below(spec, x), x


class TestWeightBelowBounds:
    def test_hand_case(self):
        bounds = weight_below_bounds(intervalize(SPEC2), 2, F(1, 100), F(1))
        assert bounds.lower == F(1, 2)
        assert bounds.upper == F(1)
        assert bounds.certain == frozenset({1})
        assert bounds.undecided == frozenset()
        assert bounds.tail_allowance == F(1, 2)

    @pytest.mark.parametrize("n_known", [0, True])
    def test_rejects_zero_n_known(self, n_known):
        with pytest.raises(ValueError, match="n_known must be a positive integer"):
            weight_below_bounds(intervalize(SPEC2), n_known, F(1, 100), F(1))
        with pytest.raises(ValueError, match="n_known must be a positive integer"):
            enclose_escape_traced(intervalize(SPEC2), n_known, F(1, 100))

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            WeightBounds(F(1), F(0), frozenset(), frozenset(), F(0))

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
        bounds = weight_below_bounds(intervalize(spec, jitter), n_known, eps, x)
        assert bounds.lower <= weight_below(spec, x) <= bounds.upper
        undecided_weight = sum((dyadic_weight(n) for n in bounds.undecided), F(0))
        assert bounds.upper - bounds.lower == undecided_weight + bounds.tail_allowance

    @given(spec_indices, st.integers(min_value=1, max_value=10), unit_range)
    @settings(deadline=None, max_examples=60)
    def test_narrows_with_more_knowledge(self, index, n_known, x):
        oracle = intervalize(corpus_spec(index))
        wide = weight_below_bounds(oracle, n_known, F(1, 10), x)
        fine_eps = weight_below_bounds(oracle, n_known, F(1, 100), x)
        fine_n = weight_below_bounds(oracle, n_known + 1, F(1, 10), x)
        for tighter in (fine_eps, fine_n):
            assert wide.lower <= tighter.lower
            assert tighter.upper <= wide.upper
