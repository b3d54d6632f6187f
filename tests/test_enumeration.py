import dataclasses
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, formula_box, random_spec
from escapepoint import enumeration
from escapepoint.numerics import MAX_EXACT_EXPONENT, ExponentBoundError
from escapepoint import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    SpecError,
    dyadic_weight,
    eligible_prefix_indices,
    intervalize,
    spec_from_jsonable,
    spec_to_jsonable,
    tail_hits,
    tail_weight_sum,
    value_at,
)
from test_fixpoint import memory_cap
from test_golden import affine_grid

spec_indices = st.integers(min_value=0, max_value=2999)
rationals = st.fractions(max_denominator=1000)
# negative values, and values exactly at the ends 0 and 2 of the map's domain
edge_rationals = st.one_of(st.sampled_from([F(0), F(2), F(-2), F(1, 3)]), rationals)
AFFINE_GRID = tuple(affine_grid())


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


class TestConstruction:
    def test_prefix_coerced_to_fractions(self):
        spec = EnumerationSpec(prefix=(1, F(1, 2)), tail=Constant(0))
        assert spec.prefix == (F(1), F(1, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            EnumerationSpec(prefix=(0.5,), tail=Constant(0))
        with pytest.raises(TypeError):
            EnumerationSpec(prefix=(), tail=Constant(0.5))

    def test_zero_slope_normalizes_to_constant(self):
        spec = EnumerationSpec(prefix=(), tail=Affine(0, F(7, 3)))
        assert spec.tail == Constant(F(7, 3))

    def test_cycle_needs_prefix(self):
        with pytest.raises(SpecError):
            EnumerationSpec(prefix=(), tail=Cycle())

    def test_unknown_tail_rejected(self):
        with pytest.raises(SpecError):
            EnumerationSpec(prefix=(), tail="constant")

    def test_prefix_pairs_are_reduced_and_stored(self):
        spec = EnumerationSpec(prefix=(2, F(2, 4), F(-6, 3)), tail=Cycle())
        assert spec.prefix_pairs == ((2, 1), (1, 2), (-2, 1))
        assert "prefix_pairs" not in repr(spec)
        same = EnumerationSpec(prefix=(F(4, 2), F(1, 2), -2), tail=Cycle())
        assert same == spec and hash(same) == hash(spec)
        # a parsed spec keeps only the pairs, and builds its Fractions on first read
        parsed = spec_from_jsonable({"prefix": ["4/2", "2/4", "-2"], "tail": {"kind": "cycle"}})
        assert "prefix" not in vars(parsed) and parsed == spec and hash(parsed) == hash(spec)
        assert parsed.prefix == spec.prefix and "prefix" in vars(parsed) and repr(parsed) == repr(spec)
        shorter = dataclasses.replace(spec, prefix=spec.prefix[:1])
        assert shorter.prefix_pairs == ((2, 1),)

    def test_block_pairs_spell_the_periodic_tail(self):
        prefix = (F(2, 4), 3)
        assert EnumerationSpec(prefix, Constant(F(-6, 4))).block_pairs == ((-3, 2),)
        cycle = EnumerationSpec(prefix, Cycle())
        assert cycle.block_pairs == cycle.prefix_pairs == ((1, 2), (3, 1))
        assert "block_pairs" not in repr(cycle)
        assert EnumerationSpec(prefix, Affine(1, 0)).block_pairs == ()
        assert EnumerationSpec(prefix, Affine(0, 5)).block_pairs == ((5, 1),)  # a constant tail


class TestValueAt:
    def test_prefix_then_tail(self):
        spec = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))
        assert [value_at(spec, n) for n in range(5)] == [F(3, 2), F(1, 8), 2, 2, 2]

    def test_affine(self):
        spec = EnumerationSpec(prefix=(F(9),), tail=Affine(F(-1, 2), 3))
        assert value_at(spec, 0) == 9
        assert value_at(spec, 4) == 1

    @given(spec_indices, st.integers(min_value=0, max_value=200))
    def test_cycle_is_periodic(self, index, n):
        spec = corpus_spec(index)
        if isinstance(spec.tail, Cycle):
            assert value_at(spec, n) == value_at(spec, n + len(spec.prefix))

    def test_rejects_bad_index(self):
        spec = EnumerationSpec(prefix=(), tail=Constant(0))
        with pytest.raises(ValueError):
            value_at(spec, -1)
        with pytest.raises(ValueError):
            value_at(spec, F(1, 2))

    @pytest.mark.parametrize("index", [True, False])
    def test_rejects_a_bool_index(self, index):
        spec = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))
        with pytest.raises(ValueError, match="natural number"):
            value_at(spec, index)


class TestEligibility:
    def test_strict_inequality(self):
        spec = EnumerationSpec(prefix=(F(1), F(2), F(0)), tail=Constant(5))
        assert eligible_prefix_indices(spec, F(1)) == {2}
        assert eligible_prefix_indices(spec, F(3)) == {0, 1, 2}

    @given(spec_indices, rationals, rationals)
    def test_monotone_in_x(self, index, x, y):
        spec = corpus_spec(index)
        if x > y:
            x, y = y, x
        assert eligible_prefix_indices(spec, x) <= eligible_prefix_indices(spec, y)

    @given(st.lists(edge_rationals, max_size=16), st.one_of(edge_rationals, st.integers(-3, 3)))
    @example([F(0), F(2), F(0), F(-1, 3)], F(0))
    @example([F(2), F(0), F(2)], F(2))
    def test_matches_fraction_order(self, values, x):
        # every third value repeated, so duplicates are always in play
        prefix = tuple(values + values[::3])
        spec = EnumerationSpec(prefix=prefix, tail=Constant(0))
        assert eligible_prefix_indices(spec, x) == {n for n, v in enumerate(prefix) if v < x}


class TestAscendingPairs:
    @given(st.sets(edge_rationals, max_size=24))
    def test_matches_fraction_order(self, values):
        pairs = [(v.numerator, v.denominator) for v in values]
        assert enumeration._ascending(pairs) == [(v.numerator, v.denominator) for v in sorted(values)]

    def test_many_large_denominators_keep_their_order(self):
        rng = random.Random(3)
        values = {F(rng.getrandbits(4096) - (1 << 4095), rng.getrandbits(4096) | 1) for _ in range(64)}
        pairs = [(v.numerator, v.denominator) for v in values]
        assert enumeration._ascending(pairs) == [(v.numerator, v.denominator) for v in sorted(values)]

    @given(st.lists(st.tuples(
        # a denominator up to 1000, or past 4300 digits, and a value p/q near t in [-3, 3]
        st.one_of(st.integers(min_value=1, max_value=1000),
                  st.integers(min_value=10**4300, max_value=10**4300 + 2**64)),
        st.fractions(min_value=-3, max_value=3, max_denominator=64),
        st.integers(min_value=-2**64, max_value=2**64),
        st.integers(min_value=1, max_value=4),
    ), max_size=8))
    def test_integer_keys_sort_like_fractions(self, draws):
        # each draw adds p/q, an unreduced spelling kp/kq of it, and its neighbours (p +/- 1)/q and p/(q + 1)
        pairs = []
        for q, t, offset, k in draws:
            p = t.numerator * q // t.denominator + offset
            pairs += [(p, q), (k * p, k * q), (p + 1, q), (p - 1, q), (p, q + 1)]
        assert enumeration._ascending(pairs) == sorted(pairs, key=lambda pair: F(*pair))


class TestAffineCut:
    @given(
        st.fractions(min_value=-64, max_value=64, max_denominator=64).filter(bool),
        st.fractions(min_value=-100, max_value=100, max_denominator=100),
        st.integers(min_value=0, max_value=6),
        rationals,
        # an index whose tail value becomes x, so that x lies exactly on the line
        st.one_of(st.none(), st.integers(min_value=-50, max_value=300)),
    )
    @example(F(-1, 3), F(-2), 0, F(-7), None)
    @example(F(1, 3), F(-2), 0, F(-1), 3)
    def test_matches_the_fraction_formula(self, a, b, length, x, on_line):
        if on_line is not None:
            x = a * on_line + b
        spec = EnumerationSpec((F(0),) * length, Affine(a, b))
        boundary = (x - b) / a
        cut = math.ceil(boundary) if a > 0 else math.floor(boundary) + 1
        assert enumeration._cut(spec, x.numerator, x.denominator) == max(length, cut)

    def test_line_holds_the_rule_and_is_not_compared(self):
        tail = Affine(F(3, 4), F(-5, 6))
        assert tail.line == (9, -10, 12)
        assert "line" not in repr(tail)
        assert tail == Affine(F(6, 8), F(-10, 12))
        assert dataclasses.replace(tail, b=F(1, 8)).line == (6, 1, 8)


class TestTailWeightSum:
    @given(spec_indices, rationals)
    @settings(deadline=None)
    # cuts near 10^10 and 10^11, past MAX_EXACT_EXPONENT: refused before 2^cut is built
    @example(566, F(5620175149))
    @example(2000, F(-11060971072))
    def test_matches_truncated_series(self, index, x):
        spec = corpus_spec(index)
        if isinstance(spec.tail, Affine) and (
            enumeration._cut(spec, x.numerator, x.denominator) > MAX_EXACT_EXPONENT
        ):
            with memory_cap(), pytest.raises(ExponentBoundError, match="past the bound"):
                tail_weight_sum(spec, x)
            return
        start = len(spec.prefix)
        closed = tail_weight_sum(spec, x)
        window = range(start, start + 70)
        brute = sum((dyadic_weight(n) for n in window if value_at(spec, n) < x), F(0))
        # closed form counts the whole tail; the brute window misses at most
        # the weight beyond it
        assert brute <= closed <= brute + F(2, 2**window.stop)

    def test_constant_all_or_nothing(self):
        spec = EnumerationSpec(prefix=(F(1),), tail=Constant(F(1, 2)))
        assert tail_weight_sum(spec, F(1, 2)) == 0
        assert tail_weight_sum(spec, F(5, 8)) == 1  # 2^(1-1)

    def test_affine_boundary_is_strict(self):
        # f(n) = n for n >= 0: at x = 3 exactly the indices 0, 1, 2 are below
        spec = EnumerationSpec(prefix=(), tail=Affine(1, 0))
        assert tail_weight_sum(spec, 3) == F(7, 4)
        assert tail_weight_sum(spec, F(5, 2)) == F(7, 4)

    def test_negative_slope_boundary_is_strict(self):
        # f(n) = -n: at x = -3 the indices n >= 4 are below, just above it n >= 3
        spec = EnumerationSpec(prefix=(), tail=Affine(-1, 0))
        assert tail_weight_sum(spec, -3) == F(1, 8)
        assert tail_weight_sum(spec, F(-5, 2)) == F(1, 4)

    def test_cut_clamped_at_prefix_length(self):
        # both lines cross x = 1 inside the prefix (L = 2), so the tail lies
        # wholly on one side of it
        rising = EnumerationSpec(prefix=(F(5), F(5)), tail=Affine(1, 0))
        assert tail_weight_sum(rising, 1) == 0
        falling = EnumerationSpec(prefix=(F(5), F(5)), tail=Affine(-1, 1))
        assert tail_weight_sum(falling, 1) == F(1, 2)


class TestTailHits:
    @given(spec_indices, st.integers(min_value=0, max_value=80))
    def test_every_tail_value_hits(self, index, offset):
        spec = corpus_spec(index)
        n = len(spec.prefix) + offset
        assert tail_hits(spec, value_at(spec, n))

    def test_affine_misses_non_lattice_points(self):
        spec = EnumerationSpec(prefix=(), tail=Affine(2, 0))  # even naturals
        assert tail_hits(spec, 4)
        assert not tail_hits(spec, 3)
        assert not tail_hits(spec, F(1, 2))
        assert not tail_hits(spec, -2)  # index would be negative

    @given(
        st.fractions(min_value=-64, max_value=64, max_denominator=64).filter(bool),
        st.fractions(min_value=-100, max_value=100, max_denominator=100),
        st.integers(min_value=0, max_value=6),
        rationals,
        # an index whose line value becomes v: below, at or past the prefix length
        st.one_of(st.none(), st.integers(min_value=-50, max_value=300)),
    )
    @example(F(-1, 3), F(2), 3, F(0), 2)  # falling line, on it one index before the tail
    @example(F(1, 3), F(-2), 3, F(0), 2)  # rising line, the same
    @example(F(-1, 3), F(2), 3, F(0), 3)  # falling line, the first tail index
    def test_affine_matches_the_fraction_formula(self, a, b, length, v, on_line):
        if on_line is not None:
            v = a * on_line + b
        spec = EnumerationSpec((F(1000),) * length, Affine(a, b))
        n = (v - b) / a
        assert tail_hits(spec, v) == (n.denominator == 1 and n >= length)

    @given(st.one_of(spec_indices.map(corpus_spec), st.sampled_from(AFFINE_GRID)), edge_rationals,
           st.integers(min_value=0, max_value=80))
    @settings(deadline=None)
    def test_each_tail_place_holds_its_pair(self, spec, x, offset):
        length, period = len(spec.prefix), len(spec.block_pairs)
        here, after = value_at(spec, length + offset), value_at(spec, length + offset + 1)
        for x in (x, here, (here + after) / 2):  # a tail value, and a tie between two neighbours
            places = enumeration._tail_places(spec, x.numerator, x.denominator)
            for (p, q), (_, n) in places.items():
                assert n >= length and value_at(spec, n) == F(p, q) and q > 0 and math.gcd(p, q) == 1
            values = [F(p, q) for p, q in places]
            if not period:
                [(where, n)] = places.values()
                gap = abs(values[0] - x)
                # the closest approach, a tie going to the value below
                for m in (n - 1, n + 1):
                    if m >= length:
                        other = abs(value_at(spec, m) - x)
                        assert other > gap or (other == gap and values[0] < x)
                assert where == n
            else:
                assert values == sorted({value_at(spec, n) for n in range(length, length + period)})
                assert {where for where, _ in places.values()} == {"tail"}

    def test_cycle_hits_only_prefix_values(self):
        spec = EnumerationSpec(prefix=(F(0), F(1)), tail=Cycle())
        assert tail_hits(spec, 0) and tail_hits(spec, 1)
        assert not tail_hits(spec, F(1, 2))


class TestIntervalize:
    @given(
        spec_indices,
        st.integers(min_value=0, max_value=30),
        st.fractions(min_value="1/10000", max_value=2, max_denominator=10**6),
    )
    @settings(deadline=None)
    def test_contains_truth_and_meets_width(self, index, n, eps):
        spec = corpus_spec(index)
        box = intervalize(spec)(n, eps)
        assert value_at(spec, n) in box
        assert box.width <= eps

    @given(
        spec_indices,
        st.integers(min_value=0, max_value=30),
        st.fractions(min_value="1/1000", max_value=2, max_denominator=10**6),
    )
    @settings(deadline=None)
    def test_nested_as_eps_shrinks(self, index, n, eps):
        oracle = intervalize(corpus_spec(index))
        assert oracle(n, eps).encloses(oracle(n, eps / 3))

    @pytest.mark.parametrize("tail", [Constant(F(-3, 7)), Cycle(), Affine(F(2, 3), F(-1, 5))],
                             ids=["constant", "cycle", "affine"])
    def test_boxes_are_centred_at_both_parities(self, tail):
        spec = EnumerationSpec((F(1, 3), F(5, 2)), tail)
        oracle = intervalize(spec)
        for n in range(8):
            box = oracle(n, F(1, 100))
            assert box.lo + box.hi == 2 * value_at(spec, n) and box.width == F(1, 100)

    def test_deterministic(self):
        oracle = intervalize(corpus_spec(5))
        assert oracle(3, F(1, 10)) == oracle(3, F(1, 10))

    @pytest.mark.parametrize("spec", [
        EnumerationSpec((), Constant(F(-3, 7))),
        EnumerationSpec((), Affine(F(2, 3), F(-1, 5))),
        EnumerationSpec((F(1, 3), F(5, 2)), Constant(F(-3, 7))),
        EnumerationSpec((F(1, 3), F(5, 2)), Cycle()),
        EnumerationSpec((F(1, 3), F(5, 2)), Affine(F(2, 3), F(-1, 5))),
    ], ids=["constant", "affine", "prefix and constant", "cycle", "prefix and affine"])
    def test_a_negative_index_is_refused(self, spec):
        # a slot list would wrap: index -1 would answer with f(L + P - 1)'s box
        oracle = intervalize(spec)
        for n in (-1, -2, -3):
            with pytest.raises(ValueError) as err:
                oracle(n, F(1, 100))
            assert str(err.value) == f"enumeration index must be a natural number, got {n}"
        assert oracle(0, F(1, 100)).width == F(1, 100)

    @pytest.mark.parametrize("spec", [
        EnumerationSpec((F(1, 3),), Constant(F(-3, 7))),
        EnumerationSpec((F(1, 3), F(5, 2)), Cycle()),
        EnumerationSpec((F(1, 3),), Affine(F(2, 3), F(-1, 5))),
    ], ids=["constant", "cycle", "affine"])
    @pytest.mark.parametrize("n", [True, False, 1.0, F(1), -1], ids=repr)
    def test_an_index_value_at_refuses_is_refused_alike(self, spec, n):
        # a bool would answer as 0 or 1, and a float or Fraction fail on the slot list
        oracle = intervalize(spec)
        for ask in (lambda: value_at(spec, n), lambda: oracle(n, F(1, 100))):
            with pytest.raises(ValueError) as err:
                ask()
            assert str(err.value) == f"enumeration index must be a natural number, got {n!r}"
        oracle(1, F(1, 100))  # a kept box answers a plain int after the refusal too
        with pytest.raises(ValueError, match="natural number"):
            oracle(n, F(1, 100))

    def test_a_float_eps_is_refused_as_inexact(self):
        oracle = intervalize(corpus_spec(5))
        message = "eps must be an exact rational (Fraction or int), got 0.5"
        with pytest.raises(TypeError, match=re.escape(message)):
            oracle(0, 0.5)
        oracle(0, F(1, 2))
        with pytest.raises(TypeError, match=re.escape(message)):
            oracle(0, 0.5)  # equal to the eps last asked, but not exact
        assert oracle(0, 1) == oracle(0, F(1))  # an int is exact

    def test_eps_at_the_exponent_bound_is_exact(self):
        # the finest eps a tail weight can be: a 2^MAX_EXACT_EXPONENT denominator
        eps = dyadic_weight(MAX_EXACT_EXPONENT)
        spec = corpus_spec(0)
        for n in (0, len(spec.prefix) + 1):
            box = intervalize(spec)(n, eps)
            assert box.width == eps
            assert box.lo < value_at(spec, n) < box.hi


@st.composite
def blurred_specs(draw):
    """Specs with negative values and every tail kind, affine ones included."""
    values = st.fractions(min_value=-4, max_value=4, max_denominator=1000)
    prefix = tuple(draw(st.lists(values, min_size=1, max_size=6)))
    slope = values.filter(bool)
    tail = draw(st.one_of(
        st.builds(Constant, values), st.just(Cycle()), st.builds(Affine, slope, values),
    ))
    return EnumerationSpec(prefix, tail)


class TestIntervalizeEndpoints:
    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    @settings(deadline=None, max_examples=50)
    def test_matches_the_centred_formula(self, parity, data):
        spec = data.draw(blurred_specs())
        n = 2 * data.draw(st.integers(min_value=0, max_value=20)) + parity
        eps = data.draw(st.fractions(min_value=F(1, 10**6), max_value=4, max_denominator=10**6))
        assert intervalize(spec)(n, eps) == formula_box(spec, n, eps, F(0))


class TestKeptBoxes:
    @given(
        st.one_of(spec_indices.map(corpus_spec), blurred_specs()),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=20),
    )
    @settings(deadline=None)
    def test_one_oracle_answers_as_fresh_ones(self, spec, indices):
        oracle = intervalize(spec)
        for eps in (F(1, 128), F(1, 10**6), F(1, 128)):
            for n in indices:
                assert oracle(n, eps) == formula_box(spec, n, eps, F(0))

    @pytest.mark.parametrize("spec", [
        EnumerationSpec((F(1, 3), F(5, 2)), Constant(F(1, 3))),
        EnumerationSpec((F(1, 3), F(5, 2), F(-1, 7)), Cycle()),
        EnumerationSpec((F(2),) * 5, Cycle()),
    ], ids=["constant P=1", "cycle P=3", "cycle P=5 of one value"])
    def test_a_period_repeats_its_boxes_every_lap(self, spec):
        oracle = intervalize(spec)
        start, period, eps = len(spec.prefix), len(spec.block_pairs), F(1, 128)
        for i in range(2 * period):
            first = oracle(start + i, eps)
            assert first == formula_box(spec, start + i, eps, F(0))
            assert oracle(start + i + period, eps) == first
            assert oracle(start + i + 6 * period, eps) == first

    def test_affine_tail_boxes_are_not_kept(self):
        spec = EnumerationSpec((F(1, 2),), Affine(F(1, 3), F(-7, 5)))
        oracle = intervalize(spec)
        eps = F(1, 128)
        oracle(0, eps)  # a prefix box, kept
        tracemalloc.start()
        try:
            for n in range(1, 10**4 + 1):
                oracle(n, eps)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024  # 10^4 kept boxes would hold megabytes


class TestJsonFormat:
    def test_round_trip_corpus(self):
        for spec in build_corpus(120):
            text = json.dumps(spec_to_jsonable(spec), sort_keys=True)
            assert spec_from_jsonable(json.loads(text)) == spec

    def test_examples(self):
        obj = {"prefix": ["3/2", "1/8"], "tail": {"kind": "constant", "value": "2"}}
        spec = spec_from_jsonable(obj)
        assert spec == EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))
        assert spec_to_jsonable(spec) == obj

    @pytest.mark.parametrize("obj, fragment", [
        ([], "spec"),
        ({"prefix": []}, "missing keys"),
        ({"prefix": [], "tail": {"kind": "cycle"}, "note": 1}, "unexpected keys"),
        ({"prefix": "1", "tail": {"kind": "cycle"}}, "prefix"),
        ({"prefix": [1], "tail": {"kind": "constant", "value": "1"}}, "prefix[0]"),
        ({"prefix": ["0.5"], "tail": {"kind": "constant", "value": "1"}}, "prefix[0]"),
        ({"prefix": ["1/0"], "tail": {"kind": "constant", "value": "1"}}, "zero denominator"),
        ({"prefix": [], "tail": {"kind": "constant"}}, "missing keys"),
        ({"prefix": [], "tail": {"kind": "constant", "value": "1", "b": "2"}}, "unexpected keys"),
        ({"prefix": [], "tail": {"kind": "geometric"}}, "unknown tail kind"),
        ({"prefix": [], "tail": {"kind": "affine", "a": "1"}}, "missing keys"),
        ({"prefix": [], "tail": {"kind": "affine", "a": "1", "b": "x"}}, "tail.b"),
        ({"prefix": [], "tail": {"kind": "cycle"}}, "nonempty prefix"),
        ({"prefix": [], "tail": "cycle"}, "tail"),
    ])
    def test_malformed_documents_carry_position(self, obj, fragment):
        with pytest.raises(SpecError) as err:
            spec_from_jsonable(obj)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("prefix, tail, message", [
        (["1", "2", 3], {"kind": "cycle"}, "prefix[2]: expected a rational string 'p/q', got 3"),
        (["1", "0.5"], {"kind": "cycle"}, "prefix[1]: not an exact rational (expected 'p/q' or 'p'): '0.5'"),
        (["1", "-1/0"], {"kind": "cycle"}, "prefix[1]: zero denominator in '-1/0'"),
        ([], {"kind": "constant", "value": None}, "tail.value: expected a rational string 'p/q', got None"),
        ([], {"kind": "affine", "a": "1", "b": "1.5"}, "tail.b: not an exact rational (expected 'p/q' or 'p'): '1.5'"),
    ])
    def test_a_refused_value_is_named_in_full(self, prefix, tail, message):
        with pytest.raises(SpecError) as err:
            spec_from_jsonable({"prefix": prefix, "tail": tail})
        assert str(err.value) == message

    def test_a_spec_keeps_fractions_and_coerces_ints_by_position(self):
        half = F(1, 2)
        spec = EnumerationSpec((half, 2), Cycle())
        assert spec.prefix == (half, F(2)) and spec.prefix[0] is half and type(spec.prefix[1]) is F
        with pytest.raises(TypeError) as err:
            EnumerationSpec((half, 2, 0.5), Cycle())
        assert str(err.value) == "prefix[2] must be an exact rational (Fraction or int), got 0.5"

    def test_zero_slope_survives_round_trip(self):
        # Affine(0, b) normalizes to Constant(b) and serializes as such
        spec = EnumerationSpec(prefix=(), tail=Affine(0, 3))
        assert spec_to_jsonable(spec)["tail"]["kind"] == "constant"
