import dataclasses
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from escapepoint.numerics import MAX_EXACT_EXPONENT, ExponentBoundError
from escapepoint import (
    RatInterval,
    dyadic_tail_weight,
    dyadic_weight,
    format_rational,
    parse_rational,
)
from test_fixpoint import memory_cap

rationals = st.fractions(max_denominator=10**6)


class TestParseFormat:
    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_integer_renders_bare(self):
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-3)) == "-3"

    @pytest.mark.parametrize("value, text", [
        (F(10**5000 + 7), "1" + "0" * 4999 + "7"),
        (F(-(10**5000 + 7), 3), "-1" + "0" * 4999 + "7/3"),
        (F(1, 10**5000), "1/1" + "0" * 5000),
    ], ids=["integer", "negative numerator", "denominator"])
    def test_renders_past_the_int_digit_limit(self, value, text):
        # 5001 digits, past the interpreter's default limit of 4300 where it has one
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert format_rational(value) == text
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_normalizes(self):
        assert parse_rational("2/4") == F(1, 2)
        assert format_rational(parse_rational("2/4")) == "1/2"

    def test_leading_zeros_and_negative_zero(self):
        assert parse_rational("007") == 7
        assert parse_rational("-0") == 0

    @pytest.mark.parametrize("bad", [
        "0.5", "1e3", " 1", "1 ", "1 /2", "1/-2", "", "+5", "3.", "--1", "1//2", "nan",
        "\u0663/\u0664",  # Arabic-Indic digits: int() reads them, the format is ASCII
    ])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            parse_rational(0.5)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


class TestWeights:
    def test_dyadic_ladder(self):
        assert [dyadic_weight(n) for n in range(4)] == [1, F(1, 2), F(1, 4), F(1, 8)]

    @pytest.mark.parametrize("bad", [-1, F(1, 2), 1.0, None])
    def test_dyadic_weight_rejects(self, bad):
        with pytest.raises(ValueError):
            dyadic_weight(bad)

    def test_tail_weight_is_whole_series_at_zero(self):
        assert dyadic_tail_weight(0) == 2
        assert dyadic_tail_weight(3) == F(1, 4)

    @given(st.integers(min_value=0, max_value=60))
    def test_tail_weight_telescopes(self, start):
        window = sum(map(dyadic_weight, range(start, start + 40)), F(0))
        assert dyadic_tail_weight(start) - window == dyadic_tail_weight(start + 40)

    @pytest.mark.parametrize("index", [True, False])
    @pytest.mark.parametrize("weigh", [dyadic_weight, dyadic_tail_weight], ids=lambda f: f.__name__)
    def test_rejects_a_bool_index(self, weigh, index):
        with pytest.raises(ValueError, match="natural number"):
            weigh(index)

    @pytest.mark.parametrize("index", [-1, 1.5], ids=["negative", "float"])
    @pytest.mark.parametrize("weigh", [dyadic_weight, dyadic_tail_weight], ids=lambda f: f.__name__)
    def test_rejects_a_non_natural_index(self, weigh, index):
        with pytest.raises(ValueError, match="natural number"):
            weigh(index)


class TestTailWeightBound:
    def test_weight_at_the_bound_is_built(self):
        assert dyadic_tail_weight(MAX_EXACT_EXPONENT) == F(2, 2**MAX_EXACT_EXPONENT)

    # 2^(10^10) would take over a gigabyte: under the cap a missing bound fails with MemoryError
    @pytest.mark.parametrize("start", [MAX_EXACT_EXPONENT + 1, MAX_EXACT_EXPONENT + 2, 10**10, 10**10 + 1])
    def test_weight_past_the_bound_is_refused(self, start):
        with memory_cap(), pytest.raises(ExponentBoundError, match=f"index {start} is past the bound"):
            dyadic_tail_weight(start)


class TestRatInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            RatInterval(F(1), F(0))

    @pytest.mark.parametrize("lo, hi", [
        (F(1, 3) + F(1, 10**30), F(1, 3)),
        (F(-1, 3), F(-1, 2)),
        (F(2, 3), 0),
    ])
    def test_refuses_lo_above_hi_by_any_margin(self, lo, hi):
        with pytest.raises(ValueError, match="empty interval"):
            RatInterval(lo, hi)

    @given(rationals, rationals)
    def test_accepts_exactly_the_ordered_pairs(self, a, b):
        if a <= b:
            assert RatInterval(a, b) == RatInterval(F(a), F(b))
        else:
            with pytest.raises(ValueError, match="empty interval"):
                RatInterval(a, b)

    def test_point_interval(self):
        assert RatInterval(F(-1, 7), F(-1, 7)).width == 0

    def test_width_and_containment(self):
        box = RatInterval(F(1, 4), F(3, 4))
        assert box.width == F(1, 2)
        assert F(1, 4) in box and F(3, 4) in box and F(1, 2) in box
        assert F(7, 8) not in box

    def test_encloses(self):
        outer = RatInterval(F(0), F(1))
        inner = RatInterval(F(1, 4), F(1, 2))
        assert outer.encloses(inner) and outer.encloses(outer)
        assert not inner.encloses(outer)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RatInterval(0.1, 0.2)

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    @example(0, 5, 0, 3, 4, 7)  # zero numerators, denominators not 1
    @example(-4, 6, 6, 4, 1, 1)  # unreduced and negative as drawn
    @example(2, 3, 1, 3, 5, 5)  # lo above hi
    def test_of_pairs_is_the_fraction_constructor(self, a, b, c, d, s, t):
        lo, hi = F(a, b), F(c, d)
        pairs = (a * s, b * s, c * t, d * t)  # unreduced as drawn, or once scaled
        if lo > hi:
            for refused in (lambda: RatInterval.of_pairs(*pairs), lambda: RatInterval(lo, hi)):
                with pytest.raises(ValueError, match=re.escape(f"empty interval: lo {lo} > hi {hi}")):
                    refused()
            return
        got, want = RatInterval.of_pairs(*pairs), RatInterval(lo, hi)
        assert got.pairs == want.pairs == (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) == f"RatInterval(lo={lo!r}, hi={hi!r})"
        assert (got.lo, got.hi) == (lo, hi) and type(got.lo) is type(got.hi) is F

    @pytest.mark.parametrize("pairs", [(0, 0, 1, 1), (0, 1, 1, 0), (1, -2, 1, 1), (0, 1, -1, -2)])
    def test_of_pairs_refuses_a_nonpositive_denominator(self, pairs):
        with pytest.raises(ValueError, match="denominators must be positive"):
            RatInterval.of_pairs(*pairs)

    def test_predicates_read_only_the_pairs(self):
        box, point = RatInterval.of_pairs(2, 8, 6, 8), RatInterval.of_pairs(3, 6, 1, 2)
        assert box.width == F(1, 2) and type(box.width) is F and point.width == 0
        assert F(1, 2) in box and 0 not in box and F(1, 4) in box and F(3, 4) in box
        assert box.encloses(point) and box.encloses(box) and not point.encloses(box)
        # no endpoint was built to decide
        assert "lo" not in vars(box) and "hi" not in vars(box)
        assert "lo" not in vars(point) and "hi" not in vars(point)

    def test_fields_are_the_pairs_alone(self):
        assert [field.name for field in dataclasses.fields(RatInterval)] == ["pairs"]
