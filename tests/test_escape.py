import dataclasses
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, formula_box, random_spec
from test_golden import affine_grid, canonical_text
from escapepoint import cli, escape
from escapepoint import (
    MAX_N_KNOWN,
    MAX_TAIL_CUT,
    Affine,
    Constant,
    Cycle,
    DemoNotApplicableError,
    EnumerationSpec,
    EscapeCertificate,
    ExponentBoundError,
    FixpointTrace,
    adjoin_escape_demo,
    box_classifier,
    certificate_from_jsonable,
    certificate_to_jsonable,
    compute_escape,
    descend_from_top,
    dyadic_weight,
    enclose_escape_traced,
    gfp_descend,
    intervalize,
    query_boxes,
    value_at,
    weight_below,
)

spec_indices = st.integers(min_value=0, max_value=2999)
UNSETTLED = "certificate: certificate trace must be a settled descent ending at the escape value"

SPEC1 = EnumerationSpec(prefix=(), tail=Affine(1, 0))
SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


def row(where, value) -> tuple:
    """The certificate row of ``value`` at ``where``: the place and the reduced value."""
    return (where, value.numerator, value.denominator)


def verdict(where, value, x0) -> dict:
    """The rendered verdict on ``value`` at ``where`` against ``x0``, by Fraction arithmetic."""
    relation = "below" if value < x0 else "above"
    return {"where": where, "value": str(value), "relation": relation, "gap": str(abs(value - x0))}


def said(cert: EscapeCertificate) -> list[tuple]:
    """(where, value, relation, gap) of each verdict the certificate renders."""
    return [tuple(v.values()) for v in certificate_to_jsonable(cert)["verdicts"]]


class TestComputeEscape:
    def test_affine_worked_example(self):
        cert = compute_escape(SPEC1)
        assert cert.x0 == F(3, 2)
        assert cert.trace.iterates == (F(2), F(3, 2), F(3, 2))
        # nearest tail values are f(1) = 1 and f(2) = 2, both at gap 1/2;
        # ties resolve to the value below
        assert cert.rows == ((1, 1, 1),)
        assert said(cert) == [(1, "1", "below", "1/2")]

    def test_prefix_constant_worked_example(self):
        cert = compute_escape(SPEC2)
        assert cert.x0 == F(1, 2)
        assert weight_below(SPEC2, cert.x0) == F(1, 2)
        assert cert.oracle_agreement
        assert cert.rows == ((0, 3, 2), (1, 1, 8), ("tail", 2, 1))
        assert said(cert) == [(0, "3/2", "above", "1"), (1, "1/8", "below", "3/8"),
                              ("tail", "2", "above", "3/2")]

    def test_constant_everywhere(self):
        cert = compute_escape(EnumerationSpec((), Constant(3)))
        assert cert.x0 == 0
        assert cert.rows == (("tail", 3, 1),)
        assert said(cert) == [("tail", "3", "above", "3")]

    def test_cycle_worked_example(self):
        cert = compute_escape(EnumerationSpec((F(0), F(1)), Cycle()))
        assert cert.x0 == 2
        assert cert.rows == ((0, 0, 1), (1, 1, 1), ("tail", 0, 1), ("tail", 1, 1))
        assert said(cert) == [(0, "0", "below", "2"), (1, "1", "below", "1"),
                              ("tail", "0", "below", "2"), ("tail", "1", "below", "1")]

    @given(spec_indices)
    @settings(deadline=None)
    def test_certified_value_escapes_the_enumeration(self, index):
        spec = corpus_spec(index)
        cert = compute_escape(spec)
        assert cert.x0 == gfp_descend(spec)[0]
        assert len(cert.rows) >= len(spec.prefix)
        for n in range(len(spec.prefix) + 50):
            assert value_at(spec, n) != cert.x0

    @given(spec_indices)
    @settings(deadline=None)
    def test_affine_verdict_is_the_closest_approach(self, index):
        spec = corpus_spec(index)
        if not isinstance(spec.tail, Affine):
            return
        cert = compute_escape(spec)
        where, p, q = cert.rows[-1]
        assert isinstance(where, int) and where >= len(spec.prefix) and value_at(spec, where) == F(p, q)
        for n in range(len(spec.prefix), len(spec.prefix) + 60):
            assert abs(value_at(spec, n) - cert.x0) >= abs(F(p, q) - cert.x0)

    @given(st.lists(st.fractions(min_value=-3, max_value=5, max_denominator=40), min_size=1, max_size=12))
    @example([F(0), F(2), F(0), F(1, 3), F(2), F(-1)])
    @settings(deadline=None)
    def test_cycle_verdicts_are_one_compare_per_distinct_value(self, values):
        # every other value repeated, so a value recurs inside the prefix too
        spec = EnumerationSpec(prefix=tuple(values + values[::2]), tail=Cycle())
        cert = compute_escape(spec)
        x0, length = cert.x0, len(spec.prefix)
        places = [*enumerate(spec.prefix), *(("tail", v) for v in sorted(set(spec.prefix)))]
        assert cert.rows == tuple(row(where, v) for where, v in places)
        # every verdict agrees with Fraction arithmetic
        assert certificate_to_jsonable(cert)["verdicts"] == [verdict(where, v, x0) for where, v in places]

    def test_affine_verdict_clamped_at_prefix_length(self):
        # the line comes closest to x0 at a negative index, so the witness is
        # the first tail index L = 1
        rising = compute_escape(EnumerationSpec(prefix=(F(5),), tail=Affine(1, 10)))
        assert rising.x0 == 0
        assert rising.rows[-1] == (1, 11, 1) and said(rising)[-1] == (1, "11", "above", "11")
        falling = compute_escape(EnumerationSpec(prefix=(F(5),), tail=Affine(-1, -10)))
        assert falling.x0 == 1
        assert falling.rows[-1] == (1, -11, 1) and said(falling)[-1] == (1, "-11", "below", "12")


class TestPlantedTailHit:
    """An enumerated value that the descent and the supremum oracle both accept.

    With those two patched to agree on it, only the verdict pass can refuse it.
    """

    @pytest.mark.parametrize("spec, n, where", [
        (EnumerationSpec((F(1, 3),), Constant(F(1, 2))), 1, "tail"),
        (EnumerationSpec((F(1, 3), F(3, 2)), Cycle()), 3, 1),  # a cycle's values are its prefix's
        (EnumerationSpec((F(5), F(-1)), Affine(F(1, 3), F(1, 7))), 2, 2),
        (EnumerationSpec((F(5), F(-1)), Affine(F(1, 3), F(1, 7))), 9, 9),
        (EnumerationSpec((F(5), F(-1)), Affine(F(-1, 3), F(13, 7))), 2, 2),
        (EnumerationSpec((F(5), F(-1)), Affine(F(-1, 3), F(13, 7))), 9, 9),
    ], ids=["constant", "cycle", "rising at L", "rising deeper", "falling at L", "falling deeper"])
    def test_refused_by_the_verdict_pass(self, spec, n, where, monkeypatch):
        v = value_at(spec, n)
        monkeypatch.setattr(escape, "gfp_descend", lambda _: (v, None))
        monkeypatch.setattr(escape, "sup_postfix_oracle", lambda _: v)
        with pytest.raises(escape.TheoremViolationError) as refused:
            compute_escape(spec)
        assert str(refused.value) == f"escape value {v} is the enumerated value at {where!r}"


class TestExponentBound:
    @pytest.mark.parametrize("tail", [
        Affine(F(1, 10**10), 0),  # the cut at 2 is index 2 * 10^10
        Affine(1, -10**12),  # the line reaches 0 at index 10^12
        Affine(-1, 10**12),  # ... and 2 just before it
        Affine(F(1, MAX_TAIL_CUT), -F(1, MAX_TAIL_CUT)),  # one index past the bound
    ])
    def test_refused_before_the_map_runs(self, tail, monkeypatch):
        def no_descent(*args):
            raise AssertionError("the map was evaluated")

        monkeypatch.setattr(escape, "gfp_descend", no_descent)
        with pytest.raises(ExponentBoundError, match=f"past the bound {MAX_TAIL_CUT}"):
            compute_escape(EnumerationSpec(prefix=(), tail=tail))

    @pytest.mark.parametrize("tail", [
        Affine(F(1, 4096), 0),
        Affine(F(-1, 4096), 2),
        Affine(F(1, MAX_TAIL_CUT // 2), 0),  # its cut at 2 is the bound itself
    ])
    def test_flat_tails_within_the_bound_compute(self, tail):
        spec = EnumerationSpec(prefix=(), tail=tail)
        assert compute_escape(spec).x0 == gfp_descend(spec)[0]


class TestCertificateValidation:
    def test_trace_must_settle_at_x0(self):
        with pytest.raises(ValueError, match="settled"):
            EscapeCertificate._of_rows(FixpointTrace((F(2), F(1))), (), True)
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        obj.update(trace=["2", "1", "1"], verdicts=[])  # settled, but at 1, not at x0 = 1/2
        assert refusal(obj) == UNSETTLED

    def test_verdicts_must_be_consistent(self):
        # x0 = 1 and the value 3 lies above it by 2, not by the stated 1
        obj = {"x0": "1", "trace": ["2", "1", "1"], "oracle_agreement": True,
               "verdicts": [{"where": 0, "value": "3", "relation": "above", "gap": "1"}]}
        assert refusal(obj) == "certificate: verdict 0 is inconsistent with escape value 1"
        obj["verdicts"][0]["gap"] = "2"
        assert certificate_from_jsonable(obj).rows == ((0, 3, 1),)

    def test_x0_is_where_the_trace_settles(self):
        cert = compute_escape(SPEC2)
        assert cert.x0 == cert.trace.iterates[-1] == F(1, 2)
        assert [f.name for f in dataclasses.fields(cert)] == ["trace", "oracle_agreement", "rows"]

    def test_there_is_no_public_constructor(self):
        cert = compute_escape(SPEC2)
        with pytest.raises(TypeError):
            EscapeCertificate(cert.trace, True, cert.rows)
        with pytest.raises(TypeError):
            dataclasses.replace(cert, oracle_agreement=False)

    @pytest.mark.parametrize("index", range(40))
    def test_audit_rejects_each_tampered_verdict(self, index):
        # each verdict of the document, its gap off by one or its relation flipped
        obj = certificate_to_jsonable(compute_escape(corpus_spec(index)))
        flipped = {"below": "above", "above": "below"}
        for i, verdict in enumerate(obj["verdicts"]):
            gap = F(verdict["gap"])
            tampered = [{"gap": str(F(gap.numerator + k, gap.denominator))}
                        for k in (1, -1) if gap.numerator + k > 0]
            tampered.append({"relation": flipped[verdict["relation"]]})
            for change in tampered:
                bad = json.loads(json.dumps(obj))
                bad["verdicts"][i].update(change)
                with pytest.raises(ValueError, match=f"certificate: verdict {i} is inconsistent"):
                    certificate_from_jsonable(bad)

    @pytest.mark.parametrize("relation", ["below", "above"])
    def test_audit_rejects_a_verdict_at_the_escape_value(self, relation):
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        obj["verdicts"][0].update(value=obj["x0"], relation=relation)
        with pytest.raises(ValueError, match="certificate: verdict 0 is inconsistent"):
            certificate_from_jsonable(obj)


AFFINE_GRID = tuple(affine_grid())


def reference_verdicts(spec: EnumerationSpec, x0: F) -> list[dict]:
    """The rendered verdicts of the module docstring, from value_at and Fraction arithmetic."""
    length = len(spec.prefix)
    prefix = [verdict(n, value_at(spec, n), x0) for n in range(length)]
    if isinstance(spec.tail, Affine):
        # the real index where a*n + b = x0, rounded both ways, clamped at the prefix length
        cross = (x0 - spec.tail.b) / spec.tail.a
        near = {max(length, math.floor(cross)), max(length, math.ceil(cross))}
        n = min(near, key=lambda n: (abs(value_at(spec, n) - x0), value_at(spec, n) > x0))
        return prefix + [verdict(n, value_at(spec, n), x0)]
    period = 1 if isinstance(spec.tail, Constant) else length
    block = {value_at(spec, n) for n in range(length, length + period)}
    return prefix + [verdict("tail", v, x0) for v in sorted(block)]


def rendered(cert: EscapeCertificate) -> bytes:
    return json.dumps(certificate_to_jsonable(cert), indent=2, sort_keys=True).encode()


def refusal(obj: dict) -> str:
    """The message ``certificate_from_jsonable`` refuses this document with."""
    with pytest.raises(ValueError) as err:
        certificate_from_jsonable(obj)
    return str(err.value)


certified_specs = st.one_of(spec_indices.map(corpus_spec), st.sampled_from(AFFINE_GRID))


class TestVerdictRows:
    """A row is a place and its value; the rendered verdicts and the reader derive the rest."""

    @pytest.mark.parametrize("spec", [corpus_spec(i) for i in range(40)] + list(AFFINE_GRID[::7]))
    def test_the_text_output_prints_one_line_per_row(self, spec, capsys):
        cert = compute_escape(spec)
        cli._print_certificate(cert)
        assert capsys.readouterr().out.count("\n  ") == len(cert.rows)

    @given(certified_specs)
    @settings(deadline=None, max_examples=150)
    def test_rows_are_the_per_index_verdicts(self, spec):
        cert = compute_escape(spec)
        obj = certificate_to_jsonable(cert)
        reference = reference_verdicts(spec, cert.x0)
        assert obj["verdicts"] == reference
        assert cert.rows == tuple(row(v["where"], F(v["value"])) for v in reference)
        rebuilt = certificate_from_jsonable(obj)
        assert rebuilt == cert and hash(rebuilt) == hash(cert) and rebuilt.rows == cert.rows
        assert rendered(rebuilt) == rendered(cert)

    @pytest.mark.parametrize("index", range(40))
    def test_audit_rejects_each_tampered_row(self, index):
        # each row's value moved, its verdict left as it was: the stated gap no longer fits
        cert = compute_escape(corpus_spec(index))
        obj = certificate_to_jsonable(cert)
        inconsistent = "certificate: verdict {} is inconsistent with escape value " + obj["x0"]
        for i, (where, p, q) in enumerate(cert.rows):
            for moved in {F(p + 1, q), F(p - 1, q), F(p, q + 1), F(2 * p + 1, 2 * q)} - {F(p, q)}:
                verdicts = [*obj["verdicts"][:i], {**obj["verdicts"][i], "value": str(moved)},
                            *obj["verdicts"][i + 1:]]
                assert refusal({**obj, "verdicts": verdicts}) == inconsistent.format(i)
        assert certificate_from_jsonable(obj) == cert

    @given(certified_specs)
    @settings(deadline=None, max_examples=100)
    def test_each_tampering_is_refused(self, spec):
        cert = compute_escape(spec)
        obj = certificate_to_jsonable(cert)
        assert certificate_from_jsonable(obj) == cert
        flipped = {"below": "above", "above": "below"}
        for change, message in [
            ({"x0": str(cert.x0 + 1)}, UNSETTLED),
            ({"trace": obj["trace"][:-1]}, UNSETTLED),  # the confirming step dropped
        ]:
            assert refusal({**obj, **change}) == message
        inconsistent = "certificate: verdict {} is inconsistent with escape value " + obj["x0"]
        for i, v in enumerate(obj["verdicts"]):
            gap = F(v["gap"])
            changes = [{"value": str(F(v["value"]) + 1)}, {"relation": flipped[v["relation"]]}]
            changes += [{"gap": str(F(gap.numerator + k, gap.denominator))}
                        for k in (1, -1) if gap.numerator + k > 0]
            for change in changes:
                verdicts = [*obj["verdicts"][:i], {**v, **change}, *obj["verdicts"][i + 1:]]
                assert refusal({**obj, "verdicts": verdicts}) == inconsistent.format(i)


class TestAdjoinDemo:
    def test_worked_example(self):
        before, extended, after = adjoin_escape_demo(SPEC2)
        assert before.x0 == F(1, 2)
        assert extended.prefix == (F(3, 2), F(1, 8), F(1, 2))
        assert extended.tail == Constant(2)
        assert after.x0 == F(7, 4)

    def test_empty_prefix(self):
        before, extended, after = adjoin_escape_demo(EnumerationSpec((), Constant(3)))
        assert before.x0 == 0
        assert extended.prefix == (F(0),)
        assert after.x0 == 1

    def test_needs_constant_tail(self, monkeypatch):
        computed = []
        real = escape.compute_escape
        monkeypatch.setattr(escape, "compute_escape", lambda spec: computed.append(spec) or real(spec))
        # an affine tail past the exponent bound is refused as a demo, not as a computation
        for spec in (SPEC1, EnumerationSpec((F(0), F(1)), Cycle()),
                     EnumerationSpec((), Affine(F(1, 10**10), 0))):
            with pytest.raises(DemoNotApplicableError, match="constant tail"):
                adjoin_escape_demo(spec)
        assert computed == []
        adjoin_escape_demo(SPEC2)
        assert len(computed) == 2  # the count sees the escapes an applicable spec computes

    def test_needs_headroom_above_escape_value(self):
        # x0 = 2 here, and the constant 1/4 sits far below 2 + 1
        with pytest.raises(DemoNotApplicableError, match="below"):
            adjoin_escape_demo(EnumerationSpec((), Constant(F(1, 4))))

    def test_rise_is_at_least_one_step(self):
        applicable = 0
        for spec in build_corpus(600, seed=9):
            if not isinstance(spec.tail, Constant):
                continue
            try:
                before, _, after = adjoin_escape_demo(spec)
            except DemoNotApplicableError:
                continue
            applicable += 1
            assert after.x0 >= before.x0 + dyadic_weight(len(spec.prefix))
        assert applicable >= 15  # the corpus must actually exercise the demo


# corpus-like values: small ones that collide and sit in [0, 2], and wide ones
spelled_values = st.one_of(
    st.fractions(min_value=-1, max_value=3, max_denominator=8),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
)


def check_one_enumeration(one: EnumerationSpec, other: EnumerationSpec, points) -> None:
    """Two spellings of one enumeration: one weight map at every point, one escape value."""
    assert [value_at(one, n) for n in range(40)] == [value_at(other, n) for n in range(40)]
    for x in points:
        assert weight_below(one, x) == weight_below(other, x), x
    assert compute_escape(one).x0 == compute_escape(other).x0


class TestSpellings:
    @given(st.lists(spelled_values, min_size=1, max_size=12).map(tuple), spelled_values,
           st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=64), max_size=6))
    @example((F(1, 2),), F(1, 2), [])
    @example((F(0), F(3, 2)), F(3), [])
    @settings(deadline=None)
    def test_a_periodic_tail_spelled_two_ways(self, prefix, c, xs):
        # the breaks of both maps, and points between them
        points = [*xs, *prefix, c, F(0), F(2)]
        check_one_enumeration(EnumerationSpec(prefix, Cycle()),
                              EnumerationSpec(prefix + prefix, Cycle()), points)
        check_one_enumeration(EnumerationSpec(prefix, Constant(c)),
                              EnumerationSpec(prefix + (c,), Constant(c)), points)
        lap, constant = EnumerationSpec((c,), Cycle()), EnumerationSpec((c,), Constant(c))
        check_one_enumeration(lap, constant, points)
        assert canonical_text(lap) == canonical_text(constant)


class TestEnclosure:
    def test_affine_hand_values(self):
        enc, lo_trace, hi_trace = enclose_escape_traced(intervalize(SPEC1), 5, F(1, 100))
        assert (enc.lo, enc.hi) == (F(3, 2), F(25, 16))
        assert lo_trace.iterates == (F(2), F(3, 2), F(3, 2))
        assert hi_trace.iterates == (F(2), F(29, 16), F(25, 16), F(25, 16))
        finer = enclose_escape_traced(intervalize(SPEC1), 8, F(1, 100))[0]
        assert (finer.lo, finer.hi) == (F(3, 2), F(193, 128))

    def test_queried_boxes_build_no_endpoint(self, monkeypatch):
        # an affine tail's boxes all differ; enclosing reads only their integer pairs
        spec = EnumerationSpec((F(3, 2), F(1, 8)), Affine(F(1, 3), F(1, 2)))
        asked = []

        def recording(*args):
            boxes = tuple(query_boxes(*args))
            asked.extend(boxes)
            return iter(boxes)

        monkeypatch.setattr(escape, "query_boxes", recording)
        enc = enclose_escape_traced(intervalize(spec), 4096, F(1, 128))[0]
        assert len(asked) == 4096 and enc.lo <= compute_escape(spec).x0 <= enc.hi
        assert [n for n, box in enumerate(asked) if {"lo", "hi"} & vars(box).keys()] == []

    def test_boundary_value_keeps_upper_at_top(self):
        # the constant tail value 2 sits on the domain edge: no finite-width
        # query can certify it is not below 2, so the upper bound stays there
        enc = enclose_escape_traced(intervalize(SPEC2), 8, F(1, 100))[0]
        assert (enc.lo, enc.hi) == (F(1, 2), F(2))

    @pytest.mark.parametrize("spec, n_known, eps", [
        (SPEC1, 5, F(1, 100)),
        (SPEC2, 8, F(1, 100)),
        *((spec, 16, F(1, 128)) for spec in build_corpus(12)),
    ])
    def test_queries_each_index_once(self, spec, n_known, eps):
        asked = Counter()
        exact = intervalize(spec)

        def counting_oracle(n, at_eps):
            asked[n] += 1
            return exact(n, at_eps)

        enclose_escape_traced(counting_oracle, n_known, eps)
        assert asked == Counter(range(n_known))

    def test_a_descent_reaches_its_step_bound(self):
        # at n_known 2 a bound map takes at most 3 values, so 4 steps is the most
        _, lo_trace, hi_trace = enclose_escape_traced(intervalize(build_corpus(300)[58]), 2, F(1, 128))
        assert (lo_trace.steps, hi_trace.steps) == (4, 1)

    def test_readme_cycle_spec_at_the_largest_n_known(self):
        # every value lies below 2, so x0 = 2; each bound map's repeated boxes share one row
        spec = EnumerationSpec((F(3, 2), F(1, 8), F(1, 2)), Cycle())
        enc, lo_trace, hi_trace = enclose_escape_traced(intervalize(spec), MAX_N_KNOWN, F(1, 128))
        lo = 2 - F(2, 1 << MAX_N_KNOWN)  # all but the tail allowance
        assert (enc.lo, enc.hi) == (lo, 2)
        assert lo_trace.iterates == (2, lo, lo)
        assert hi_trace.iterates == (2, 2)

    def test_n_known_past_the_bound_is_refused_before_any_query(self):
        asked = []
        exact = intervalize(SPEC2)
        def oracle(n, eps):
            return asked.append(n) or exact(n, eps)

        with pytest.raises(ValueError, match=f"exceeds the bound {MAX_N_KNOWN}"):
            enclose_escape_traced(oracle, MAX_N_KNOWN + 1, F(1, 100))
        with pytest.raises(ValueError, match=f"exceeds the bound {MAX_N_KNOWN}"):
            query_boxes(oracle, MAX_N_KNOWN + 1, F(1, 100))
        assert asked == []

    @given(
        spec_indices,
        st.integers(min_value=1, max_value=24),
        st.sampled_from([F(1, 10), F(1, 128), F(1, 10**6)]),
        st.sampled_from([F(0), F(1, 1000), F(1, 7)]),
    )
    @settings(deadline=None, max_examples=60)
    def test_descents_match_the_public_bound_maps(self, index, n_known, eps, jitter):
        spec = corpus_spec(index)
        def oracle(n, at_eps):
            return formula_box(spec, n, at_eps, jitter)

        _, lo_trace, hi_trace = enclose_escape_traced(oracle, n_known, eps)
        # the reference queries the boxes afresh at every step
        def requeried(side):
            return lambda z: box_classifier(tuple(query_boxes(oracle, n_known, eps)))[side](z)

        _, lo_ref = descend_from_top(requeried(0), n_known + 2)
        _, hi_ref = descend_from_top(requeried(1), n_known + 2)
        assert (lo_trace, hi_trace) == (lo_ref, hi_ref)

    @given(
        spec_indices,
        st.integers(min_value=1, max_value=10),
        st.sampled_from([F(1, 10), F(1, 100), F(1, 10**4)]),
    )
    @settings(deadline=None, max_examples=60)
    def test_sound_and_narrowing(self, index, n_known, eps):
        spec = corpus_spec(index)
        oracle = intervalize(spec)
        x0, _ = gfp_descend(spec)
        enclosure = enclose_escape_traced(oracle, n_known, eps)[0]
        assert x0 in enclosure
        assert enclosure.encloses(enclose_escape_traced(oracle, n_known + 1, eps)[0])
        assert enclosure.encloses(enclose_escape_traced(oracle, n_known, eps / 10)[0])


class TestCertificateJson:
    def test_round_trip_worked_example(self):
        cert = compute_escape(SPEC2)
        obj = certificate_to_jsonable(cert)
        assert obj["x0"] == "1/2"
        assert obj["trace"] == ["2", "3/2", "1/2", "1/2"]
        assert obj["verdicts"][2] == {
            "where": "tail", "value": "2", "relation": "above", "gap": "3/2"}
        rebuilt = certificate_from_jsonable(obj)
        assert rebuilt == cert

    @given(spec_indices)
    @settings(deadline=None, max_examples=60)
    def test_round_trip_corpus(self, index):
        cert = compute_escape(corpus_spec(index))
        assert certificate_from_jsonable(certificate_to_jsonable(cert)) == cert

    @pytest.mark.parametrize("trace, message", [
        (["2", 1], "trace[1]: expected a rational string 'p/q', got 1"),
        (["2", "1/2", "1.5"], "trace[2]: not an exact rational (expected 'p/q' or 'p'): '1.5'"),
        (["2", "1/2", "1", "1"], "trace: iterates must decrease strictly before settling: 1/2 -> 1"),
        (["3/2", "1/2", "1/2"], "trace: a descent trace must start at the top element 2"),
    ])
    def test_a_refused_trace_is_named_in_full(self, trace, message):
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        obj["trace"] = trace
        with pytest.raises(ValueError) as err:
            certificate_from_jsonable(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("change, message", [
        ({"where": -1}, "verdicts[1]: where must be a non-negative index or 'tail', got -1"),
        ({"where": True}, "verdicts[1]: where must be a non-negative index or 'tail', got True"),
        ({"where": "prefix"}, "verdicts[1]: where must be a non-negative index or 'tail', got 'prefix'"),
        ({"relation": "between"}, "verdicts[1]: relation must be 'below' or 'above', got 'between'"),
        ({"gap": "0"}, "verdicts[1]: gap must be positive, got 0"),
        ({"value": 3}, "verdicts[1].value: expected a rational string 'p/q', got 3"),
        ({"gap": 0.5}, "verdicts[1].gap: expected a rational string 'p/q', got 0.5"),
    ], ids=["negative where", "boolean where", "unknown where", "unknown relation", "zero gap",
            "number value", "number gap"])
    def test_a_refused_verdict_is_named_in_full(self, change, message):
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        obj["verdicts"][1].update(change)
        with pytest.raises(ValueError) as err:
            certificate_from_jsonable(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("change, message", [
        ({"x0": "1", "oracle_agreement": "yes"}, UNSETTLED),
        ({"x0": "1", 1: {"where": -1}}, UNSETTLED),
        ({0: {"gap": "2"}, 1: {"where": -1}}, "certificate: verdict 0 is inconsistent with escape value 1/2"),
        ({0: {"gap": "2"}, "oracle_agreement": "yes"}, "certificate: verdict 0 is inconsistent with escape value 1/2"),
        ({"trace": ["2", "3/2", "1/2"], 1: {"where": -1}},
         "verdicts[1]: where must be a non-negative index or 'tail', got -1"),
        ({"trace": ["2", "3/2", "1/2"], "oracle_agreement": "yes"},
         "oracle_agreement: expected true or false, got 'yes'"),
    ], ids=["x0, agreement", "x0, where", "gap, later where", "gap, agreement", "unsettled, where",
            "unsettled, agreement"])
    def test_of_two_faults_the_first_in_reading_order_is_named(self, change, message):
        # x0 against the trace's end, then each verdict in full, then oracle_agreement, then the settling
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        for key, value in change.items():
            if isinstance(key, int):
                obj["verdicts"][key].update(value)
            else:
                obj[key] = value
        assert refusal(obj) == message

    @pytest.mark.parametrize("mutate, message", [
        (lambda o: [], "certificate: expected an object, got list"),
        (lambda o: o.update(verdicts={}) or o, "verdicts: expected an array"),
        (lambda o: o["verdicts"].insert(0, "1/2") or o, "verdicts[0]: expected an object"),
    ], ids=["certificate", "verdicts", "verdict"])
    def test_a_document_of_the_wrong_shape_is_named_in_full(self, mutate, message):
        obj = mutate(certificate_to_jsonable(compute_escape(SPEC2)))
        with pytest.raises(ValueError) as err:
            certificate_from_jsonable(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda o: o.pop("x0"), "missing"),
        (lambda o: o.update(extra=1), "unexpected"),
        (lambda o: o.update(x0="0.5"), "x0"),
        (lambda o: o.update(trace=[]), "trace"),
        (lambda o: o.update(trace=["2", "1", "3/2", "3/2"]), "trace"),
        (lambda o: o.update(trace=["2", "1", "1"]), "certificate"),  # settles off x0
        (lambda o: o["verdicts"][0].update(gap="-1"), "verdicts[0]"),
        (lambda o: o["verdicts"][0].update(relation="sideways"), "verdicts[0]"),
        (lambda o: o["verdicts"][0].update(where="prefix"), "verdicts[0]: where"),
        (lambda o: o["verdicts"][0].update(value="1/0"), "verdicts[0].value"),
        (lambda o: o["verdicts"][0].update(gap="2"), "certificate"),  # wrong distance
        (lambda o: o.update(oracle_agreement="yes"), "oracle_agreement"),
    ])
    def test_tampered_documents_rejected(self, mutate, fragment):
        obj = certificate_to_jsonable(compute_escape(SPEC2))
        mutate(obj)
        with pytest.raises(ValueError) as err:
            certificate_from_jsonable(obj)
        assert fragment in str(err.value)
