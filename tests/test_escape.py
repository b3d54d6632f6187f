import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, random_spec
from escapepoint import escape
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
    IntervalEnumeration,
    Verdict,
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

SPEC1 = EnumerationSpec(prefix=(), tail=Affine(1, 0))
SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


class TestVerdict:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            Verdict(where=-1, value=F(1), relation="below", gap=F(1))
        with pytest.raises(ValueError):
            Verdict(where=True, value=F(1), relation="below", gap=F(1))
        with pytest.raises(ValueError):
            Verdict(where="prefix", value=F(1), relation="below", gap=F(1))
        with pytest.raises(ValueError):
            Verdict(where=0, value=F(1), relation="between", gap=F(1))
        with pytest.raises(ValueError):
            Verdict(where=0, value=F(1), relation="below", gap=F(0))

    def test_coerces_int_fields_and_refuses_floats(self):
        v = Verdict(where=0, value=3, relation="above", gap=2)
        assert type(v.value) is F and type(v.gap) is F
        assert v == Verdict(where=0, value=F(3), relation="above", gap=F(2))
        with pytest.raises(TypeError, match="verdict value"):
            Verdict(where=0, value=0.5, relation="below", gap=F(1))
        with pytest.raises(TypeError, match="verdict gap"):
            Verdict(where=0, value=F(1), relation="below", gap=0.5)


class TestComputeEscape:
    def test_affine_worked_example(self):
        cert = compute_escape(SPEC1)
        assert cert.x0 == F(3, 2)
        assert cert.trace.iterates == (F(2), F(3, 2), F(3, 2))
        # nearest tail values are f(1) = 1 and f(2) = 2, both at gap 1/2;
        # ties resolve to the value below
        assert cert.verdicts == (
            Verdict(where=1, value=F(1), relation="below", gap=F(1, 2)),
        )

    def test_prefix_constant_worked_example(self):
        cert = compute_escape(SPEC2)
        assert cert.x0 == F(1, 2)
        assert weight_below(SPEC2, cert.x0) == F(1, 2)
        assert cert.oracle_agreement
        assert cert.verdicts == (
            Verdict(where=0, value=F(3, 2), relation="above", gap=F(1)),
            Verdict(where=1, value=F(1, 8), relation="below", gap=F(3, 8)),
            Verdict(where="tail", value=F(2), relation="above", gap=F(3, 2)),
        )

    def test_constant_everywhere(self):
        cert = compute_escape(EnumerationSpec((), Constant(3)))
        assert cert.x0 == 0
        assert cert.verdicts == (
            Verdict(where="tail", value=F(3), relation="above", gap=F(3)),
        )

    def test_cycle_worked_example(self):
        cert = compute_escape(EnumerationSpec((F(0), F(1)), Cycle()))
        assert cert.x0 == 2
        assert cert.verdicts == (
            Verdict(where=0, value=F(0), relation="below", gap=F(2)),
            Verdict(where=1, value=F(1), relation="below", gap=F(1)),
            Verdict(where="tail", value=F(0), relation="below", gap=F(2)),
            Verdict(where="tail", value=F(1), relation="below", gap=F(1)),
        )

    @given(spec_indices)
    @settings(deadline=None)
    def test_certified_value_escapes_the_enumeration(self, index):
        spec = corpus_spec(index)
        cert = compute_escape(spec)
        assert cert.x0 == gfp_descend(spec)[0]
        assert len(cert.verdicts) >= len(spec.prefix)
        for n in range(len(spec.prefix) + 50):
            assert value_at(spec, n) != cert.x0

    @given(spec_indices)
    @settings(deadline=None)
    def test_affine_verdict_is_the_closest_approach(self, index):
        spec = corpus_spec(index)
        if not isinstance(spec.tail, Affine):
            return
        cert = compute_escape(spec)
        witness = cert.verdicts[-1]
        assert isinstance(witness.where, int) and witness.where >= len(spec.prefix)
        for n in range(len(spec.prefix), len(spec.prefix) + 60):
            assert abs(value_at(spec, n) - cert.x0) >= witness.gap

    @given(st.lists(st.fractions(min_value=-3, max_value=5, max_denominator=40), min_size=1, max_size=12))
    @example([F(0), F(2), F(0), F(1, 3), F(2), F(-1)])
    @settings(deadline=None)
    def test_cycle_verdicts_are_one_compare_per_distinct_value(self, values):
        # every other value repeated, so a value recurs inside the prefix too
        spec = EnumerationSpec(prefix=tuple(values + values[::2]), tail=Cycle())
        cert = compute_escape(spec)
        x0, length = cert.x0, len(spec.prefix)
        assert cert.verdicts[length:] == tuple(
            escape._compare(x0, "tail", v) for v in sorted(set(spec.prefix))
        )
        # and every verdict agrees with Fraction arithmetic
        for v, where in zip(cert.verdicts, [*range(length), *["tail"] * len(set(spec.prefix))]):
            assert (v.where, v.relation, v.gap) == (where, "below" if v.value < x0 else "above",
                                                    abs(v.value - x0))
        assert [v.value for v in cert.verdicts[:length]] == list(spec.prefix)

    def test_affine_verdict_clamped_at_prefix_length(self):
        # the line comes closest to x0 at a negative index, so the witness is
        # the first tail index L = 1
        rising = compute_escape(EnumerationSpec(prefix=(F(5),), tail=Affine(1, 10)))
        assert rising.x0 == 0
        assert rising.verdicts[-1] == Verdict(where=1, value=F(11), relation="above", gap=F(11))
        falling = compute_escape(EnumerationSpec(prefix=(F(5),), tail=Affine(-1, -10)))
        assert falling.x0 == 1
        assert falling.verdicts[-1] == Verdict(where=1, value=F(-11), relation="below", gap=F(12))


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
        trace = FixpointTrace((F(2), F(1), F(1)))
        with pytest.raises(ValueError, match="settled"):
            EscapeCertificate(F(1, 2), trace, (), True)

    def test_verdicts_must_be_consistent(self):
        trace = FixpointTrace((F(2), F(1), F(1)))
        bad_gap = Verdict(where=0, value=F(3), relation="above", gap=F(1))
        with pytest.raises(ValueError, match="verdict"):
            EscapeCertificate(F(1), trace, (bad_gap,), True)

    @pytest.mark.parametrize("index", range(40))
    def test_audit_rejects_each_tampered_verdict(self, index):
        cert = compute_escape(corpus_spec(index))
        flipped = {"below": "above", "above": "below"}
        for i, v in enumerate(cert.verdicts):
            off_by_one = (
                F(v.gap.numerator + 1, v.gap.denominator),
                F(v.gap.numerator - 1, v.gap.denominator),
            )
            tampered = [dataclasses.replace(v, gap=gap) for gap in off_by_one if gap > 0]
            tampered.append(dataclasses.replace(v, relation=flipped[v.relation]))
            for bad in tampered:
                verdicts = cert.verdicts[:i] + (bad,) + cert.verdicts[i + 1:]
                with pytest.raises(ValueError, match=f"verdict {i} is inconsistent"):
                    dataclasses.replace(cert, verdicts=verdicts)

    @pytest.mark.parametrize("relation", ["below", "above"])
    def test_audit_rejects_a_verdict_at_the_escape_value(self, relation):
        cert = compute_escape(SPEC2)
        at_x0 = Verdict(where=0, value=cert.x0, relation=relation, gap=F(1))
        with pytest.raises(ValueError, match="verdict 0 is inconsistent"):
            dataclasses.replace(cert, verdicts=(at_x0,) + cert.verdicts[1:])
        obj = certificate_to_jsonable(cert)
        obj["verdicts"][0].update(value=obj["x0"], relation=relation)
        with pytest.raises(ValueError, match="certificate: verdict 0 is inconsistent"):
            certificate_from_jsonable(obj)


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

    def test_needs_constant_tail(self):
        with pytest.raises(DemoNotApplicableError, match="constant tail"):
            adjoin_escape_demo(SPEC1)
        with pytest.raises(DemoNotApplicableError, match="constant tail"):
            adjoin_escape_demo(EnumerationSpec((F(0), F(1)), Cycle()))

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


class TestEnclosure:
    def test_affine_hand_values(self):
        enc, lo_trace, hi_trace = enclose_escape_traced(intervalize(SPEC1), 5, F(1, 100))
        assert (enc.lo, enc.hi) == (F(3, 2), F(25, 16))
        assert lo_trace.iterates == (F(2), F(3, 2), F(3, 2))
        assert hi_trace.iterates == (F(2), F(29, 16), F(25, 16), F(25, 16))
        finer = enclose_escape_traced(intervalize(SPEC1), 8, F(1, 100))[0]
        assert (finer.lo, finer.hi) == (F(3, 2), F(193, 128))

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
            return exact.at(n, at_eps)

        enclose_escape_traced(IntervalEnumeration(counting_oracle), n_known, eps)
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
        oracle = IntervalEnumeration(lambda n, eps: asked.append(n) or exact.at(n, eps))
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
        oracle = intervalize(corpus_spec(index), jitter)
        _, lo_trace, hi_trace = enclose_escape_traced(oracle, n_known, eps)
        # the reference queries the boxes afresh at every step
        def requeried(z):
            return box_classifier(tuple(query_boxes(oracle, n_known, eps)))(z)

        _, lo_ref = descend_from_top(lambda z: requeried(z).lo, n_known + 2)
        _, hi_ref = descend_from_top(lambda z: requeried(z).hi, n_known + 2)
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
