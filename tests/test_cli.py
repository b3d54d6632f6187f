import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import random_spec
from escapepoint import (
    MAX_EXACT_EXPONENT, Affine, Constant, Cycle, DemoNotApplicableError, EnumerationSpec, ExponentBoundError,
    FixpointTrace, RatInterval, TheoremViolationError, adjoin_escape_demo, certificate_to_jsonable, cli,
    compute_escape, dyadic_tail_weight, escape, format_rational, parse_rational, selftest, spec_to_jsonable,
    tail_from_jsonable, tail_hits, value_at, weight_below,
)
from escapepoint.cli import main, parse_spec

SPEC2_TEXT = '{"prefix": ["3/2", "1/8"], "tail": {"kind": "constant", "value": "2"}}'
AFFINE_TEXT = '{"prefix": [], "tail": {"kind": "affine", "a": "1", "b": "0"}}'
CYCLE_TEXT = '{"prefix": ["0", "1"], "tail": {"kind": "cycle"}}'
TINY_SLOPE_TEXT = '{"prefix": [], "tail": {"kind": "affine", "a": "1/10000000000", "b": "0"}}'
# the flattest affine tails inside MAX_TAIL_CUT: x0 and the weights have about 4 900 digits
FLAT_TAILS = [Affine(Fraction(1, 8191), 0), Affine(Fraction(-1, 8191), 2)]


def flat_file(tmp_path, tail: Affine) -> str:
    path = tmp_path / "flat.json"
    spec = {"prefix": [], "tail": {"kind": "affine", "a": str(tail.a), "b": str(tail.b)}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.fixture
def spec2_file(tmp_path):
    path = tmp_path / "spec2.json"
    path.write_text(SPEC2_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def affine_file(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(AFFINE_TEXT, encoding="utf-8")
    return str(path)


class TestEscapeCommand:
    def test_text_output(self, spec2_file, capsys):
        assert main(["escape", spec2_file]) == 0
        out = capsys.readouterr().out
        assert "escape value: 1/2" in out
        assert "2 -> 3/2 -> 1/2 -> 1/2" in out
        assert "index 0: 3/2, above by 1" in out
        assert "all tail indices: 2, above by 3/2" in out

    def test_structured_output_is_byte_stable(self, spec2_file, capsys):
        assert main(["escape", spec2_file, "--output", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["escape", spec2_file, "--output", "structured"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["x0"] == "1/2"
        assert doc["trace"] == ["2", "3/2", "1/2", "1/2"]
        assert first == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_interval_mode(self, affine_file, capsys):
        code = main(["escape", affine_file, "--mode", "interval",
                     "--n-known", "5", "--eps", "1/100", "--output", "structured"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lo"] == "3/2" and doc["hi"] == "25/16"
        assert doc["lower_trace"] == ["2", "3/2", "3/2"]
        assert doc["upper_trace"] == ["2", "29/16", "25/16", "25/16"]

    def test_interval_text(self, affine_file, capsys):
        assert main(["escape", affine_file, "--mode", "interval", "--n-known", "5"]) == 0
        out = capsys.readouterr().out
        assert "enclosure: [3/2, 25/16]" in out
        assert "width: 1/16" in out

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(SPEC2_TEXT))
        assert main(["escape", "-"]) == 0
        assert "escape value: 1/2" in capsys.readouterr().out


class TestErrorHandling:
    @pytest.mark.parametrize("text, fragment", [
        ("not json", "invalid JSON"),
        ('{"prefix": ["0.5"], "tail": {"kind": "cycle"}}', "prefix[0]"),
        ('{"prefix": [], "tail": {"kind": "cycle"}}', "nonempty prefix"),
        ('{"prefix": [], "tail": {"kind": "fancy"}}', "unknown tail kind"),
        ('{"prefix": ["1/0"], "tail": {"kind": "cycle"}}', "zero denominator"),
        ('{"prefix": [], "tail": {"kind": "constant", "value": 2}}', "tail.value"),
        # nesting deeper than the recursion limit
        pytest.param("[" * 200_000, "invalid JSON", id="deep-nesting"),
    ])
    def test_malformed_specs_fail_with_position(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["escape", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err

    def test_missing_file(self, capsys):
        assert main(["escape", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_interval_mode_validates_arguments(self, spec2_file, capsys):
        assert main(["escape", spec2_file, "--mode", "interval", "--eps", "0.5"]) == 1
        assert "0.5" in capsys.readouterr().err
        assert main(["escape", spec2_file, "--mode", "interval", "--eps", "1/0"]) == 1
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"
        assert main(["escape", spec2_file, "--mode", "interval", "--n-known", "0"]) == 1
        assert "n_known" in capsys.readouterr().err

    def test_unknown_mode_exits_via_argparse(self, spec2_file, capsys):
        with pytest.raises(SystemExit):
            main(["escape", spec2_file, "--mode", "bogus"])


class TestBoundsUpFront:
    @pytest.mark.parametrize("text, args, fragment", [
        (TINY_SLOPE_TEXT, [], "past the bound 16384"),
        ('{"prefix": [], "tail": {"kind": "affine", "a": "1", "b": "-1000000000000"}}',
         [], "past the bound 16384"),
        (SPEC2_TEXT, ["--mode", "interval", "--n-known", "65537"], "exceeds the bound 65536"),
        # a cut near 10^8000: its message quotes more digits than the input holds
        ('{"prefix": [], "tail": {"kind": "affine", "a": "1/1' + "0" * 4000 + '", "b": "-1'
         + "0" * 4000 + '"}}', [], "past the bound 16384"),
    ], ids=["tiny-slope", "huge-intercept", "n-known", "cut-past-the-digit-limit"])
    def test_refused_with_exit_1_and_no_traceback(self, text, args, fragment):
        proc = subprocess.run(
            [sys.executable, "-m", "escapepoint", "escape", "-", *args],
            input=text, capture_output=True, text=True, check=False, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert fragment in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_check_refuses_a_tiny_slope(self):
        # the battery's closed-form checks would build 2^n for n near 2 * 10^10
        # and run until the timeout stops them
        proc = subprocess.run(
            [sys.executable, "-m", "escapepoint", "check", "-"],
            input=TINY_SLOPE_TEXT, capture_output=True, text=True, check=False, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "past the bound 16384" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
class TestDigitLimit:
    @pytest.fixture(autouse=True)
    def default_limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield
        sys.set_int_max_str_digits(previous)

    def test_megabyte_numerator_is_refused_at_parsing(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"prefix": ["' + "7" * 10**6 + '/3"], "tail": {"kind": "cycle"}}', encoding="utf-8"
        )
        # a lifted limit would parse it in quadratic time, about a minute
        start = time.monotonic()
        assert main(["escape", str(path)]) == 1
        assert time.monotonic() - start < 30
        err = capsys.readouterr().err
        assert err.startswith("error: prefix[0]: Exceeds the limit")
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits

    def test_a_value_past_the_limit_is_refused_in_full(self, tmp_path, capsys):
        with pytest.raises(ValueError) as refused:
            int("7" * 5000)
        assert str(refused.value).startswith("Exceeds the limit (4300")
        path = tmp_path / "huge.json"
        path.write_text('{"prefix": ["' + "7" * 5000 + '"], "tail": {"kind": "cycle"}}', encoding="utf-8")
        assert main(["escape", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: prefix[0]: {refused.value}\n")

    @pytest.mark.parametrize("output", ["structured", "text"])
    def test_denominator_past_the_limit_still_prints(self, tmp_path, capsys, output):
        # the weights reach 2^-16383, a denominator of 4932 digits
        path = tmp_path / "flat.json"
        path.write_text('{"prefix": [], "tail": {"kind": "affine", "a": "1/8192", "b": "0"}}',
                        encoding="utf-8")
        assert main(["escape", str(path), "--output", output]) == 0
        out = capsys.readouterr().out
        if output == "structured":
            x0 = json.loads(out)["x0"]
        else:
            x0 = out.splitlines()[0].removeprefix("escape value: ")
        assert len(x0.partition("/")[2]) > sys.int_info.default_max_str_digits
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits

    @pytest.mark.parametrize("a, b", [("1/8191", "0"), ("-1/8191", "2")])
    def test_the_library_renders_what_the_cli_prints(self, tmp_path, capsys, a, b):
        path = tmp_path / "flat.json"
        spec = {"prefix": [], "tail": {"kind": "affine", "a": a, "b": b}}
        path.write_text(json.dumps(spec), encoding="utf-8")
        cert = compute_escape(EnumerationSpec((), Affine(Fraction(a), Fraction(b))))
        rendered = json.dumps(certificate_to_jsonable(cert), indent=2, sort_keys=True) + "\n"
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        assert main(["escape", str(path), "--output", "structured"]) == 0
        assert capsys.readouterr().out == rendered

    @pytest.mark.parametrize("tail", FLAT_TAILS, ids=["rising", "falling"])
    def test_the_battery_passes_past_the_limit(self, tmp_path, capsys, tail):
        assert main(["check", flat_file(tmp_path, tail)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "invariants: 12/12 passed"
        assert all(line.endswith("PASS") for line in lines[:-1])

    @pytest.mark.parametrize("call, error, fragment", [
        # the cut is near 10^8000, and x0 is never computed
        (lambda: compute_escape(EnumerationSpec((), Affine(Fraction(1, 10**4000), -10**4000))),
         ExponentBoundError, "past the bound 16384"),
        # x = (10^4400 + 1) / 3 has its cut at 10^4400 + 1, past MAX_EXACT_EXPONENT
        (lambda: weight_below(EnumerationSpec((), Affine(Fraction(1, 3), 0)), Fraction(10**4400 + 1, 3)),
         ExponentBoundError, f"past the bound {MAX_EXACT_EXPONENT}"),
        (lambda: dyadic_tail_weight(10**4400), ExponentBoundError, f"past the bound {MAX_EXACT_EXPONENT}"),
        # 14 400 prefix values: the threshold x0 + 2^-14400 has a denominator of 4 335 digits
        (lambda: adjoin_escape_demo(EnumerationSpec(tuple(Fraction(i % 7, 5) for i in range(14400)),
                                                    Constant(Fraction(1, 3)))),
         DemoNotApplicableError, "constant tail value 1/3 is below"),
        (lambda: FixpointTrace((Fraction(2), Fraction(1, 2**16000), Fraction(1, 2**15000))),
         ValueError, "iterates must decrease strictly before settling: 1/"),
        (lambda: RatInterval(Fraction(1, 3**9500), Fraction(1, 3**9501)), ValueError, "empty interval: lo 1/"),
    ], ids=["exponent-bound", "weight-below", "tail-weight", "demo", "trace-order", "empty-interval"])
    def test_each_refusal_quotes_its_numbers(self, call, error, fragment):
        with pytest.raises(error) as refused:
            call()
        assert type(refused.value) is error
        assert fragment in str(refused.value)

    def test_an_oracle_disagreement_is_reported_past_the_limit(self, tmp_path, monkeypatch):
        honest = escape.sup_postfix_oracle
        monkeypatch.setattr(escape, "sup_postfix_oracle", lambda spec: honest(spec) / 2)
        flat = EnumerationSpec((), FLAT_TAILS[0])
        x0 = honest(flat)
        with pytest.raises(TheoremViolationError) as refused:
            compute_escape(flat)
        assert str(refused.value) == (
            f"descent found {format_rational(x0)} but the supremum oracle found {format_rational(x0 / 2)}"
        )
        # an internal inconsistency crashes the CLI instead of exiting 1
        with pytest.raises(TheoremViolationError):
            main(["escape", flat_file(tmp_path, FLAT_TAILS[0])])


# spellings of 1/2, -2, 0 and 7/10 that are not in lowest terms, or carry a sign or leading zeros
ODD_SPELLINGS = ["2/4", "-6/3", "-0/5", "007/010"]


class TestParseSpec:
    """``parse_spec`` reads prefix values as integer pairs, with no Fraction per value."""

    @given(st.integers(min_value=0, max_value=2999),
           st.lists(st.tuples(st.integers(min_value=0, max_value=12), st.sampled_from(ODD_SPELLINGS)),
                    max_size=6))
    def test_the_parse_is_the_fraction_parse(self, index, inserts):
        obj = spec_to_jsonable(random_spec(random.Random(index), index))  # every tail kind
        for at, text in inserts:
            obj["prefix"].insert(min(at, len(obj["prefix"])), text)
        got = parse_spec(json.dumps(obj))
        want = EnumerationSpec(tuple(parse_rational(v) for v in obj["prefix"]), tail_from_jsonable(obj["tail"]))
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got.prefix == want.prefix and all(type(v) is Fraction for v in got.prefix)
        assert (got.prefix_pairs, got.block_pairs, got.window) == (want.prefix_pairs, want.block_pairs, want.window)

    @pytest.mark.parametrize("value, problem", [
        ('"1/0"', "zero denominator in '1/0'"),
        ('"1.5"', "not an exact rational (expected 'p/q' or 'p'): '1.5'"),
        ('" 1"', "not an exact rational (expected 'p/q' or 'p'): ' 1'"),
        ("1.5", "expected a rational string 'p/q', got 1.5"),
        ("true", "expected a rational string 'p/q', got True"),
        ("null", "expected a rational string 'p/q', got None"),
    ])
    def test_each_refusal_is_named_in_full(self, tmp_path, capsys, value, problem):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"prefix": [{value}], "tail": {{"kind": "cycle"}}}}', encoding="utf-8")
        assert main(["escape", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: prefix[0]: {problem}\n")

    @pytest.mark.parametrize("tail", [{"kind": "cycle"}, {"kind": "constant", "value": "3"}])
    def test_the_exact_path_builds_no_fraction_per_prefix_value(self, monkeypatch, tail):
        # a Fraction per prefix value would make the count grow with L
        def fractions_built(length: int) -> int:
            text = json.dumps({"prefix": [f"{k}/{length + 1}" for k in range(1, length + 1)], "tail": tail})
            built = 0
            new = Fraction.__new__

            def counting(cls, *args, **kwargs):
                nonlocal built
                built += 1
                return new(cls, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", staticmethod(counting))
                certificate_to_jsonable(compute_escape(parse_spec(text)))
            return built

        assert 0 < fractions_built(16) == fractions_built(64)


class TestCheckCommand:
    def test_all_invariants_pass(self, spec2_file, capsys):
        assert main(["check", spec2_file]) == 0
        out = capsys.readouterr().out
        assert "invariants: 12/12 passed" in out
        assert out.count("PASS") == 12
        assert "FAIL" not in out

    def test_seed_changes_nothing_observable(self, affine_file, capsys):
        assert main(["check", affine_file, "--seed", "1"]) == 0
        assert main(["check", affine_file, "--seed", "99"]) == 0

    def test_a_failing_invariant_exits_1(self, spec2_file, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "sup_postfix_oracle", lambda spec: Fraction(7, 4))
        assert main(["check", spec2_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines.count(
            "check proof-equivalence: FAIL (supremum oracle found 7/4, descent found 1/2)"
        ) == 1
        assert len([line for line in lines if line.startswith("check ")]) == 12
        assert lines[-1] == "invariants: 11/12 passed"

    def test_a_crashing_check_does_not_stop_the_battery(self, spec2_file, capsys, monkeypatch):
        def crash(spec, x):
            raise RuntimeError("closed form unavailable")

        monkeypatch.setattr(selftest, "tail_weight_sum", crash)
        assert main(["check", spec2_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("check tail-closed-form: FAIL (RuntimeError: closed form unavailable)") == 1
        assert len([line for line in lines if line.startswith("check ") and ": PASS" in line]) == 11
        assert lines[-1] == "invariants: 11/12 passed"


class TestInvariantBattery:
    """The battery's notes and the tail-hits witness branch, read from ``run_invariant_battery``."""

    @pytest.mark.parametrize("spec, name, note", [
        (EnumerationSpec((), Constant(0)), "no-postfix-above",
         "escape value is the top element; nothing above to probe"),  # every value is below 2
        # the subset oracle has no prefix bound: all three routes run, with no note
        (EnumerationSpec(tuple(Fraction(k, 7) for k in range(13)), Constant(2)), "proof-equivalence", ""),
        (EnumerationSpec(tuple(Fraction(k, 37) for k in range(1, 67)), Cycle()), "proof-equivalence", ""),
    ], ids=["top element", "subset oracle on 13 values", "subset oracle on a 66-value cycle"])
    def test_a_passing_check_carries_its_note(self, spec, name, note):
        results = selftest.run_invariant_battery(spec)
        assert [r for r in results if not r[1]] == []
        assert (name, True, note) in results

    def test_a_tail_hit_past_the_window_is_checked_by_its_witness(self):
        # 1 = f(100), past the window of indices 0..64 that the brute force reads
        spec = EnumerationSpec((), Affine(Fraction(1, 100), 0))
        assert tail_hits(spec, 1) and value_at(spec, 100) == 1
        results = selftest.run_invariant_battery(spec)
        assert ("tail-hits", True, "") in results
        assert [r for r in results if not r[1]] == []

    def test_a_cycle_longer_than_the_window_passes_check(self, tmp_path, capsys):
        # 66/37 = f(65) recurs first at tail index 66 + 65, past the window of indices 66..130
        path = tmp_path / "long_cycle.json"
        prefix = [f"{k}/37" for k in range(1, 67)]
        path.write_text(json.dumps({"prefix": prefix, "tail": {"kind": "cycle"}}), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "check tail-hits: PASS" in lines and lines[-1] == "invariants: 12/12 passed"

    def test_a_descent_that_does_not_settle_leaves_x0_unchecked(self, monkeypatch):
        def unsettled(spec):
            raise RuntimeError("no settle")

        monkeypatch.setattr(selftest, "gfp_descend", unsettled)
        failed = [r for r in selftest.run_invariant_battery(EnumerationSpec((), Constant(1))) if not r[1]]
        assert failed == [
            ("descent-fixpoint", False, "RuntimeError: no settle"),
            *((name, False, "descent did not settle, cannot check")
              for name in ("no-postfix-above", "proof-equivalence", "certificate", "enclosure")),
        ]

    @pytest.mark.parametrize("spec", [
        EnumerationSpec((), Constant(0)),
        EnumerationSpec((), Affine(Fraction(1, 100), Fraction(1, 1000))),
        EnumerationSpec((Fraction(1, 3), Fraction(5, 4)), Cycle()),
    ], ids=["constant", "affine", "cycle"])
    def test_a_tail_hit_claimed_without_a_witness_fails(self, spec, monkeypatch):
        honest, places = selftest.tail_hits, selftest._tail_places
        monkeypatch.setattr(selftest, "tail_hits", lambda spec, v: v == 1 or honest(spec, v))
        failed = [("tail-hits", False, "tail_hits claims 1 without a witness")]
        assert [r for r in selftest.run_invariant_battery(spec) if not r[1]] == failed
        # a place that claims 1 at the first tail index, which holds another value, is no witness either
        monkeypatch.setattr(selftest, "_tail_places",
                            lambda spec, p, q: {**places(spec, p, q), (1, 1): ("tail", len(spec.prefix))})
        assert [r for r in selftest.run_invariant_battery(spec) if not r[1]] == failed


class TestDemoAdjoinCommand:
    def test_worked_example(self, spec2_file, capsys):
        assert main(["demo-adjoin", spec2_file]) == 0
        out = capsys.readouterr().out
        assert "escape value before: 1/2" in out
        assert "escape value after: 7/4" in out
        assert "guaranteed at least 1/4" in out

    def test_not_applicable_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(CYCLE_TEXT, encoding="utf-8")
        assert main(["demo-adjoin", str(path)]) == 1
        assert "constant tail" in capsys.readouterr().err


class TestSelfTestCommand:
    def test_small_battery(self, capsys):
        assert main(["kt-selftest", "--count", "5", "--seed", "2"]) == 0
        assert "5 lattices checked, 0 failures" in capsys.readouterr().out

    def test_failures_are_listed_under_the_summary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_kt_battery", lambda count, seed: ["first failure", "second failure"])
        assert main(["kt-selftest", "--count", "3"]) == 1
        assert capsys.readouterr().out == (
            "self-test: 3 lattices checked, 2 failures\n  first failure\n  second failure\n"
        )

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_count_must_be_positive(self, capsys, count):
        assert main(["kt-selftest", "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lattice count must be a positive integer, got {count}\n"


class TestProcessState:
    def test_main_never_sets_the_int_digit_limit(self, spec2_file, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"main set the int digit limit to {limit}")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        for argv in (["escape", spec2_file], ["escape", spec2_file, "--mode", "interval"],
                     ["check", spec2_file], ["demo-adjoin", spec2_file], ["kt-selftest", "--count", "1"]):
            assert main(argv) == 0, argv


class TestModuleEntryPoint:
    def test_python_dash_m(self, spec2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "escapepoint", "escape", spec2_file,
             "--output", "structured"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x0"] == "1/2"

    def test_stdin_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "escapepoint.cli", "escape", "-"],
            input=SPEC2_TEXT, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0
        assert "escape value: 1/2" in proc.stdout
