"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
directly; under plain pytest they appear for failing criteria only.
"""

import functools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from corpus import build_corpus
from escapepoint import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    adjoin_escape_demo,
    certificate_from_jsonable,
    certificate_to_jsonable,
    compute_escape,
    enclose_escape_traced,
    gfp_descend,
    intervalize,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
    tail_hits,
    value_at,
    weight_below,
)
from escapepoint.cli import main
from escapepoint.selftest import run_kt_battery

SPEC1 = EnumerationSpec(prefix=(), tail=Affine(1, 0))
SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))
SPEC3 = EnumerationSpec(prefix=(), tail=Constant(3))
SPEC4 = EnumerationSpec(prefix=(F(0), F(1)), tail=Cycle())


@contextmanager
def criterion(number: int, label: str):
    passed = False
    try:
        yield
        passed = True
    finally:
        print(f"[acceptance] criterion {number} ({label}): {'PASS' if passed else 'FAIL'}")


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[EnumerationSpec, ...]:
    return tuple(build_corpus(1000))


def timed_escape(spec):
    started = time.perf_counter()
    cert = compute_escape(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.25, f"worked example took {elapsed:.3f}s"
    return cert


def test_criterion_1_worked_examples():
    with criterion(1, "worked examples exact"):
        assert timed_escape(SPEC1).x0 == F(3, 2)

        cert2 = timed_escape(SPEC2)
        assert cert2.x0 == F(1, 2)
        # stored traces end with the confirming re-application; both the
        # stored form and the form without it must match the hand derivation
        assert cert2.trace.iterates == (F(2), F(3, 2), F(1, 2), F(1, 2))
        assert cert2.trace.iterates[:-1] == (F(2), F(3, 2), F(1, 2))

        assert timed_escape(SPEC3).x0 == 0
        assert timed_escape(SPEC4).x0 == 2

        before, extended, after = adjoin_escape_demo(SPEC2)
        assert after.x0 == F(7, 4)
        assert after.x0 >= F(1, 2) + F(1, 4)
        assert extended.prefix == (F(3, 2), F(1, 8), F(1, 2))


def test_criterion_2_theorem_battery():
    with criterion(2, "1000-spec theorem battery"):
        specs = corpus()
        assert len(specs) >= 1000
        started = time.perf_counter()
        for spec in specs:
            cert = compute_escape(spec)
            x0 = cert.x0
            assert weight_below(spec, x0) == x0
            assert 0 <= x0 <= 2
            for i, v in enumerate(spec.prefix):
                assert v != x0, (spec, i)
            assert not tail_hits(spec, x0), spec
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"battery took {elapsed:.1f}s"


def test_criterion_3_proof_equivalence():
    with criterion(3, "three-route equivalence"):
        for spec in corpus():
            assert len(spec.prefix) <= 12
            x0, _ = gfp_descend(spec)
            assert sup_postfix_oracle(spec) == x0, spec
            assert subset_fixpoint_oracle(spec) == x0, spec


def test_criterion_4_monotone_and_jump_fuzz():
    with criterion(4, "monotonicity and jump lemma"):
        specs = corpus()
        rng = random.Random(41)

        for _ in range(10**4):
            spec = specs[rng.randrange(len(specs))]
            x = F(rng.randint(-2000, 4000), 1000)
            y = F(rng.randint(-2000, 4000), 1000)
            if x > y:
                x, y = y, x
            assert weight_below(spec, x) <= weight_below(spec, y), (spec, x, y)

        checked = 0
        while checked < 10**4:
            spec = specs[rng.randrange(len(specs))]
            n0 = rng.randint(0, len(spec.prefix) + 10)
            v = value_at(spec, n0)
            x = v - F(rng.randint(0, 1000), 1000)
            y = v + F(rng.randint(1, 1000), 1000)
            assert weight_below(spec, y) >= weight_below(spec, x) + F(1, 2**n0), (
                spec, x, y, n0)
            checked += 1


def test_criterion_5_postfixpoint_bounds():
    with criterion(5, "postfixpoint bounds"):
        specs = corpus()
        rng = random.Random(53)

        for _ in range(10**4):
            spec = specs[rng.randrange(len(specs))]
            x = F(rng.randint(-1000, 4000), 1000)
            if x <= weight_below(spec, x):
                assert x <= 2, (spec, x)

        for spec in specs:
            assert weight_below(spec, F(0)) >= 0, spec

        for spec in specs:
            x0, _ = gfp_descend(spec)
            if x0 == 2:
                continue
            for _ in range(64):
                y = x0 + (2 - x0) * F(rng.randint(1, 1000), 1000)
                assert weight_below(spec, y) < y, (spec, y)


def test_criterion_6_enclosure_grid():
    with criterion(6, "enclosure soundness and narrowing"):
        known_grid = (1, 2, 4, 8, 16)
        eps_grid = (F(1, 10), F(1, 100), F(1, 10**4))
        for spec in corpus()[:200]:
            x0, _ = gfp_descend(spec)
            oracle = intervalize(spec)
            table = {
                (n, eps): enclose_escape_traced(oracle, n, eps)[0]
                for n in known_grid for eps in eps_grid
            }
            for enclosure in table.values():
                assert x0 in enclosure, (spec, enclosure)
            for eps in eps_grid:
                for narrow, wide in zip(known_grid[1:], known_grid):
                    assert table[(wide, eps)].encloses(table[(narrow, eps)]), (
                        spec, eps, wide, narrow)
            for n in known_grid:
                for narrow, wide in zip(eps_grid[1:], eps_grid):
                    assert table[(n, wide)].encloses(table[(n, narrow)]), (
                        spec, n, wide, narrow)


def test_criterion_7_lattice_selftest():
    with criterion(7, "finite-lattice fixpoint self-test"):
        assert run_kt_battery(count=200, seed=0) == []


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    with criterion(8, "CLI round trip and error reporting"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"prefix": ["3/2", "1/8"], "tail": {"kind": "constant", "value": "2"}}',
            encoding="utf-8",
        )
        assert main(["escape", str(spec_path), "--output", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["escape", str(spec_path), "--output", "structured"]) == 0
        second = capsys.readouterr().out
        assert first == second

        # parse -> revalidate -> reserialize reproduces the bytes exactly
        rebuilt = certificate_from_jsonable(json.loads(first))
        assert rebuilt == compute_escape(SPEC2)
        assert json.dumps(certificate_to_jsonable(rebuilt), indent=2, sort_keys=True) + "\n" == first

        bad_documents = [
            ('{"prefix": ["0.5"], "tail": {"kind": "cycle"}}', "prefix[0]"),
            ('{"prefix": [], "tail": {"kind": "cycle"}}', "nonempty prefix"),
            ('{"prefix": [], "tail": {"kind": "zeta"}}', "unknown tail kind"),
            ('{"prefix": ["1/0"], "tail": {"kind": "constant", "value": "1"}}',
             "zero denominator"),
            ("[1, 2]", "spec"),
        ]
        for text, fragment in bad_documents:
            bad_path = tmp_path / "bad.json"
            bad_path.write_text(text, encoding="utf-8")
            assert main(["escape", str(bad_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:"), err
            assert fragment in err, (text, err)
