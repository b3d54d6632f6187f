"""Command-line interface.

Four subcommands: ``escape`` computes the escape value of a spec (exactly, or
as an interval enclosure from imprecise queries), ``check`` runs an invariant
battery against a spec, ``demo-adjoin`` appends the escape value to its own
enumeration and shows the value move, ``kt-selftest`` fuzzes the fixpoint
engine on random finite lattices.

Specs are JSON files (``-`` reads stdin); structured output is canonical
JSON (two-space indent, sorted keys) so byte-identical inputs give
byte-identical outputs.  ``ESCAPE_ITER_BUDGET`` overrides the descent budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .enumeration import (
    Affine,
    EnumerationSpec,
    SpecError,
    check_exponent_bound,
    eligible_prefix_indices,
    intervalize,
    spec_from_jsonable,
    spec_to_jsonable,
    tail_hits,
    tail_weight_sum,
    value_at,
)
from .escape import (
    EscapeCertificate,
    adjoin_escape_demo,
    certificate_to_jsonable,
    compute_escape,
    enclose_escape,
    enclose_escape_traced,
)
from .fixpoint import (
    DEFAULT_ITERATION_BUDGET,
    BudgetExceededError,
    FixpointTrace,
    OracleScopeError,
    gfp_descend,
    run_kt_battery,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
)
from .numerics import dyadic_tail_weight, dyadic_weight, format_rational, parse_rational
from .weight_map import weight_below

__all__ = ["main", "parse_spec", "run_invariant_battery"]

_ZERO = Fraction(0)
_TWO = Fraction(2)


def parse_spec(text: str) -> EnumerationSpec:
    """Parse a JSON spec document into an EnumerationSpec."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise SpecError(f"invalid JSON: {exc}") from None
    return spec_from_jsonable(obj)


class _CheckFailure(Exception):
    """An invariant check failed with a human-readable reason."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _CheckFailure(message)


def run_invariant_battery(
    spec: EnumerationSpec,
    seed: int = 0,
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> list[tuple[str, bool, str]]:
    """Run every structural invariant against one spec.

    Returns (name, passed, note) triples in execution order; the note carries
    the failure reason, or an informational remark on a pass.  The battery
    never aborts early -- a crash inside one check is that check's failure.
    An affine tail past the exponent bound is refused up front with
    ``ExponentBoundError``, as ``compute_escape`` refuses it.
    """
    check_exponent_bound(spec)
    rng = random.Random(seed)
    length = len(spec.prefix)
    points = _sample_points(spec, rng)
    window = range(length, length + 65)
    x0_box: list[Optional[Fraction]] = [None]

    def settled() -> Fraction:
        if x0_box[0] is None:
            raise _CheckFailure("descent did not settle, cannot check")
        return x0_box[0]

    def check_totality() -> None:
        for n in range(length + 17):
            v = value_at(spec, n)
            _require(isinstance(v, Fraction), f"value at index {n} is {type(v).__name__}")

    def check_eligibility_monotone() -> None:
        for x, y in zip(points, points[1:]):
            _require(
                eligible_prefix_indices(spec, x) <= eligible_prefix_indices(spec, y),
                f"eligible prefix set shrank between {x} and {y}",
            )

    def check_tail_closed_form() -> None:
        for x in points:
            closed = tail_weight_sum(spec, x)
            brute = sum((dyadic_weight(n) for n in window if value_at(spec, n) < x), _ZERO)
            residue = dyadic_tail_weight(window.stop)
            _require(
                brute <= closed <= brute + residue,
                f"closed-form tail weight {closed} at {x} is outside [{brute}, {brute + residue}]",
            )

    def check_tail_hits() -> None:
        for x in points:
            hit = tail_hits(spec, x)
            brute = any(value_at(spec, n) == x for n in window)
            if brute:
                _require(hit, f"{x} is enumerated in the tail window but tail_hits says no")
            elif hit:
                # only an affine tail can hit beyond the window; verify its witness
                _require(isinstance(spec.tail, Affine), f"tail_hits claims {x} without a witness")
                n0 = (x - spec.tail.b) / spec.tail.a
                _require(
                    n0.denominator == 1 and n0 >= length and value_at(spec, int(n0)) == x,
                    f"tail_hits claims {x} but index {n0} is not a witness",
                )

    def check_map_monotone() -> None:
        for x, y in zip(points, points[1:]):
            _require(
                weight_below(spec, x) <= weight_below(spec, y),
                f"weight map decreased between {x} and {y}",
            )

    def check_map_range() -> None:
        for x in points:
            w = weight_below(spec, x)
            _require(_ZERO <= w <= _TWO, f"weight {w} at {x} is outside [0, 2]")

    def check_jump_lemma() -> None:
        # x <= f(n) < y forces the map to rise by at least the index weight
        for n in range(min(length + 9, 40)):
            v = value_at(spec, n)
            if _ZERO <= v < _TWO:
                y = min(_TWO, v + Fraction(1, 997))
                _require(
                    weight_below(spec, y) >= weight_below(spec, v) + dyadic_weight(n),
                    f"jump at index {n} (value {v}) is smaller than {dyadic_weight(n)}",
                )

    def check_descent_fixpoint() -> None:
        x0, trace = gfp_descend(spec, budget)
        _require(weight_below(spec, x0) == x0, f"descent settled at {x0}, not a fixpoint")
        _require(trace.terminated and trace.iterates[-1] == x0, "trace does not settle at the result")
        x0_box[0] = x0

    def check_no_postfix_above() -> str:
        x0 = settled()
        if x0 == _TWO:
            return "escape value is the top element; nothing above to probe"
        for _ in range(64):
            y = x0 + (_TWO - x0) * Fraction(rng.randint(1, 1000), 1000)
            _require(weight_below(spec, y) < y, f"{y} above the escape value is a postfixpoint")
        return ""

    def check_proof_equivalence() -> str:
        x0 = settled()
        other = sup_postfix_oracle(spec)
        _require(other == x0, f"supremum oracle found {other}, descent found {x0}")
        try:
            literal = subset_fixpoint_oracle(spec)
        except OracleScopeError as exc:
            return f"subset oracle skipped: {exc}"
        _require(literal == x0, f"subset oracle found {literal}, descent found {x0}")
        return ""

    def check_certificate() -> None:
        x0 = settled()
        cert = compute_escape(spec, budget)
        _require(cert.x0 == x0, f"certificate value {cert.x0} differs from descent value {x0}")
        _require(len(cert.verdicts) >= length, "certificate is missing prefix verdicts")

    def check_enclosure() -> None:
        x0 = settled()
        ienum = intervalize(spec)
        eps_wide, eps_narrow = Fraction(1, 10), Fraction(1, 100)
        coarse = enclose_escape(ienum, 2, eps_wide, budget)
        sharper_eps = enclose_escape(ienum, 2, eps_narrow, budget)
        sharper_n = enclose_escape(ienum, 4, eps_narrow, budget)
        sharpest = enclose_escape(ienum, 8, eps_narrow, budget)
        for enclosure in (coarse, sharper_eps, sharper_n, sharpest):
            _require(x0 in enclosure, f"escape value {x0} is outside enclosure {enclosure}")
        _require(coarse.encloses(sharper_eps), "shrinking eps must narrow the enclosure")
        _require(sharper_eps.encloses(sharper_n), "more known indices must narrow the enclosure")
        _require(sharper_n.encloses(sharpest), "more known indices must narrow the enclosure")

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


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _render_trace(trace: FixpointTrace) -> str:
    arrows = " -> ".join(format_rational(v) for v in trace.iterates)
    plural = "" if trace.steps == 1 else "s"
    return f"{arrows}  ({trace.steps} step{plural})"


def _print_certificate(cert: EscapeCertificate) -> None:
    print(f"escape value: {format_rational(cert.x0)}")
    print(f"descent: {_render_trace(cert.trace)}")
    print(f"oracle agreement: {'yes' if cert.oracle_agreement else 'no'}")
    print("verdicts:")
    for v in cert.verdicts:
        where = "all tail indices" if v.where == "tail" else f"index {v.where}"
        print(f"  {where}: {format_rational(v.value)}, {v.relation} by {format_rational(v.gap)}")


def _cmd_escape(args: argparse.Namespace, budget: int) -> int:
    spec = args.spec
    if args.mode == "exact":
        cert = compute_escape(spec, budget)
        if args.output == "structured":
            _emit_json(certificate_to_jsonable(cert))
        else:
            _print_certificate(cert)
        return 0
    enclosure, lo_trace, hi_trace = enclose_escape_traced(
        intervalize(spec), args.n_known, args.eps, budget
    )
    if args.output == "structured":
        _emit_json({
            "lo": format_rational(enclosure.lo),
            "hi": format_rational(enclosure.hi),
            "lower_trace": [format_rational(v) for v in lo_trace.iterates],
            "upper_trace": [format_rational(v) for v in hi_trace.iterates],
        })
    else:
        print(f"enclosure: [{format_rational(enclosure.lo)}, {format_rational(enclosure.hi)}]")
        print(f"width: {format_rational(enclosure.width)}")
        print(f"lower descent: {_render_trace(lo_trace)}")
        print(f"upper descent: {_render_trace(hi_trace)}")
    return 0


def _cmd_check(args: argparse.Namespace, budget: int) -> int:
    results = run_invariant_battery(args.spec, seed=args.seed, budget=budget)
    for name, passed, note in results:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({note})" if note else ""
        print(f"check {name}: {status}{suffix}")
    passed_count = sum(1 for _, passed, _ in results if passed)
    print(f"invariants: {passed_count}/{len(results)} passed")
    return 0 if passed_count == len(results) else 1


def _cmd_demo_adjoin(args: argparse.Namespace, budget: int) -> int:
    spec = args.spec
    before, extended, after = adjoin_escape_demo(spec, budget)
    step = dyadic_weight(len(spec.prefix))
    print(f"escape value before: {format_rational(before.x0)}")
    print(f"appended at index {len(spec.prefix)}: {format_rational(before.x0)}")
    print(f"spec after append: {json.dumps(spec_to_jsonable(extended), sort_keys=True)}")
    print(f"escape value after: {format_rational(after.x0)}")
    print(
        f"rise: {format_rational(after.x0 - before.x0)}"
        f" (guaranteed at least {format_rational(step)})"
    )
    return 0


def _cmd_kt_selftest(args: argparse.Namespace, budget: int) -> int:
    del budget  # lattice iteration is bounded by lattice size, not the descent budget
    count, failures = run_kt_battery(count=args.count, seed=args.seed)
    print(f"self-test: {count} lattices checked, {len(failures)} failures")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escapepoint",
        description="Exact escape values for prefix-plus-rule enumerations of rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    escape = sub.add_parser("escape", help="compute the escape value of a spec")
    escape.add_argument("spec", help="path to a spec JSON file, or - for stdin")
    escape.add_argument("--mode", choices=("exact", "interval"), default="exact",
                        help="exact rational answer, or an interval enclosure")
    escape.add_argument("--n-known", type=int, default=8, metavar="N",
                        help="interval mode: indices with known enclosures (default 8)")
    escape.add_argument("--eps", default="1/128", metavar="P/Q",
                        help="interval mode: enclosure width to query at (default 1/128)")
    escape.add_argument("--output", choices=("text", "structured"), default="text",
                        help="human-readable text or canonical JSON")
    escape.set_defaults(handler=_cmd_escape)

    check = sub.add_parser("check", help="run the invariant battery against a spec")
    check.add_argument("spec", help="path to a spec JSON file, or - for stdin")
    check.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    check.set_defaults(handler=_cmd_check)

    demo = sub.add_parser("demo-adjoin", help="append the escape value and recompute")
    demo.add_argument("spec", help="path to a spec JSON file, or - for stdin")
    demo.set_defaults(handler=_cmd_demo_adjoin)

    selftest = sub.add_parser("kt-selftest", help="fuzz the fixpoint engine on finite lattices")
    selftest.add_argument("--count", type=int, default=200, help="lattices to try (default 200)")
    selftest.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    selftest.set_defaults(handler=_cmd_kt_selftest)
    return parser


def _iteration_budget() -> int:
    raw = os.environ.get("ESCAPE_ITER_BUDGET")
    if raw is None:
        return DEFAULT_ITERATION_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"ESCAPE_ITER_BUDGET must be a positive integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"ESCAPE_ITER_BUDGET must be a positive integer, got {raw!r}")
    return budget


def main(argv: Optional[Sequence[str]] = None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        args = _build_parser().parse_args(argv)
        budget = _iteration_budget()
        # parse the input under the interpreter's int digit limit, so that an
        # oversized number is refused instead of costing quadratic time; then
        # lift the limit for this call only, since results and the messages
        # quoting them can need more digits (2^-16384 has 4933)
        if "spec" in args:
            args.spec = parse_spec(_read_text(args.spec))
        if getattr(args, "mode", None) == "interval":
            args.eps = parse_rational(args.eps)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return args.handler(args, budget)
    # TheoremViolationError is deliberately not handled: it means the library
    # itself is inconsistent, and that should crash loudly.
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        iterates = exc.trace.iterates
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"partial trace: {len(iterates)} iterates, last {format_rational(iterates[-1])}",
            file=sys.stderr,
        )
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
