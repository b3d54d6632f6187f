"""Command-line interface: parse arguments, dispatch, render.

Four subcommands: ``escape`` computes the escape value of a spec (exactly, or
as an interval enclosure from imprecise queries), ``check`` runs the
invariant battery of ``escapepoint.selftest`` against a spec,
``demo-adjoin`` appends the escape value to its own enumeration and shows the
value move, ``kt-selftest`` fuzzes the fixpoint engine on random finite
lattices (also in ``escapepoint.selftest``).

Specs are JSON files (``-`` reads stdin); structured output is canonical
JSON (two-space indent, sorted keys) so byte-identical inputs give
byte-identical outputs.  Each descent's step bound follows from its input
(see ``escapepoint.fixpoint.descend_from_top``); no setting caps it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .enumeration import EnumerationSpec, SpecError, intervalize, spec_from_jsonable, spec_to_jsonable
from .escape import (
    EscapeCertificate,
    _rendered_rows,
    adjoin_escape_demo,
    certificate_to_jsonable,
    compute_escape,
    enclose_escape_traced,
)
from .fixpoint import FixpointTrace
from .numerics import dyadic_weight, format_rational, parse_rational
from .selftest import run_invariant_battery, run_kt_battery

__all__ = ["main", "parse_spec"]


def parse_spec(text: str) -> EnumerationSpec:
    """Parse a JSON spec document into an EnumerationSpec."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise SpecError(f"invalid JSON: {exc}") from None
    return spec_from_jsonable(obj)


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
    for where, value, relation, gap in _rendered_rows(cert):
        where = "all tail indices" if where == "tail" else f"index {where}"
        print(f"  {where}: {value}, {relation} by {gap}")


def _cmd_escape(args: argparse.Namespace) -> int:
    spec = args.spec
    if args.mode == "exact":
        cert = compute_escape(spec)
        if args.output == "structured":
            _emit_json(certificate_to_jsonable(cert))
        else:
            _print_certificate(cert)
        return 0
    enclosure, lo_trace, hi_trace = enclose_escape_traced(intervalize(spec), args.n_known, args.eps)
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


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_invariant_battery(args.spec, seed=args.seed)
    for name, passed, note in results:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({note})" if note else ""
        print(f"check {name}: {status}{suffix}")
    passed_count = sum(1 for _, passed, _ in results if passed)
    print(f"invariants: {passed_count}/{len(results)} passed")
    return 0 if passed_count == len(results) else 1


def _cmd_demo_adjoin(args: argparse.Namespace) -> int:
    spec = args.spec
    before, extended, after = adjoin_escape_demo(spec)
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


def _cmd_kt_selftest(args: argparse.Namespace) -> int:
    failures = run_kt_battery(count=args.count, seed=args.seed)
    print(f"self-test: {args.count} lattices checked, {len(failures)} failures")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # parse and run under the caller's int digit limit, so that an oversized input
        # number is refused instead of costing quadratic time; results and messages
        # quote numbers through format_rational, which renders past the limit
        if "spec" in args:
            args.spec = parse_spec(_read_text(args.spec))
        if getattr(args, "mode", None) == "interval":
            args.eps = parse_rational(args.eps)
        return args.handler(args)
    # TheoremViolationError and BudgetExceededError are deliberately not
    # handled: each means the library itself is inconsistent (a descent that
    # outruns its derived bound miscounted the map's values), and that
    # should crash loudly.
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
