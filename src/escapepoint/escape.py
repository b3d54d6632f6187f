"""Escape certificates: the computed value, why it is fixed, why it is missed.

``compute_escape`` runs the descent, whose settling step shows the result is
a fixpoint of the weight map, cross-checks it against the supremum oracle,
and then builds one verdict per place the enumeration could have produced it:

* each prefix index gets a verdict with the exact gap to the escape value;
* a periodic tail (a constant, or a cycle of the prefix) gets one ``"tail"``
  verdict per distinct value of its block, in ascending order;
* an affine tail gets a verdict at its closest-approach index -- the tail is
  strictly monotone in the index, so every other tail value is at least as
  far away as the witnessed one.

Every verdict compares by exact integer cross-multiplication: for a value
p/q and x0 = n/d, diff = p*d - n*q gives the relation by its sign and the
gap |diff| / (q*d), computed once per distinct value.  The tail's places
come from ``enumeration._tail_places``, the one solver for which tail
values could equal x0 (``tail_hits`` asks it too), so a zero diff is the
one refusal of an enumerated x0: it raises ``TheoremViolationError``
rather than producing a broken certificate.  The verdicts are integer rows
(``VerdictRow``), the certificate's one stored form; ``_of_rows`` builds
every certificate and audits each row again the same way.

``enclose_escape_traced`` brackets the escape value from interval queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Union

from .enumeration import (
    Constant,
    EnumerationSpec,
    SpecError,
    _expect_keys,
    _rational_at,
    _tail_places,
    check_exponent_bound,
)
from .fixpoint import FixpointTrace, descend_from_top, gfp_descend, sup_postfix_oracle
from .numerics import RatInterval, as_fraction, dyadic_weight, format_pair, format_rational
from .weight_map import box_classifier, query_boxes

__all__ = [
    "TheoremViolationError",
    "DemoNotApplicableError",
    "EscapeCertificate",
    "compute_escape",
    "adjoin_escape_demo",
    "enclose_escape_traced",
    "certificate_to_jsonable",
    "certificate_from_jsonable",
]


class TheoremViolationError(RuntimeError):
    """An internal consistency check failed; the computation cannot be trusted."""


class DemoNotApplicableError(ValueError):
    """The requested demonstration has a precondition this input does not meet."""


# (where, p, q, relation, gap_p, gap_q): one verdict, its value p/q and gap reduced, q and gap_q > 0
VerdictRow = tuple[Union[int, str], int, int, str, int, int]


@dataclass(frozen=True, init=False)
class EscapeCertificate:
    """Everything needed to audit one escape computation.

    The trace must be a settled descent ending at ``x0``; the verdict rows
    separate ``x0`` from every enumerated value.  A certificate comes from
    ``compute_escape`` or ``certificate_from_jsonable``, both through
    ``_of_rows``, which audits each row by exact integer cross-multiplication:
    with x0 = n/d and diff = p*d - n*q, the diff is nonzero, its sign gives
    the relation, and gap_p/gap_q = |diff|/(q*d).
    """

    x0: Fraction
    trace: FixpointTrace
    oracle_agreement: bool
    rows: tuple[VerdictRow, ...]

    @classmethod
    def _of_rows(cls, x0: Fraction, trace: FixpointTrace, rows: tuple[VerdictRow, ...],
                 oracle_agreement: bool) -> "EscapeCertificate":
        """The certificate of these rows, each audited."""
        x0 = as_fraction(x0, "escape value")
        if not trace.terminated or trace.iterates[-1] != x0:
            raise ValueError("certificate trace must be a settled descent ending at the escape value")
        num, den = x0.numerator, x0.denominator
        for i, (_, p, q, relation, gap_p, gap_q) in enumerate(rows):
            diff = p * den - num * q
            expected = "below" if diff < 0 else "above"
            if diff == 0 or relation != expected or gap_p * q * den != abs(diff) * gap_q:
                raise ValueError(f"verdict {i} is inconsistent with escape value {format_rational(x0)}")
        cert = object.__new__(cls)
        for name, value in (("x0", x0), ("trace", trace), ("oracle_agreement", oracle_agreement), ("rows", rows)):
            object.__setattr__(cert, name, value)
        return cert


def _verdicts(spec: EnumerationSpec, x0: Fraction) -> tuple[VerdictRow, ...]:
    """The row of each prefix index, then of each tail place ``_tail_places`` gives.

    ``first`` maps each compared pair to its first row, so a value met
    again, in the prefix or in a periodic tail's block, reuses its value,
    relation and gap.  The tail places are every tail value that could
    equal x0, so a zero diff anywhere means x0 is enumerated, and raises
    ``TheoremViolationError`` naming the place.
    """
    num, d = x0.numerator, x0.denominator
    tail = ((where, pair) for pair, (where, _) in _tail_places(spec, num, d).items())
    rows = []
    first: dict[tuple[int, int], VerdictRow] = {}
    for where, pair in chain(enumerate(spec.prefix_pairs), tail):
        seen = first.get(pair)
        if seen is None:
            p, q = pair
            diff = p * d - num * q
            if diff == 0:
                raise TheoremViolationError(
                    f"escape value {format_rational(x0)} is the enumerated value at {where!r}")
            gap_p, gap_q = abs(diff), q * d
            g = math.gcd(gap_p, gap_q)
            seen = first[pair] = (p, q, "below" if diff < 0 else "above", gap_p // g, gap_q // g)
        rows.append((where,) + seen)
    return tuple(rows)


def compute_escape(spec: EnumerationSpec) -> EscapeCertificate:
    """Compute the escape value of an enumeration and certify it.

    The returned value is the greatest postfixpoint of the spec's weight map;
    the certificate's settled trace shows it is a fixpoint, it matches the
    independent supremum oracle, and it differs from every enumerated value
    by an explicit positive gap.  An affine tail whose cut at 0 or at 2
    lies past ``MAX_TAIL_CUT`` is refused with ``ExponentBoundError``
    before the map is evaluated.
    """
    check_exponent_bound(spec)
    x0, trace = gfp_descend(spec)
    oracle = sup_postfix_oracle(spec)
    if oracle != x0:
        raise TheoremViolationError(
            f"descent found {format_rational(x0)} but the supremum oracle found {format_rational(oracle)}")
    return EscapeCertificate._of_rows(x0, trace, _verdicts(spec, x0), True)


def adjoin_escape_demo(spec: EnumerationSpec) -> tuple[EscapeCertificate, EnumerationSpec, EscapeCertificate]:
    """Append the escape value to the enumeration and watch the value move.

    Returns (certificate before, extended spec, certificate after).  Only
    constant tails are supported: appending to the prefix re-derives cycling
    and affine tails, which would change the enumeration at infinitely many
    places instead of one.  The constant must sit at least one appended-index
    weight above the old escape value -- then the new escape value provably
    rises by at least 2^-L, where L is the old prefix length.  Any other
    tail is refused before an escape value is computed.
    """
    if not isinstance(spec.tail, Constant):
        raise DemoNotApplicableError(
            "appending the escape value needs a constant tail; cycling and affine "
            "tails change meaning when the prefix grows"
        )
    before = compute_escape(spec)
    x0 = before.x0
    threshold = x0 + dyadic_weight(len(spec.prefix))
    if spec.tail.value < threshold:
        raise DemoNotApplicableError(
            f"constant tail value {format_rational(spec.tail.value)} is below {format_rational(threshold)}; "
            "the appended value would displace tail weight instead of adding to it"
        )
    extended = EnumerationSpec(prefix=spec.prefix + (x0,), tail=spec.tail)
    after = compute_escape(extended)
    if after.x0 < threshold:
        raise TheoremViolationError(
            f"appending the escape value should raise it to at least {format_rational(threshold)}, "
            f"got {format_rational(after.x0)}"
        )
    return before, extended, after


def enclose_escape_traced(
    oracle: Callable[[int, Fraction], RatInterval],
    n_known: int,
    eps: Fraction,
) -> tuple[RatInterval, FixpointTrace, FixpointTrace]:
    """Enclose the escape value from interval queries only: (enclosure, lower trace, upper trace).

    Runs the descent twice, once on the lower and once on the upper weight
    bound; both bound maps are monotone and bracket the true map, so the pair
    of settled values brackets the true escape value.  ``query_boxes`` asks
    the oracle once for each index 0, ..., n_known-1, in order, before either
    descent, checking eps once and each box's width as it arrives.  Each
    descent runs one of the two bound maps of one ``box_classifier`` over
    those boxes, which keeps one row per distinct box: each step tests every
    distinct box once, on the one end its side reads, in time linear in n_known.
    The oracle contract (``query_boxes``) makes answers deterministic per
    (n, eps), so sharing the boxes gives the bounds fresh queries would.
    Each bound map moves only past the n_known box ends on its side, so it
    takes at most n_known + 1 values and each descent settles within
    n_known + 2 steps.
    """
    lower, upper = box_classifier(tuple(query_boxes(oracle, n_known, eps)))
    lo, lo_trace = descend_from_top(lower, n_known + 2)
    hi, hi_trace = descend_from_top(upper, n_known + 2)
    return RatInterval(lo, hi), lo_trace, hi_trace


def _rendered_rows(cert: EscapeCertificate) -> Iterator[tuple[Union[int, str], str, str, str]]:
    """(where, value text, relation, gap text) of each row, each distinct value formatted once."""
    texts: dict[tuple[int, int], tuple[str, str]] = {}
    for where, p, q, relation, gap_p, gap_q in cert.rows:
        text = texts.get((p, q))
        if text is None:
            text = texts[p, q] = format_pair(p, q), format_pair(gap_p, gap_q)
        yield where, text[0], relation, text[1]


def certificate_to_jsonable(cert: EscapeCertificate) -> dict:
    """Certificate as JSON-ready primitives; inverse of certificate_from_jsonable."""
    return {
        "x0": format_rational(cert.x0),
        "trace": [format_rational(v) for v in cert.trace.iterates],
        "verdicts": [
            {"where": where, "value": value, "relation": relation, "gap": gap}
            for where, value, relation, gap in _rendered_rows(cert)
        ],
        "oracle_agreement": cert.oracle_agreement,
    }


def certificate_from_jsonable(obj: object) -> EscapeCertificate:
    """Rebuild and re-validate a certificate from its JSON form.

    Checks shape and internal consistency (trace settles at x0, every gap is
    exact and positive).  Whether x0 is right for a particular enumeration is
    a question about the enumeration, not the certificate, so pair this with
    ``compute_escape`` when provenance matters.
    """
    try:
        return _certificate_from_dict(obj)
    except SpecError as exc:
        # the spec decoder's errors, reported as plain certificate errors
        raise ValueError(str(exc)) from None


def _certificate_from_dict(obj: object) -> EscapeCertificate:
    if not isinstance(obj, dict):
        raise ValueError(f"certificate: expected an object, got {type(obj).__name__}")
    _expect_keys(obj, {"x0", "trace", "verdicts", "oracle_agreement"}, "certificate")
    x0 = _rational_at(obj["x0"], "x0")
    raw_trace = obj["trace"]
    if not isinstance(raw_trace, list) or not raw_trace:
        raise ValueError("trace: expected a non-empty array of rationals")
    iterates = tuple(_rational_at(v, "trace", i) for i, v in enumerate(raw_trace))
    try:
        trace = FixpointTrace(iterates)
    except ValueError as exc:
        raise ValueError(f"trace: {exc}") from None
    raw_verdicts = obj["verdicts"]
    if not isinstance(raw_verdicts, list):
        raise ValueError("verdicts: expected an array")
    rows = []
    for i, raw in enumerate(raw_verdicts):
        path = f"verdicts[{i}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected an object")
        _expect_keys(raw, {"where", "value", "relation", "gap"}, path)
        where, relation = raw["where"], raw["relation"]
        if isinstance(where, bool) or not (where == "tail" or isinstance(where, int) and where >= 0):
            raise ValueError(f"{path}: where must be a non-negative index or 'tail', got {where!r}")
        if relation not in ("below", "above"):
            raise ValueError(f"{path}: relation must be 'below' or 'above', got {relation!r}")
        value = _rational_at(raw["value"], f"{path}.value")
        gap = _rational_at(raw["gap"], f"{path}.gap")
        if gap <= 0:
            raise ValueError(f"{path}: gap must be positive, got {format_rational(gap)}")
        rows.append((where, value.numerator, value.denominator, relation, gap.numerator, gap.denominator))
    agreement = obj["oracle_agreement"]
    if not isinstance(agreement, bool):
        raise ValueError(f"oracle_agreement: expected true or false, got {agreement!r}")
    try:
        return EscapeCertificate._of_rows(x0, trace, tuple(rows), agreement)
    except ValueError as exc:
        raise ValueError(f"certificate: {exc}") from None
