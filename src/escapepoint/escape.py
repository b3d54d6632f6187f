"""Escape certificates: the computed value, why it is fixed, why it is missed.

``compute_escape`` runs the descent, whose settling step shows the result is
a fixpoint of the weight map, and cross-checks it against the supremum
oracle.  Its certificate keeps the settled trace, whose last iterate is x0,
and one row (where, p, q) per place the enumeration could have produced x0,
with its value reduced: each prefix index, then the tail places of
``enumeration._tail_places`` -- one ``"tail"`` row per distinct block value
of a periodic tail, in ascending order, or an affine tail's closest-approach
index (the line is monotone, so no other tail value is nearer).  Those are
every value that could equal x0, so a row equal to x0 is the one refusal of
an enumerated x0: ``TheoremViolationError``, not a broken certificate.

A verdict follows from a row and x0, and ``_verdict`` is its one formula:
for x0 = n/d, diff = p*d - n*q gives the relation by its sign and the gap
|diff| / (q*d), from x0's integers.  ``certificate_to_jsonable`` is the one
renderer: one loop builds the verdict dicts, each distinct value's verdict
and texts once, and the CLI's text output reads the same dicts.
``certificate_from_jsonable`` checks a document's verdicts against it.

``enclose_escape_traced`` brackets the escape value from interval queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .enumeration import (
    Constant,
    EnumerationSpec,
    SpecError,
    _expect_keys,
    _read_pair,
    _tail_places,
    check_exponent_bound,
)
from .fixpoint import FixpointTrace, descend_from_top, gfp_descend, sup_postfix_oracle
from .numerics import RatInterval, dyadic_weight, format_pair, format_rational
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


# (where, p, q): a place the enumeration could have produced x0, and its value p/q, reduced, q > 0
VerdictRow = tuple[Union[int, str], int, int]

_UNSETTLED = "certificate: certificate trace must be a settled descent ending at the escape value"


@dataclass(frozen=True, init=False)
class EscapeCertificate:
    """Everything needed to audit one escape computation.

    A settled descent trace, whose last iterate is the escape value ``x0``,
    and one row per place the enumeration could have produced x0 (``_verdicts``),
    none equal to x0; a row's relation and gap follow from its value and x0
    (``_verdict``).  Built only by ``_of_rows``, for ``compute_escape`` and
    ``certificate_from_jsonable``.
    """

    trace: FixpointTrace
    oracle_agreement: bool
    rows: tuple[VerdictRow, ...]

    @property
    def x0(self) -> Fraction:
        """The escape value: where the descent settled."""
        return self.trace.iterates[-1]

    @classmethod
    def _of_rows(cls, trace: FixpointTrace, rows: tuple[VerdictRow, ...],
                 oracle_agreement: bool) -> "EscapeCertificate":
        """The certificate of a settled trace and rows its caller has checked against x0."""
        if not trace.terminated:
            raise ValueError(_UNSETTLED)
        cert = object.__new__(cls)
        cert.__dict__.update(trace=trace, oracle_agreement=oracle_agreement, rows=rows)
        return cert


def _verdict(p: int, q: int, num: int, d: int) -> tuple[str, int, int]:
    """(relation, gap_p, gap_q) of p/q against x0 = num/d, the gap reduced; 0/1 if p/q is x0."""
    diff, gap_q = p * d - num * q, q * d
    g = math.gcd(diff, gap_q)
    return "below" if diff < 0 else "above", abs(diff) // g, gap_q // g


def _verdicts(spec: EnumerationSpec, x0: Fraction) -> tuple[VerdictRow, ...]:
    """The row of each prefix index, then of each tail place ``_tail_places`` gives.

    One cross-multiplication per row shows x0 is not enumerated; a value
    equal to x0 raises ``TheoremViolationError`` naming its place.
    """
    num, d = x0.numerator, x0.denominator
    rows = (*((n, p, q) for n, (p, q) in enumerate(spec.prefix_pairs)),
            *((where, p, q) for (p, q), (where, _) in _tail_places(spec, num, d).items()))
    for where, p, q in rows:
        if p * d == num * q:
            raise TheoremViolationError(
                f"escape value {format_rational(x0)} is the enumerated value at {where!r}")
    return rows


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
    return EscapeCertificate._of_rows(trace, _verdicts(spec, x0), True)


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


def certificate_to_jsonable(cert: EscapeCertificate) -> dict:
    """Certificate as JSON-ready primitives; inverse of certificate_from_jsonable."""
    num, d = cert.x0.numerator, cert.x0.denominator
    texts, verdicts = {}, []
    for where, p, q in cert.rows:
        text = texts.get((p, q))
        if text is None:
            relation, gap_p, gap_q = _verdict(p, q, num, d)
            text = texts[p, q] = format_pair(p, q), relation, format_pair(gap_p, gap_q)
        value, relation, gap = text
        verdicts.append({"where": where, "value": value, "relation": relation, "gap": gap})
    return {
        "x0": format_pair(num, d),
        "trace": [format_pair(v.numerator, v.denominator) for v in cert.trace.iterates],
        "verdicts": verdicts,
        "oracle_agreement": cert.oracle_agreement,
    }


def certificate_from_jsonable(obj: object) -> EscapeCertificate:
    """Rebuild and re-validate a certificate from its JSON form.

    Checks shape and internal consistency: the trace settles at x0, and each
    verdict's relation and gap are ``_verdict``'s for its value.  Whether x0
    is right for a particular enumeration is a question about the
    enumeration, not the certificate, so pair this with ``compute_escape``
    when provenance matters.  Numbers parse under the interpreter's int
    digit limit (4300 digits by default), and a longer one is refused with
    a ``ValueError`` naming its field: ``Affine(1/8191, 0)``'s certificate,
    whose x0 has 4932 digits, reads back only under a raised limit.
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
    num, d = _read_pair(obj["x0"], "x0")
    raw_trace = obj["trace"]
    if not isinstance(raw_trace, list) or not raw_trace:
        raise ValueError("trace: expected a non-empty array of rationals")
    iterates = tuple(Fraction(*_read_pair(v, "trace", i)) for i, v in enumerate(raw_trace))
    try:
        trace = FixpointTrace(iterates)
    except ValueError as exc:
        raise ValueError(f"trace: {exc}") from None
    if iterates[-1] != Fraction(num, d):
        raise ValueError(_UNSETTLED)
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
        p, q = _read_pair(raw["value"], f"{path}.value")
        gap = _read_pair(raw["gap"], f"{path}.gap")
        if gap[0] <= 0:
            raise ValueError(f"{path}: gap must be positive, got {format_pair(*gap)}")
        if _verdict(p, q, num, d) != (relation, *gap):
            # this refuses a value equal to x0 too: _verdict gives it gap 0, and this gap is positive
            raise ValueError(f"certificate: verdict {i} is inconsistent with escape value {format_pair(num, d)}")
        rows.append((where, p, q))
    agreement = obj["oracle_agreement"]
    if not isinstance(agreement, bool):
        raise ValueError(f"oracle_agreement: expected true or false, got {agreement!r}")
    return EscapeCertificate._of_rows(trace, tuple(rows), agreement)
