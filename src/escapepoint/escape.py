"""Escape certificates: the computed value, why it is fixed, why it is missed.

``compute_escape`` runs the descent, confirms the result is a fixpoint of the
weight map, cross-checks it against the supremum oracle, and then builds one
verdict per place the enumeration could have produced it:

* each prefix index gets a verdict with the exact gap to the escape value;
* a constant tail gets a single verdict covering every tail index;
* a cycling tail gets one verdict per distinct repeated value;
* an affine tail gets a verdict at its closest-approach index -- the tail is
  strictly monotone in the index, so every other tail value is at least as
  far away as the witnessed one.

Every verdict compares by exact integer cross-multiplication: for a value
p/q and x0 = n/d, diff = p*d - n*q gives the relation by its sign and the
gap |diff| / (q*d), computed once per distinct value.  A zero diff means the
claimed escape value is actually enumerated and raises
``TheoremViolationError`` rather than producing a broken certificate.  The
certificate audit checks every verdict again the same way.

``enclose_escape_traced`` brackets the escape value from interval queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .enumeration import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    IntervalEnumeration,
    SpecError,
    _ascending,
    _expect_keys,
    _rational_at,
    affine_cut,
    check_exponent_bound,
    tail_hits,
    value_at,
)
from .fixpoint import FixpointTrace, descend_from_top, gfp_descend, sup_postfix_oracle
from .numerics import RatInterval, as_fraction, dyadic_weight, format_rational
from .weight_map import box_classifier, query_boxes, weight_below

__all__ = [
    "TheoremViolationError",
    "DemoNotApplicableError",
    "Verdict",
    "EscapeCertificate",
    "compute_escape",
    "adjoin_escape_demo",
    "enclose_escape_traced",
    "certificate_to_jsonable",
    "certificate_from_jsonable",
]

_RELATIONS = ("below", "above")


class TheoremViolationError(RuntimeError):
    """An internal consistency check failed; the computation cannot be trusted."""


class DemoNotApplicableError(ValueError):
    """The requested demonstration has a precondition this input does not meet."""


@dataclass(frozen=True)
class Verdict:
    """One enumerated value compared against the escape value.

    ``where`` is a prefix or tail index when the verdict pins a single
    position, or the string ``"tail"`` when the same value occurs at every
    (or infinitely many) tail positions.  ``gap`` is the exact distance
    |value - escape value| and must be positive.
    """

    where: Union[int, str]
    value: Fraction
    relation: str
    gap: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.where, bool) or (
            not isinstance(self.where, int) and self.where != "tail"
        ):
            raise ValueError(f"where must be an index or 'tail', got {self.where!r}")
        if isinstance(self.where, int) and self.where < 0:
            raise ValueError(f"where must be a non-negative index, got {self.where}")
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_fraction(self.value, "verdict value"))
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be 'below' or 'above', got {self.relation!r}")
        if not isinstance(self.gap, Fraction):
            object.__setattr__(self, "gap", as_fraction(self.gap, "verdict gap"))
        if self.gap.numerator <= 0:
            raise ValueError(f"verdict gap must be positive, got {self.gap}")


@dataclass(frozen=True)
class EscapeCertificate:
    """Everything needed to audit one escape computation.

    The trace must be a settled descent ending at ``x0``; the verdicts
    separate ``x0`` from every enumerated value.  Construction audits each
    verdict by exact integer cross-multiplication: with value p/q, x0 = n/d
    and diff = p*d - n*q, the diff is nonzero, its sign gives the relation,
    and the gap is |diff| / (q*d).
    """

    x0: Fraction
    trace: FixpointTrace
    verdicts: tuple[Verdict, ...]
    oracle_agreement: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", as_fraction(self.x0, "escape value"))
        object.__setattr__(self, "verdicts", tuple(self.verdicts))
        if not self.trace.terminated or self.trace.iterates[-1] != self.x0:
            raise ValueError("certificate trace must be a settled descent ending at the escape value")
        num, den = self.x0.numerator, self.x0.denominator
        for i, v in enumerate(self.verdicts):
            p, q = v.value.numerator, v.value.denominator
            diff = p * den - num * q
            expected = "below" if diff < 0 else "above"
            gap = v.gap
            if diff == 0 or v.relation != expected or gap.numerator * q * den != abs(diff) * gap.denominator:
                raise ValueError(f"verdict {i} is inconsistent with escape value {self.x0}")


def _tail_verdicts(spec: EnumerationSpec, x0: Fraction, distinct: dict) -> list[Verdict]:
    """The tail's verdicts; ``distinct`` maps each prefix pair to its first verdict."""
    tail = spec.tail
    start = len(spec.prefix)
    if isinstance(tail, Constant):
        return [_compare(x0, "tail", tail.value)]
    if isinstance(tail, Cycle):
        # the distinct prefix values, ascending, with the prefix's relations and gaps
        firsts = (distinct[pair] for pair in _ascending(distinct))
        return [Verdict("tail", v.value, v.relation, v.gap) for v in firsts]
    assert isinstance(tail, Affine)
    # closest approach of a*n + b to x0 over integer n >= start: the tail
    # crosses x0 between the cut and the index before it
    cut = affine_cut(spec, x0)
    near = (_compare(x0, n, value_at(spec, n)) for n in sorted({max(start, cut - 1), cut}))
    return [min(near, key=lambda v: (v.gap, v.relation != "below"))]


def _compare(x0: Fraction, where: Union[int, str], value: Fraction) -> Verdict:
    """The verdict on one value, by one integer cross-multiplication with x0."""
    q, den = value.denominator, x0.denominator
    diff = value.numerator * den - x0.numerator * q
    if diff == 0:
        raise TheoremViolationError(f"escape value {x0} is the enumerated value at {where!r}")
    return Verdict(where, value, "below" if diff < 0 else "above", Fraction(abs(diff), q * den))


def compute_escape(spec: EnumerationSpec) -> EscapeCertificate:
    """Compute the escape value of an enumeration and certify it.

    The returned value is the greatest postfixpoint of the spec's weight map;
    the certificate shows it is a genuine fixpoint, matches the independent
    supremum oracle, and differs from every enumerated value by an explicit
    positive gap.  An affine tail whose cut at 0 or at 2 lies past
    ``MAX_TAIL_CUT`` is refused with ``ExponentBoundError`` before the map
    is evaluated.
    """
    check_exponent_bound(spec)
    x0, trace = gfp_descend(spec)
    witness = weight_below(spec, x0)
    if witness != x0:
        raise TheoremViolationError(
            f"descent settled at {x0} but the map sends it to {witness}"
        )
    oracle = sup_postfix_oracle(spec)
    if oracle != x0:
        raise TheoremViolationError(
            f"descent found {x0} but the supremum oracle found {oracle}"
        )
    if tail_hits(spec, x0):
        raise TheoremViolationError(f"escape value {x0} is produced by the tail rule")
    verdicts = []
    distinct: dict[tuple[int, int], Verdict] = {}  # each prefix pair's first verdict
    for i, (value, pair) in enumerate(zip(spec.prefix, spec.prefix_pairs)):
        first = distinct.get(pair)
        if first is None:
            distinct[pair] = first = _compare(x0, i, value)
            verdicts.append(first)
        else:
            verdicts.append(Verdict(i, value, first.relation, first.gap))
    verdicts.extend(_tail_verdicts(spec, x0, distinct))
    return EscapeCertificate(
        x0=x0,
        trace=trace,
        verdicts=tuple(verdicts),
        oracle_agreement=True,
    )


def adjoin_escape_demo(spec: EnumerationSpec) -> tuple[EscapeCertificate, EnumerationSpec, EscapeCertificate]:
    """Append the escape value to the enumeration and watch the value move.

    Returns (certificate before, extended spec, certificate after).  Only
    constant tails are supported: appending to the prefix re-derives cycling
    and affine tails, which would change the enumeration at infinitely many
    places instead of one.  The constant must sit at least one appended-index
    weight above the old escape value -- then the new escape value provably
    rises by at least 2^-L, where L is the old prefix length.
    """
    before = compute_escape(spec)
    x0 = before.x0
    if not isinstance(spec.tail, Constant):
        raise DemoNotApplicableError(
            "appending the escape value needs a constant tail; cycling and affine "
            "tails change meaning when the prefix grows"
        )
    threshold = x0 + dyadic_weight(len(spec.prefix))
    if spec.tail.value < threshold:
        raise DemoNotApplicableError(
            f"constant tail value {spec.tail.value} is below {threshold}; the appended "
            "value would displace tail weight instead of adding to it"
        )
    extended = EnumerationSpec(prefix=spec.prefix + (x0,), tail=spec.tail)
    after = compute_escape(extended)
    if after.x0 < threshold:
        raise TheoremViolationError(
            f"appending the escape value should raise it to at least {threshold}, got {after.x0}"
        )
    return before, extended, after


def enclose_escape_traced(
    ienum: IntervalEnumeration,
    n_known: int,
    eps: Fraction,
) -> tuple[RatInterval, FixpointTrace, FixpointTrace]:
    """Enclose the escape value from interval queries only: (enclosure, lower trace, upper trace).

    Runs the descent twice, once on the lower and once on the upper weight
    bound; both bound maps are monotone and bracket the true map, so the pair
    of settled values brackets the true escape value.  Each index
    0, ..., n_known-1 is queried once, before either descent, and both
    descents share one ``box_classifier`` over those boxes, which keeps one
    row per distinct box (``intervalize`` returns one shared box per
    repeated value): each step tests every distinct box once, in time
    linear in n_known.
    The IntervalEnumeration contract makes answers deterministic per
    (n, eps), so sharing the boxes gives the bounds fresh queries would.
    Each bound map moves only past the n_known box ends on its side, so it
    takes at most n_known + 1 values and each descent settles within
    n_known + 2 steps.
    """
    bounds = box_classifier(tuple(query_boxes(ienum, n_known, eps)))
    lo, lo_trace = descend_from_top(lambda z: bounds(z).lo, n_known + 2)
    hi, hi_trace = descend_from_top(lambda z: bounds(z).hi, n_known + 2)
    return RatInterval(lo, hi), lo_trace, hi_trace


def certificate_to_jsonable(cert: EscapeCertificate) -> dict:
    """Certificate as JSON-ready primitives; inverse of certificate_from_jsonable."""
    return {
        "x0": format_rational(cert.x0),
        "trace": [format_rational(v) for v in cert.trace.iterates],
        "verdicts": [
            {
                "where": v.where,
                "value": format_rational(v.value),
                "relation": v.relation,
                "gap": format_rational(v.gap),
            }
            for v in cert.verdicts
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
    iterates = tuple(_rational_at(v, f"trace[{i}]") for i, v in enumerate(raw_trace))
    try:
        trace = FixpointTrace(iterates)
    except ValueError as exc:
        raise ValueError(f"trace: {exc}") from None
    raw_verdicts = obj["verdicts"]
    if not isinstance(raw_verdicts, list):
        raise ValueError("verdicts: expected an array")
    verdicts = []
    for i, raw in enumerate(raw_verdicts):
        path = f"verdicts[{i}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected an object")
        _expect_keys(raw, {"where", "value", "relation", "gap"}, path)
        value = _rational_at(raw["value"], f"{path}.value")
        gap = _rational_at(raw["gap"], f"{path}.gap")
        try:
            verdicts.append(Verdict(where=raw["where"], value=value, relation=raw["relation"], gap=gap))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    agreement = obj["oracle_agreement"]
    if not isinstance(agreement, bool):
        raise ValueError(f"oracle_agreement: expected true or false, got {agreement!r}")
    try:
        return EscapeCertificate(
            x0=x0,
            trace=trace,
            verdicts=tuple(verdicts),
            oracle_agreement=agreement,
        )
    except ValueError as exc:
        raise ValueError(f"certificate: {exc}") from None
