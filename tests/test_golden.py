"""Byte-stability of certificates and enclosures across performance work.

``CORPUS_DIGEST`` is the sha256 of every canonical certificate text over the
first 1000 corpus specs, concatenated in corpus order.  ``INTERVAL_DIGEST``
is the sha256 of the canonical interval-mode texts (the enclosure and both
descent traces, as ``escapepoint escape --mode interval --output
structured`` prints them) over the first 300 corpus specs, each at every
(n_known, eps) of ``INTERVAL_GRID``, in corpus then grid order.
``AFFINE_DIGEST`` is the sha256 of the canonical certificate texts over
``affine_grid()``: flat and steep slopes of both signs, intercepts that put
tail values exactly on 0 and on 2, and prefixes whose values sit at 0, at 2
and on the tail's line.  A change to how the map, the oracles, the bound
maps or the serializer compute their results must leave all three
unchanged; a deliberate change to a format must update its digest and say
so in CHANGES.md.
"""

import hashlib
import json
import math
from fractions import Fraction

from corpus import build_corpus
from escapepoint import (
    Affine,
    EnumerationSpec,
    certificate_to_jsonable,
    compute_escape,
    enclose_escape_traced,
    format_rational,
    intervalize,
)

CORPUS_DIGEST = "79bc2eb0a0dad86b4b78e6bcae248c68a176d804b7bcfb99742657635df16de4"
INTERVAL_DIGEST = "522bc59954dd4aa463a50da69ca5b2781c77789f2a67a047299726b92007283d"
AFFINE_DIGEST = "4a1c303168b27adaaff1fea62038697b1bb03483015dabf9aef90487eec415f4"
INTERVAL_GRID = (
    (1, Fraction(1, 10)),
    (4, Fraction(1, 100)),
    (16, Fraction(1, 128)),
    (64, Fraction(1, 10**6)),
)


AFFINE_SLOPES = tuple(
    sign * Fraction(1, d) for d in (1, 3, 16, 64, 512) for sign in (1, -1)
)


def line_values(a, b, start):
    """Tail values a*n + b in [0, 2] at n >= start: the first, a middle and the last."""
    lo, hi = sorted(((0 - b) / a, (2 - b) / a))
    first, last = max(start, math.ceil(lo)), math.floor(hi)
    if first > last:
        return ()
    return tuple(a * n + b for n in sorted({first, (first + last) // 2, last}))


def affine_grid():
    for a in AFFINE_SLOPES:
        # b = -3a and b = 2 - 3a put the value 0 or 2 at index 3 (and, as
        # 2/|a| is whole, the other end on an index too); -2 and 4 start
        # the line outside [0, 2]; 1/7 lands on neither end
        for b in (Fraction(0), Fraction(2), Fraction(1, 7), -3 * a, 2 - 3 * a,
                  Fraction(-2), Fraction(4)):
            on_line = (line_values(a, b, 3) + (Fraction(-1), Fraction(3), Fraction(1, 2)))[:3]
            for prefix in ((), (Fraction(0), Fraction(2)),
                           (Fraction(2), Fraction(5, 7), Fraction(0)), on_line):
                yield EnumerationSpec(prefix=prefix, tail=Affine(a, b))


def canonical_text(spec) -> str:
    cert = certificate_to_jsonable(compute_escape(spec))
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def canonical_interval_text(spec, n_known, eps) -> str:
    enclosure, lo_trace, hi_trace = enclose_escape_traced(intervalize(spec), n_known, eps)
    obj = {
        "lo": format_rational(enclosure.lo),
        "hi": format_rational(enclosure.hi),
        "lower_trace": [format_rational(v) for v in lo_trace.iterates],
        "upper_trace": [format_rational(v) for v in hi_trace.iterates],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_corpus_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for spec in build_corpus(1000):
        digest.update(canonical_text(spec).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


def test_affine_edge_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for spec in affine_grid():
        digest.update(canonical_text(spec).encode())
    assert digest.hexdigest() == AFFINE_DIGEST


def test_interval_enclosures_are_byte_identical():
    digest = hashlib.sha256()
    for spec in build_corpus(300):
        for n_known, eps in INTERVAL_GRID:
            digest.update(canonical_interval_text(spec, n_known, eps).encode())
    assert digest.hexdigest() == INTERVAL_DIGEST
