"""Byte-stability of certificates and enclosures across performance work.

``CORPUS_DIGEST`` is the sha256 of every canonical certificate text over the
first 1000 corpus specs, concatenated in corpus order.  ``INTERVAL_DIGEST``
is the sha256 of the canonical interval-mode texts (the enclosure and both
descent traces, as ``escapepoint escape --mode interval --output
structured`` prints them) over the first 300 corpus specs, each at every
(n_known, eps) of ``INTERVAL_GRID``, in corpus then grid order.  A change to
how the map, the oracles, the bound maps or the serializer compute their
results must leave both unchanged; a deliberate change to either format must
update its digest and say so in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

from corpus import build_corpus
from escapepoint import (
    certificate_to_jsonable,
    compute_escape,
    enclose_escape_traced,
    format_rational,
    intervalize,
)

CORPUS_DIGEST = "79bc2eb0a0dad86b4b78e6bcae248c68a176d804b7bcfb99742657635df16de4"
INTERVAL_DIGEST = "522bc59954dd4aa463a50da69ca5b2781c77789f2a67a047299726b92007283d"
INTERVAL_GRID = (
    (1, Fraction(1, 10)),
    (4, Fraction(1, 100)),
    (16, Fraction(1, 128)),
    (64, Fraction(1, 10**6)),
)


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


def test_interval_enclosures_are_byte_identical():
    digest = hashlib.sha256()
    for spec in build_corpus(300):
        for n_known, eps in INTERVAL_GRID:
            digest.update(canonical_interval_text(spec, n_known, eps).encode())
    assert digest.hexdigest() == INTERVAL_DIGEST
